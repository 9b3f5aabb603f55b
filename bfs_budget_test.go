package kiss_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	kiss "repro"
)

// wideSrc has a breadth-first frontier of 2^k states at its widest level:
// k independent binary choices, then the final assertion. A worker thread
// whose write violates it is forked before the choices (spawn "first")
// or after them ("last"); "" forks none.
func wideSrc(k int, spawn string) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "var x%d;\n", i)
	}
	b.WriteString("var y;\nfunc worker() { y = 1; }\nfunc main() {\n")
	if spawn == "first" {
		b.WriteString("  async worker();\n")
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "  choice { { x%d = 1; } [] { x%d = 2; } }\n", i, i)
	}
	if spawn == "last" {
		b.WriteString("  async worker();\n")
	}
	b.WriteString("  assert(y == 0);\n}\n")
	return b.String()
}

// checkOrExplore runs cfg's Check, or Explore when explore is set.
func checkOrExplore(t *testing.T, src string, cfg *kiss.Config, explore bool) *kiss.Result {
	t.Helper()
	p, err := kiss.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var res *kiss.Result
	if explore {
		res, err = cfg.Explore(p)
	} else {
		res, err = cfg.Check(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBFSHonoursMemoryBudget: breadth-first search at SearchWorkers 0
// honours the memory settings in both Check and Explore, with and
// without macro steps: under a 1 MiB budget with the compact visited set
// it reports compact-mode memory stats and spills frontier frames, and
// it finds what the unbudgeted search finds. Spill files go to the system
// temp directory, here the test's own.
func TestBFSHonoursMemoryBudget(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, explore := range []bool{false, true} {
		src := wideSrc(13, "")
		if explore {
			src = wideSrc(13, "last")
		}
		for _, macro := range []bool{true, false} {
			budget := &kiss.Config{BFS: true, DisableMacroSteps: !macro, ContextBound: -1,
				VisitedMode: kiss.VisitedCompact, MemBudgetMB: 1}
			if budget.MemBudgetIgnored() {
				t.Fatalf("explore=%v macro=%v: BFS config reports its memory budget ignored", explore, macro)
			}
			got := checkOrExplore(t, src, budget, explore)
			m := got.Stats.Memory
			if m == nil || m.VisitedMode != kiss.VisitedCompact || m.SpilledFrames == 0 {
				t.Errorf("explore=%v macro=%v: memory stats %+v, want compact mode with spilled frames",
					explore, macro, m)
			}
			plain := checkOrExplore(t, src, &kiss.Config{BFS: true, DisableMacroSteps: !macro, ContextBound: -1}, explore)
			if got.Verdict != plain.Verdict || got.Message != plain.Message {
				t.Errorf("explore=%v macro=%v: budgeted %v (%s), unbudgeted %v (%s)",
					explore, macro, got.Verdict, got.Message, plain.Verdict, plain.Message)
			}
		}
	}
}

// TestExploreHonoursBFS: Explore's breadth-first search at SearchWorkers 0
// is the level engine run inline, so it reports exactly what one search
// worker does, and its counterexample is no longer than the depth-first
// one.
func TestExploreHonoursBFS(t *testing.T) {
	src := wideSrc(4, "first")
	dfs := checkOrExplore(t, src, &kiss.Config{ContextBound: -1}, true)
	bfs := checkOrExplore(t, src, &kiss.Config{ContextBound: -1, BFS: true}, true)
	w1 := checkOrExplore(t, src, &kiss.Config{ContextBound: -1, SearchWorkers: 1}, true)
	if dfs.Verdict != kiss.Error || bfs.Verdict != kiss.Error {
		t.Fatalf("want errors, got DFS %v, BFS %v", dfs.Verdict, bfs.Verdict)
	}
	if !reflect.DeepEqual(strip(bfs), strip(w1)) {
		t.Errorf("BFS at workers 0 differs from workers 1:\n  %+v\n  %+v", strip(bfs), strip(w1))
	}
	if len(bfs.SeqEvents) >= len(dfs.SeqEvents) {
		t.Errorf("BFS trace has %d events, DFS %d: BFS was not breadth-first", len(bfs.SeqEvents), len(dfs.SeqEvents))
	}
}

// TestExploreTraceEndsInFailingFunction: an Explore counterexample ends in
// the failing statement's event, named with the function it fails in,
// depth-first and with a search worker, with and without macro steps.
func TestExploreTraceEndsInFailingFunction(t *testing.T) {
	const src = `
var x;
func worker() { x = 1; }
func check() { assert(x == 0); }
func main() {
  x = 0;
  async worker();
  check();
}
`
	for _, w := range []int{0, 1} {
		for _, macro := range []bool{true, false} {
			res := checkOrExplore(t, src, &kiss.Config{ContextBound: -1, SearchWorkers: w, DisableMacroSteps: !macro}, true)
			if res.Verdict != kiss.Error || len(res.SeqEvents) == 0 {
				t.Fatalf("workers %d macro %v: want an error with a trace, got %v", w, macro, res)
			}
			if last := res.SeqEvents[len(res.SeqEvents)-1]; last.Fn != "check" || last.Pos != res.Pos {
				t.Errorf("workers %d macro %v: trace ends in %+v, want the failing assert in check at %v",
					w, macro, last, res.Pos)
			}
		}
	}
}
