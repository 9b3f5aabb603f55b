package concheck

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/randprog"
	"repro/internal/sem"
	"repro/internal/stats"
)

// The tests in this file check the explorer as the sequential checker:
// at the zero ContextBound only thread 0 ever runs, which is how
// kiss.Config.Check searches every KISS and CB translation.

func TestSafeProgram(t *testing.T) {
	c := compile(t, `
var x;
func main() {
  x = 1;
  choice { { x = x + 1; } [] { x = x + 2; } }
  assert(x > 1);
}
`)
	r := Check(c, Options{})
	if r.Verdict != Safe {
		t.Fatalf("want safe, got %v", r)
	}
	if r.States < 4 {
		t.Errorf("implausibly few states: %d", r.States)
	}
}

func TestAssertionViolationWithTrace(t *testing.T) {
	c := compile(t, `
var x;
func main() {
  x = 0;
  choice { { x = 1; } [] { x = 2; } }
  assert(x != 2);
}
`)
	r := Check(c, Options{})
	if r.Verdict != Error {
		t.Fatalf("want error, got %v", r)
	}
	if r.Failure == nil || r.Failure.Kind != sem.AssertFail {
		t.Fatalf("failure: %v", r.Failure)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no counterexample trace")
	}
	// The trace must end at the failing assert.
	last := r.Trace[len(r.Trace)-1]
	if last.Pos != r.Failure.Pos {
		t.Errorf("trace ends at %v, failure at %v", last.Pos, r.Failure.Pos)
	}
}

func TestBlockedAssumePrunesPath(t *testing.T) {
	c := compile(t, `
func main() {
  assume(false);
  assert(false);
}
`)
	r := Check(c, Options{})
	if r.Verdict != Safe {
		t.Fatalf("assume(false) must prune the failing path, got %v", r)
	}
}

func TestStateDeduplication(t *testing.T) {
	// Without fingerprint dedup this loop would explore forever; with it,
	// the state space is 3 values of x times a few PCs.
	c := compile(t, `
var x;
func main() {
  x = 0;
  iter {
    choice { { x = 0; } [] { x = 1; } [] { x = 2; } }
  }
}
`)
	r := Check(c, Options{MaxSteps: 100000})
	if r.Verdict != Safe {
		t.Fatalf("want safe, got %v", r)
	}
	if r.States > 100 {
		t.Errorf("dedup ineffective: %d states", r.States)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	c := compile(t, `
var x;
func main() {
  x = 0;
  iter { assume(x < 100000); x = x + 1; }
}
`)
	r := Check(c, Options{MaxSteps: 200})
	if r.Verdict != ResourceBound {
		t.Fatalf("want resource-bound, got %v", r)
	}
}

func TestMaxDepthPrunes(t *testing.T) {
	// The bug sits 50 steps deep; a shallow depth bound misses it (and
	// reports Safe, since depth pruning is a coverage cut, not a budget).
	c := compile(t, `
var x;
func main() {
  x = 0;
  iter { assume(x < 50); x = x + 1; }
  assert(x < 50);
}
`)
	deep := Check(c, Options{})
	if deep.Verdict != Error {
		t.Fatalf("unbounded: want error, got %v", deep)
	}
	shallow := Check(c, Options{MaxDepth: 10})
	if shallow.Verdict != Safe {
		t.Fatalf("depth-bounded: want safe (bug beyond horizon), got %v", shallow)
	}
}

func TestRuntimeErrorReported(t *testing.T) {
	c := compile(t, `
var p;
func main() {
  var x;
  p = null;
  x = *p;
}
`)
	r := Check(c, Options{})
	if r.Verdict != Error || r.Failure.Kind != sem.RuntimeFail {
		t.Fatalf("want runtime error, got %v", r)
	}
}

func TestTsDrainSemantics(t *testing.T) {
	// Dispatching from ts is part of the sequential semantics: the bug is
	// reachable only by running the pending function.
	c := compileTS(t, `
var x;
func f() { x = 1; }
func main() {
  x = 0;
  __ts_put(@f);
  __ts_dispatch();
  assert(x == 0);
}
`, 1)
	r := Check(c, Options{})
	if r.Verdict != Error {
		t.Fatalf("want error via dispatched pending call, got %v", r)
	}
}

func TestDeterministicResults(t *testing.T) {
	c := compile(t, `
var x;
func main() {
  x = 0;
  choice { { x = 1; } [] { x = 2; } [] { x = 3; } }
  iter { assume(x < 6); x = x + 1; }
}
`)
	r1 := Check(c, Options{})
	r2 := Check(c, Options{})
	if r1.Verdict != r2.Verdict || r1.States != r2.States || r1.Steps != r2.Steps {
		t.Errorf("nondeterministic checker: %v vs %v", r1, r2)
	}
}

func TestBFSFindsShortestCounterexample(t *testing.T) {
	// Two paths to failure: a long loop-unwinding one and a direct one.
	// BFS must return the direct (shortest) trace.
	c := compile(t, `
var x;
func main() {
  x = 0;
  choice {
    {
      iter { assume(x < 20); x = x + 1; }
      assume(x == 20);
      assert(false);
    }
  []
    {
      assert(false);
    }
  }
}
`)
	bfs := Check(c, Options{BFS: true})
	if bfs.Verdict != Error {
		t.Fatalf("BFS: want error, got %v", bfs)
	}
	dfs := Check(c, Options{})
	if dfs.Verdict != Error {
		t.Fatalf("DFS: want error, got %v", dfs)
	}
	if len(bfs.Trace) > len(dfs.Trace) {
		t.Errorf("BFS trace (%d events) longer than DFS trace (%d events)", len(bfs.Trace), len(dfs.Trace))
	}
	// The shortest failing path takes the second branch immediately:
	// x=0, nondet, assert — at most a handful of events.
	if len(bfs.Trace) > 6 {
		t.Errorf("BFS trace has %d events, expected a short direct path:\n%v", len(bfs.Trace), bfs.Trace)
	}
}

func TestBFSAndDFSAgreeOnVerdicts(t *testing.T) {
	srcs := []string{
		`var x; func main() { x = 1; assert(x == 1); }`,
		`var x; func main() { choice { { x = 1; } [] { x = 2; } } assert(x == 1); }`,
		`var x; func main() { x = 0; iter { assume(x < 5); x = x + 1; } assert(x <= 5); }`,
	}
	for i, src := range srcs {
		c := compile(t, src)
		d := Check(c, Options{})
		b := Check(c, Options{BFS: true})
		if d.Verdict != b.Verdict {
			t.Errorf("program %d: DFS %v, BFS %v", i, d.Verdict, b.Verdict)
		}
		if d.States != b.States && d.Verdict == Safe {
			t.Errorf("program %d: safe verdicts must explore equal state counts (DFS %d, BFS %d)",
				i, d.States, b.States)
		}
	}
}

// TestBFSQueueReleasesFrames is a structural regression test for the
// level engine's frontier: a breadth-first run over a wide state space
// must visit every state exactly once, as the depth-first run does.
func TestBFSQueueReleasesFrames(t *testing.T) {
	// A 3-deep tree of binary choices over three variables: 27 leaf
	// valuations, fully enumerable.
	c := compile(t, `
var a; var b; var d;
func main() {
  choice { { a = 0; } [] { a = 1; } [] { a = 2; } }
  choice { { b = 0; } [] { b = 1; } [] { b = 2; } }
  choice { { d = 0; } [] { d = 1; } [] { d = 2; } }
  assert(a + b + d <= 6);
}
`)
	d := Check(c, Options{})
	bfs := Check(c, Options{BFS: true})
	if d.Verdict != Safe || bfs.Verdict != Safe {
		t.Fatalf("want safe/safe, got %v/%v", d.Verdict, bfs.Verdict)
	}
	if d.States != bfs.States {
		t.Errorf("DFS explored %d states, BFS %d — dequeue is dropping or duplicating frames",
			d.States, bfs.States)
	}
}

// TestMacroBudgetedVerdictsAgree: under tight budgets the two step modes
// may trip at different points (a folded run re-executes deterministic
// segments the per-statement search deduplicates mid-chain), but whenever
// both complete, they agree. At SearchWorkers 0 (depth-first) they report
// the same verdict and failure. At 1 the level engine drains its buckets
// in arrival order and may report another of several shortest failures,
// so it must report the same verdict and a trace of the same length.
func TestMacroBudgetedVerdictsAgree(t *testing.T) {
	budgets := []Options{
		{MaxSteps: 300},
		{MaxDepth: 10},
		{MaxStates: 150},
	}
	checked := 0
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for bi, b := range budgets {
			for _, w := range []int{0, 1} {
				offOpts, onOpts := b, b
				offOpts.SearchWorkers, onOpts.SearchWorkers = w, w
				offOpts.DisableMacroSteps = true
				off := Check(compile(t, src), offOpts)
				on := Check(compile(t, src), onOpts)
				if off.Verdict == ResourceBound || on.Verdict == ResourceBound {
					continue
				}
				checked++
				if on.Verdict != off.Verdict {
					t.Errorf("seed %d budget %d workers %d: on=%v(%v) off=%v(%v)",
						seed, bi, w, on.Verdict, on.Failure, off.Verdict, off.Failure)
					continue
				}
				if w == 0 && !reflect.DeepEqual(on.Failure, off.Failure) {
					t.Errorf("seed %d budget %d workers %d: failure on=%v off=%v",
						seed, bi, w, on.Failure, off.Failure)
				}
				if w == 1 && len(on.Trace) != len(off.Trace) {
					t.Errorf("seed %d budget %d workers %d: macro trace has %d events, per-statement %d",
						seed, bi, w, len(on.Trace), len(off.Trace))
				}
			}
		}
	}
	if checked == 0 {
		t.Error("every budgeted run tripped; agreement vacuous")
	}
}

// loopSrc explores a large-but-bounded state space: two nondet counters
// give ~10^4+ states, enough for budgets and cancellation to bite.
const loopSrc = `
var a;
var b;
func main() {
  a = 0; b = 0;
  iter { choice { { a = a + 1; assume(a < 200); } [] { b = b + 1; assume(b < 200); } } }
  assert(a >= 0);
}
`

// TestDeadlineReason: an expired deadline reports ReasonDeadline, not
// ReasonCanceled.
func TestDeadlineReason(t *testing.T) {
	c := compile(t, loopSrc)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := Check(c, Options{Context: ctx})
	if r.Verdict != ResourceBound || r.Reason != stats.ReasonDeadline {
		t.Fatalf("want resource-bound/deadline, got %v reason=%v", r.Verdict, r.Reason)
	}
	if !strings.Contains(r.String(), "deadline") {
		t.Errorf("String() does not name the deadline: %q", r.String())
	}
}

// TestCancellationIsDeterministic: canceling mid-run must not perturb a
// later complete run (shared structures are per-call).
func TestCancellationIsDeterministic(t *testing.T) {
	c := compile(t, loopSrc)
	full1 := Check(c, Options{MaxStates: 3000})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = Check(c, Options{Context: ctx})
	full2 := Check(c, Options{MaxStates: 3000})
	if full1.States != full2.States || full1.Steps != full2.Steps ||
		full1.PeakFrontier != full2.PeakFrontier || full1.PeakDepth != full2.PeakDepth {
		t.Errorf("rerun after cancellation differs: %+v vs %+v", full1, full2)
	}
}

// wideChoiceSrc builds a program with 2^k distinct leaf states — a state
// space wide enough to keep the worker pool busy.
func wideChoiceSrc(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "var x%d;\n", i)
	}
	b.WriteString("func main() {\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "  choice { { x%d = 1; } [] { x%d = 2; } }\n", i, i)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestParallelWideStateSpace: exact state accounting on a space whose size
// is known in closed form, identical at every worker count.
func TestParallelWideStateSpace(t *testing.T) {
	src := wideChoiceSrc(10)
	var base Result
	for _, w := range []int{1, 3, 8} {
		got := stripParallel(Check(compile(t, src), Options{SearchWorkers: w}))
		if got.Verdict != Safe {
			t.Fatalf("workers=%d: want safe, got %v", w, got.Verdict)
		}
		if w == 1 {
			base = got
			if base.States < 1<<10 {
				t.Fatalf("implausibly few states for 10 binary choices: %d", base.States)
			}
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=1 vs workers=%d:\n  %+v\n  %+v", w, base, got)
		}
	}
}

// TestAuditVisitedCountsFalsePositives: AuditVisited shadows the filter
// with an exact set and counts measured false positives without changing
// the search. A single-block filter fed 2^12 states must saturate and
// register misses.
func TestAuditVisitedCountsFalsePositives(t *testing.T) {
	src := wideChoiceSrc(12)
	base := Options{SearchWorkers: 1, VisitedCompact: true, VisitedBytes: 64}
	bare := stripParallel(Check(compile(t, src), base))
	audit := base
	audit.AuditVisited = true
	audited := Check(compile(t, src), audit)

	if audited.Memory == nil || audited.Memory.VisitedMode != "compact" {
		t.Fatalf("audited run missing memory diagnostics: %+v", audited.Memory)
	}
	if audited.Memory.VisitedFalsePositives == 0 {
		t.Error("2^12 states through a 512-bit filter produced no measured false positives")
	}
	exact := Check(compile(t, src), Options{SearchWorkers: 1})
	if audited.States >= exact.States {
		t.Errorf("starved filter did not shrink the search: compact %d states, exact %d",
			audited.States, exact.States)
	}
	// The audit is observation only: same search as the bare filter.
	got := stripMemory(stripParallel(audited))
	want := stripMemory(bare)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("audit changed the search:\n  bare    %+v\n  audited %+v", want, got)
	}
}
