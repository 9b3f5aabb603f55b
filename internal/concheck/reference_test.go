package concheck

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/drivers"
	ikiss "repro/internal/kiss"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/randprog"
	"repro/internal/sem"
	"repro/internal/sema"
)

// refNode is a trace node that carries its edge's event, the way the
// searches kept traces before every trace came from replaying a path.
type refNode struct {
	parent *refNode
	event  sem.Event
}

func (n *refNode) trace() []sem.Event {
	var out []sem.Event
	for cur := n; cur.parent != nil; cur = cur.parent {
		out = append(out, cur.event)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// refCheck is the per-statement interleaving search, depth- or
// breadth-first, with event-carrying nodes, no budgets and no POR,
// under the context bound (negative: unlimited). It returns the first
// failure and its trace, nil when the program is safe.
func refCheck(c *sem.Compiled, bound int, bfs bool) (*sem.Failure, []sem.Event) {
	hasher := sem.NewFPHasher()
	visited := map[uint64]bool{}
	key := func(s *sem.State, lastTh, switches int) uint64 {
		fp := hasher.Hash(s)
		if bound >= 0 {
			fp = sem.Mix64(fp, uint64(lastTh+1))
			fp = sem.Mix64(fp, uint64(switches))
		}
		return fp
	}
	init := sem.NewState(c)
	visited[key(init, -1, 0)] = true
	type frame struct {
		st       *sem.State
		nd       *refNode
		lastTh   int
		switches int
	}
	stack := []frame{{init, &refNode{}, -1, 0}}
	for len(stack) > 0 {
		var cur frame
		if bfs {
			cur, stack = stack[0], stack[1:]
		} else {
			cur, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		for ti := range cur.st.Threads {
			if cur.st.Threads[ti].Done() {
				continue
			}
			switches := cur.switches
			if cur.lastTh >= 0 && cur.lastTh != ti {
				if switches++; bound >= 0 && switches > bound {
					continue
				}
			}
			sr := sem.Step(cur.st, ti)
			if f := sr.Failure; f != nil {
				return f, append(cur.nd.trace(), sem.Event{
					Kind: sem.EvStmt, ThreadID: f.ThreadID, Pos: f.Pos, Text: f.Msg,
				})
			}
			for _, out := range sr.Outcomes {
				if fp := key(out.State, ti, switches); !visited[fp] {
					visited[fp] = true
					stack = append(stack, frame{out.State, &refNode{cur.nd, out.Event}, ti, switches})
				}
			}
		}
	}
	return nil, nil
}

// raceCompiled compiles the KISS race translation of a Table 1 field's
// permissive harness: a one-threaded program the explorer checks like
// any other.
func raceCompiled(t *testing.T, src, field string) *sem.Compiled {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		t.Fatalf("sema: %v", err)
	}
	lower.Program(p)
	p, err = ikiss.TransformRace(p, ast.RaceTarget{Record: "DEVICE_EXTENSION", Field: field}, ikiss.Options{})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	c, err := sem.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// TestReplayedTraceMatchesReference: every engine builds its trace by
// replaying the failing state's (thread, index) path once. On
// two-threaded random programs, unbounded and under a context bound,
// and on the race translations of Table 1 racing fields, the trace must
// equal the one the event-carrying reference search builds in the same
// order — depth-first for the DFS engines, breadth-first for every
// level engine, resident or spilled — and each reported failure must
// cost exactly one replay.
func TestReplayedTraceMatchesReference(t *testing.T) {
	type subject struct {
		name  string
		c     *sem.Compiled
		bound int
	}
	var subs []subject
	n := int64(25)
	if testing.Short() {
		n = 8
	}
	for seed := int64(0); seed < n; seed++ {
		src := randprog.GenerateTwoThreaded(seed, randprog.Default)
		for _, bound := range []int{-1, 2} {
			subs = append(subs, subject{fmt.Sprintf("rand%d/bound%d", seed, bound), compile(t, src), bound})
		}
	}
	for _, name := range []string{"moufiltr", "kbfiltr"} {
		spec := drivers.FindSpec(name)
		model := drivers.Generate(spec)
		kept := 0
		for _, f := range spec.Fields {
			if !f.Pattern.RacesPermissive() {
				continue
			}
			if kept++; testing.Short() && kept > 1 {
				break
			}
			subs = append(subs, subject{name + "." + f.Name, raceCompiled(t, model.HarnessProgram(f.Name, false), f.Name), -1})
		}
	}

	type engine struct {
		name string
		opts Options
		bfs  bool
	}
	engines := []engine{
		{"macro-dfs", Options{}, false},
		{"macro-bfs-w1", Options{SearchWorkers: 1}, true},
		{"macro-bfs-w8", Options{SearchWorkers: 8}, true},
		{"stmt-dfs", Options{DisableMacroSteps: true}, false},
		{"stmt-bfs-w1", Options{DisableMacroSteps: true, SearchWorkers: 1}, true},
		{"stmt-bfs-w8", Options{DisableMacroSteps: true, SearchWorkers: 8}, true},
		{"macro-bfs-spill", Options{SearchWorkers: 1, FrontierBudget: 2048}, true},
		{"stmt-bfs-spill", Options{DisableMacroSteps: true, SearchWorkers: 1, FrontierBudget: 2048}, true},
	}
	replays := 0
	cReplayHook = func([]int32) { replays++ }
	defer func() { cReplayHook = nil }()
	errors, races, spilled := 0, 0, 0
	for _, sub := range subs {
		type ref struct {
			fail  *sem.Failure
			trace []sem.Event
		}
		refs := map[bool]ref{}
		for _, bfs := range []bool{false, true} {
			f, tr := refCheck(sub.c, sub.bound, bfs)
			refs[bfs] = ref{f, tr}
		}
		if refs[false].fail != nil {
			errors++
			if sub.c.Prog.RaceTarget != nil {
				races++
			}
		}
		for _, eng := range engines {
			opts := eng.opts
			opts.ContextBound = sub.bound
			if opts.FrontierBudget > 0 {
				opts.SpillDir = t.TempDir()
			}
			before := replays
			res := Check(sub.c, opts)
			want := refs[eng.bfs]
			if want.fail == nil {
				if res.Verdict != Safe {
					t.Errorf("%s %s: verdict %v, reference found no failure", sub.name, eng.name, res.Verdict)
				}
				continue
			}
			if res.Verdict != Error {
				t.Errorf("%s %s: verdict %v, reference found %v", sub.name, eng.name, res.Verdict, want.fail)
				continue
			}
			if res.Memory != nil && res.Memory.SpilledFrames > 0 {
				spilled++
			}
			if got := replays - before; got != 1 {
				t.Errorf("%s %s: %d replays for one reported failure", sub.name, eng.name, got)
			}
			if !reflect.DeepEqual(res.Failure, want.fail) {
				t.Errorf("%s %s: failure %v, reference %v", sub.name, eng.name, res.Failure, want.fail)
			}
			if !reflect.DeepEqual(res.Trace, want.trace) {
				t.Errorf("%s %s: replayed trace (%d events) differs from the reference's (%d events)",
					sub.name, eng.name, len(res.Trace), len(want.trace))
			}
		}
	}
	if errors == 0 || races == 0 || spilled == 0 {
		t.Errorf("vacuous: %d erroring subjects, %d of them races, %d failures found by spilling runs",
			errors, races, spilled)
	}
	t.Logf("%d erroring subjects, %d races, %d failures found by spilling runs", errors, races, spilled)
}

// TestFailAtReplaysFoldingThread: a failure inside a fold of a thread
// other than main (possible only once main has returned, so no search
// reports it first) replays the folded positions through that thread.
func TestFailAtReplaysFoldingThread(t *testing.T) {
	c := compile(t, `var y; func f() { y = 1; y = 2; assert(y == 0); } func main() { async f(); }`)
	// main's async and return, then thread 1 alone.
	st := sem.NewState(c)
	var want []sem.Event
	for _, ti := range []int{0, 0} {
		out := sem.Step(st, ti).Outcomes[0]
		want = append(want, out.Event)
		st = out.State
	}
	mr := sem.MacroStep(st, 1, 0)
	if mr.Failure == nil || len(mr.PrefixIdx) != 2 {
		t.Fatalf("thread 1 did not fail after a fold of two steps: %+v", mr)
	}
	for _, idx := range mr.PrefixIdx {
		out := sem.Step(st, 1).Outcomes[idx]
		want = append(want, out.Event)
		st = out.State
	}
	f := mr.Failure
	want = append(want, sem.Event{Kind: sem.EvStmt, ThreadID: f.ThreadID, Pos: f.Pos, Text: f.Msg})

	root := &node{}
	n1 := &node{parent: root, depth: 1}
	n2 := &node{parent: n1, depth: 2}
	res := cFailAt(c, &Result{}, n2, 1, mr.PrefixIdx, f)
	if !reflect.DeepEqual(res.Trace, want) {
		t.Fatalf("trace %v, want %v", res.Trace, want)
	}
}
