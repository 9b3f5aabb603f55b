package seqcheck

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

// refCheck is the per-statement search, depth- or breadth-first, with
// event-carrying nodes and no budgets. It returns the first failure and
// its trace, nil when the program is safe.
func refCheck(c *sem.Compiled, bfs bool) (*sem.Failure, []sem.Event) {
	hasher := sem.NewFPHasher()
	visited := map[uint64]bool{}
	init := sem.NewState(c)
	visited[hasher.Hash(init)] = true
	type frame struct {
		st *sem.State
		nd *refNode
	}
	stack := []frame{{init, &refNode{}}}
	for len(stack) > 0 {
		var cur frame
		if bfs {
			cur, stack = stack[0], stack[1:]
		} else {
			cur, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		if cur.st.Threads[0].Done() {
			continue
		}
		sr := sem.Step(cur.st, 0)
		if f := sr.Failure; f != nil {
			return f, append(cur.nd.trace(), sem.Event{
				Kind: sem.EvStmt, ThreadID: f.ThreadID, Fn: f.Fn, Pos: f.Pos, Text: f.Msg,
			})
		}
		for _, out := range sr.Outcomes {
			if fp := hasher.Hash(out.State); !visited[fp] {
				visited[fp] = true
				stack = append(stack, frame{out.State, &refNode{cur.nd, out.Event}})
			}
		}
	}
	return nil, nil
}

// kissCompiled compiles the KISS translation of src: assertion checking
// with ts bound maxTS, or race checking on target when it is non-nil.
func kissCompiled(t *testing.T, src string, maxTS int, target *ast.RaceTarget) *sem.Compiled {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		t.Fatalf("sema: %v", err)
	}
	lower.Program(p)
	opts := ikiss.Options{MaxTS: maxTS}
	if target != nil {
		p, err = ikiss.TransformRace(p, *target, opts)
	} else {
		p, err = ikiss.Transform(p, opts)
	}
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	c, err := sem.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// traceSubject is one program the trace reference test checks.
type traceSubject struct {
	name string
	c    *sem.Compiled
}

// traceSubjects returns KISS translations of random programs, in
// assertion and race mode, and the race translations of the racing
// fields of a few Table 1 drivers (one field per driver under -short).
func traceSubjects(t *testing.T) []traceSubject {
	t.Helper()
	var subs []traceSubject
	n := int64(30)
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < n; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		subs = append(subs,
			traceSubject{fmt.Sprintf("rand%d", seed), kissCompiled(t, src, 1, nil)},
			traceSubject{fmt.Sprintf("rand%d-race", seed), kissCompiled(t, src, 1, &ast.RaceTarget{Global: "g0"})})
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
			target := &ast.RaceTarget{Record: "DEVICE_EXTENSION", Field: f.Name}
			subs = append(subs, traceSubject{name + "." + f.Name,
				kissCompiled(t, model.HarnessProgram(f.Name, false), 0, target)})
		}
	}
	return subs
}

// TestReplayedTraceMatchesReference: every engine builds its trace by
// replaying the failing state's path once. The trace must equal the one
// the event-carrying reference search builds in the same order —
// depth-first for the DFS engines, breadth-first for every BFS engine,
// resident or spilled — and each reported failure must cost exactly one
// replay.
func TestReplayedTraceMatchesReference(t *testing.T) {
	type engine struct {
		name string
		opts Options
		bfs  bool
	}
	engines := []engine{
		{"macro-dfs", Options{}, false},
		{"macro-bfs-w0", Options{BFS: true}, true},
		{"macro-bfs-w1", Options{SearchWorkers: 1}, true},
		{"macro-bfs-w8", Options{SearchWorkers: 8}, true},
		{"stmt-dfs", Options{DisableMacroSteps: true}, false},
		{"stmt-bfs-w0", Options{DisableMacroSteps: true, BFS: true}, true},
		{"stmt-bfs-w8", Options{DisableMacroSteps: true, SearchWorkers: 8}, true},
		{"macro-bfs-spill", Options{BFS: true, FrontierBudget: 2048}, true},
		{"stmt-bfs-spill", Options{DisableMacroSteps: true, SearchWorkers: 1, FrontierBudget: 2048}, true},
	}
	replays := 0
	replayHook = func([]int32) { replays++ }
	defer func() { replayHook = nil }()
	errors, races, spilled := 0, 0, 0
	for _, sub := range traceSubjects(t) {
		type ref struct {
			fail  *sem.Failure
			trace []sem.Event
		}
		refs := map[bool]ref{}
		for _, bfs := range []bool{false, true} {
			f, tr := refCheck(sub.c, bfs)
			refs[bfs] = ref{f, tr}
		}
		refFail := refs[false].fail
		if refFail != nil {
			errors++
			if sub.c.Prog.RaceTarget != nil {
				races++
			}
		}
		for _, eng := range engines {
			opts := eng.opts
			if opts.FrontierBudget > 0 {
				opts.SpillDir = t.TempDir()
			}
			before := replays
			res := Check(sub.c, opts)
			if refFail == nil {
				if res.Verdict != Safe {
					t.Errorf("%s %s: verdict %v, reference found no failure", sub.name, eng.name, res.Verdict)
				}
				continue
			}
			if res.Verdict != Error {
				t.Errorf("%s %s: verdict %v, reference found %v", sub.name, eng.name, res.Verdict, refFail)
				continue
			}
			if res.Memory != nil && res.Memory.SpilledFrames > 0 {
				spilled++
			}
			if got := replays - before; got != 1 {
				t.Errorf("%s %s: %d replays for one reported failure", sub.name, eng.name, got)
			}
			want := refs[eng.bfs]
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
