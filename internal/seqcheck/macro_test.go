package seqcheck

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/concheck"
	"repro/internal/randprog"
)

// TestMacroDifferential: the differential property behind macro-step
// compression — on fully explored random programs, compression on and
// off produce the same verdict at SearchWorkers 0 (classic DFS vs macro
// DFS), 1, and 8 (the breadth-first level engine). At 0 they also report
// the same failure and counterexample trace. At 1 and 8 the macro search
// drains its frontier in arrival order and may report another of several
// shortest failures, so it must report a trace as long as the
// per-statement one, and one failure and trace at both worker counts (as
// TestReplayedTraceMatchesReference checks). Only the stored-state
// counters may differ, and they must differ downward.
func TestMacroDifferential(t *testing.T) {
	var onStates, offStates, errors int
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		var level *concheck.Result // the macro level engine's result at 1 worker
		for _, w := range []int{0, 1, 8} {
			off := concheck.Check(compile(t, src, 0), concheck.Options{SearchWorkers: w, MaxStates: 200000, DisableMacroSteps: true})
			on := concheck.Check(compile(t, src, 0), concheck.Options{SearchWorkers: w, MaxStates: 200000})
			if off.Verdict == concheck.ResourceBound || on.Verdict == concheck.ResourceBound {
				continue
			}
			if on.Verdict != off.Verdict {
				t.Errorf("seed %d workers %d: verdict on=%v off=%v\n%s", seed, w, on.Verdict, off.Verdict, src)
				continue
			}
			switch {
			case w == 0:
				if !reflect.DeepEqual(on.Failure, off.Failure) {
					t.Errorf("seed %d workers %d: failure diverged:\n on  %v\n off %v", seed, w, on.Failure, off.Failure)
				}
				if !reflect.DeepEqual(on.Trace, off.Trace) {
					t.Errorf("seed %d workers %d: trace diverged (%d vs %d events):\n on  %v\n off %v",
						seed, w, len(on.Trace), len(off.Trace), on.Trace, off.Trace)
				}
			case len(on.Trace) != len(off.Trace):
				t.Errorf("seed %d workers %d: macro trace has %d events, per-statement %d",
					seed, w, len(on.Trace), len(off.Trace))
			case level == nil:
				level = on
			case !reflect.DeepEqual(on.Failure, level.Failure) || !reflect.DeepEqual(on.Trace, level.Trace):
				t.Errorf("seed %d workers %d: macro failure %v or its trace differs from 1 worker's %v",
					seed, w, on.Failure, level.Failure)
			}
			if on.States > off.States {
				t.Errorf("seed %d workers %d: compression stored more states (%d) than per-statement (%d)",
					seed, w, on.States, off.States)
			}
			if on.Verdict == concheck.Error {
				errors++
			}
			onStates += on.States
			offStates += off.States
		}
	}
	if errors == 0 {
		t.Error("no erroring programs; trace agreement vacuous")
	}
	if onStates >= offStates {
		t.Errorf("compression never reduced stored states: on=%d off=%d", onStates, offStates)
	}
}

// TestMacroIdenticalAcrossWorkerCounts: the compressed parallel search
// keeps the PR 3 determinism contract — the whole Result is bit-identical
// at worker counts 1, 2, and 8.
func TestMacroIdenticalAcrossWorkerCounts(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		var base concheck.Result
		for _, w := range []int{1, 2, 8} {
			got := stripParallel(concheck.Check(compile(t, src, 0), concheck.Options{SearchWorkers: w}))
			if w == 1 {
				base = got
				continue
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("seed %d: workers=1 vs workers=%d:\n  %+v\n  %+v", seed, w, base, got)
			}
		}
	}
}

// candidateRaces are single-threaded programs in which a failure met
// mid-fold (a candidate) competes with another failure. A one-threaded
// program keeps every state sole-live, so every deterministic run folds.
// want is the expression of the assertion the macro BFS must report:
//   - a candidate beats a frame that fails on its first step at the
//     candidate's micro depth (the per-statement BFS reports the frame's
//     assertion, x == 1, which comes first in its within-level order);
//   - a shallower candidate found later beats a deeper one found earlier
//     (branch 1 folds to its failure in bucket 1, branch 2's inner
//     choice reaches a shallower one in bucket 2);
//   - of two candidates at one depth, the first found wins (branch 2's,
//     found in bucket 1, over branch 1's, found in bucket 2; the
//     per-statement BFS reports x == 1).
var candidateRaces = []struct{ name, src, want string }{
	{"candidate beats frame", `var x; func main() { choice {
	   { choice { { assert(x == 1); } [] { x = 5; } } }
	[] { x = 2; assert(x == 0); } } }`, "x == 0"},
	{"shallower candidate found later", `var x; func main() { choice {
	   { x = 1; x = 1; x = 1; x = 1; x = 1; assert(x == 0); }
	[] { choice { { x = 2; assert(x == 3); } [] { x = 4; } } } } }`, "x == 3"},
	{"first candidate wins a tie", `var x; func main() { choice {
	   { choice { { x = 7; assert(x == 1); } [] { x = 5; } } }
	[] { x = 2; x = 2; assert(x == 0); } } }`, "x == 0"},
}

// TestMacroCandidateOrder: the macro BFS resolves a mid-fold failure
// candidate by micro depth and then by discovery order, at every worker
// count: it reports the assertion each candidateRaces program names, with
// a trace as long as the per-statement BFS's.
func TestMacroCandidateOrder(t *testing.T) {
	for _, race := range candidateRaces {
		off := concheck.Check(compile(t, race.src, 0), concheck.Options{BFS: true, DisableMacroSteps: true})
		for _, w := range []int{0, 1, 8} {
			on := concheck.Check(compile(t, race.src, 0), concheck.Options{BFS: true, SearchWorkers: w})
			if on.Verdict != concheck.Error || !strings.Contains(on.Failure.Msg, "("+race.want+")") {
				t.Errorf("%s workers %d: macro reports %v, want the failure of (%s)", race.name, w, on.Failure, race.want)
				continue
			}
			if len(on.Trace) != len(off.Trace) {
				t.Errorf("%s workers %d: macro trace has %d events, per-statement %d", race.name, w, len(on.Trace), len(off.Trace))
			}
		}
	}
}
