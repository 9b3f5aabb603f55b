package concheck

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/randprog"
)

// TestMacroDifferential: on fully explored two-threaded random programs,
// macro-step compression on and off produce the same verdict, failure,
// and counterexample trace at SearchWorkers 0, 1, and 8, in both
// unbounded and context-bounded modes. Deadlocks is deliberately not
// compared: pruning drops infeasible sole-live branch endpoints that the
// per-statement search counts as blocked states (see the
// DisableMacroSteps doc), and stored-state counters may only shrink.
func TestMacroDifferential(t *testing.T) {
	var onStates, offStates, errors int
	for seed := int64(0); seed < 25; seed++ {
		src := randprog.GenerateTwoThreaded(seed, randprog.Default)
		for _, bound := range []int{-1, 2} {
			for _, w := range []int{0, 1, 8} {
				base := Options{ContextBound: bound, SearchWorkers: w, MaxStates: 200000}
				offOpts := base
				offOpts.DisableMacroSteps = true
				off := Check(compile(t, src), offOpts)
				on := Check(compile(t, src), base)
				if off.Verdict == ResourceBound || on.Verdict == ResourceBound {
					continue
				}
				if on.Verdict != off.Verdict {
					t.Errorf("seed %d bound %d workers %d: verdict on=%v off=%v\n%s",
						seed, bound, w, on.Verdict, off.Verdict, src)
					continue
				}
				if !reflect.DeepEqual(on.Failure, off.Failure) {
					t.Errorf("seed %d bound %d workers %d: failure diverged:\n on  %v\n off %v",
						seed, bound, w, on.Failure, off.Failure)
				}
				if !reflect.DeepEqual(on.Trace, off.Trace) {
					t.Errorf("seed %d bound %d workers %d: trace diverged (%d vs %d events):\n on  %v\n off %v",
						seed, bound, w, len(on.Trace), len(off.Trace), on.Trace, off.Trace)
				}
				if on.States > off.States {
					t.Errorf("seed %d bound %d workers %d: compression stored more states (%d) than per-statement (%d)",
						seed, bound, w, on.States, off.States)
				}
				if on.Verdict == Error {
					errors++
				}
				onStates += on.States
				offStates += off.States
			}
		}
	}
	if errors == 0 {
		t.Error("no erroring programs; trace agreement vacuous")
	}
	if onStates >= offStates {
		t.Errorf("compression never reduced stored states: on=%d off=%d", onStates, offStates)
	}
}

// TestMacroIdenticalAcrossWorkerCounts: the compressed interleaving
// search keeps the parallel determinism contract — the whole Result is
// bit-identical at worker counts 1, 2, and 8.
func TestMacroIdenticalAcrossWorkerCounts(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		src := randprog.GenerateTwoThreaded(seed, randprog.Default)
		for _, bound := range []int{-1, 2} {
			var base Result
			for _, w := range []int{1, 2, 8} {
				got := stripParallel(Check(compile(t, src), Options{ContextBound: bound, SearchWorkers: w}))
				if w == 1 {
					base = got
					continue
				}
				if !reflect.DeepEqual(base, got) {
					t.Errorf("seed %d bound %d: workers=1 vs workers=%d:\n  %+v\n  %+v",
						seed, bound, w, base, got)
				}
			}
		}
	}
}

// candidateRaces are single-threaded programs where a failure found
// mid-fold (a deferred candidate) competes with another failure at the
// same micro depth: a stored frame failing on its first step, before or
// after the candidate in within-level order, or a second candidate whose
// origin node is deeper yet lex-smaller. %s pads one branch so that, for
// some padding, the two failures land on the same depth.
var candidateRaces = []string{
	`var x; func main() { choice {
	   { choice { { assert(x == 1); } [] { x = 5; } } }
	[] { x = 2; %s assert(x == 0); } } }`,
	`var x; func main() { choice {
	   { x = 2; %s assert(x == 0); }
	[] { choice { { assert(x == 1); } [] { x = 5; } } } } }`,
	`var x; func main() { choice {
	   { choice { { x = 7; assert(x == 0); } [] { x = 5; } } }
	[] { x = 2; %s assert(x == 0); } } }`,
}

// padded instantiates a candidateRaces program with k padding statements.
func padded(race string, k int) string {
	return strings.Replace(race, "%s", strings.Repeat("x = x + 1; ", k), 1)
}

// TestMacroCandidateOrder: the macro bucket BFS reports the same first
// failure and trace as the per-statement BFS when a mid-fold candidate,
// keyed by its origin's hop key and its thread's first folded entry,
// competes with another failure at its depth. A single-threaded program
// keeps every state sole-live, so every deterministic run folds.
func TestMacroCandidateOrder(t *testing.T) {
	for ri, race := range candidateRaces {
		for k := 0; k < 5; k++ {
			src := padded(race, k)
			on := Check(compile(t, src), Options{ContextBound: -1, SearchWorkers: 1})
			off := Check(compile(t, src), Options{ContextBound: -1, SearchWorkers: 1, DisableMacroSteps: true})
			if on.Verdict != Error || !reflect.DeepEqual(on.Failure, off.Failure) || !reflect.DeepEqual(on.Trace, off.Trace) {
				t.Errorf("race %d pad %d: macro %v, per-statement %v", ri, k, on.Failure, off.Failure)
			}
		}
	}
}
