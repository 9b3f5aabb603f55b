package seqcheck

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/randprog"
)

// TestMacroDifferential: the differential property behind macro-step
// compression — on fully explored random programs, compression on and
// off produce the same verdict, the same failure, and the same
// counterexample trace at SearchWorkers 0 (classic DFS vs macro DFS),
// 1, and 8 (parallel BFS vs macro bucket BFS). Only the stored-state
// counters may differ, and they must differ downward.
func TestMacroDifferential(t *testing.T) {
	var onStates, offStates, errors int
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for _, w := range []int{0, 1, 8} {
			off := Check(compile(t, src, 0), Options{SearchWorkers: w, MaxStates: 200000, DisableMacroSteps: true})
			on := Check(compile(t, src, 0), Options{SearchWorkers: w, MaxStates: 200000})
			if off.Verdict == ResourceBound || on.Verdict == ResourceBound {
				continue
			}
			if on.Verdict != off.Verdict {
				t.Errorf("seed %d workers %d: verdict on=%v off=%v\n%s", seed, w, on.Verdict, off.Verdict, src)
				continue
			}
			if !reflect.DeepEqual(on.Failure, off.Failure) {
				t.Errorf("seed %d workers %d: failure diverged:\n on  %v\n off %v", seed, w, on.Failure, off.Failure)
			}
			if !reflect.DeepEqual(on.Trace, off.Trace) {
				t.Errorf("seed %d workers %d: trace diverged (%d vs %d events):\n on  %v\n off %v",
					seed, w, len(on.Trace), len(off.Trace), on.Trace, off.Trace)
			}
			if on.States > off.States {
				t.Errorf("seed %d workers %d: compression stored more states (%d) than per-statement (%d)",
					seed, w, on.States, off.States)
			}
			if on.Verdict == Error {
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

// TestMacroBudgetedVerdictsAgree: under tight budgets the two arms may
// trip at different points (a folded run re-executes deterministic
// segments the per-statement search deduplicates mid-chain), but
// whenever both complete, the verdicts and failures still agree.
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
				off := Check(compile(t, src, 0), offOpts)
				on := Check(compile(t, src, 0), onOpts)
				if off.Verdict == ResourceBound || on.Verdict == ResourceBound {
					continue
				}
				checked++
				if on.Verdict != off.Verdict || !reflect.DeepEqual(on.Failure, off.Failure) {
					t.Errorf("seed %d budget %d workers %d: on=%v(%v) off=%v(%v)",
						seed, bi, w, on.Verdict, on.Failure, off.Verdict, off.Failure)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("every budgeted run tripped; agreement vacuous")
	}
}

// TestMacroIdenticalAcrossWorkerCounts: the compressed parallel search
// keeps the PR 3 determinism contract — the whole Result is bit-identical
// at worker counts 1, 2, and 8.
func TestMacroIdenticalAcrossWorkerCounts(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		var base Result
		for _, w := range []int{1, 2, 8} {
			got := stripParallel(Check(compile(t, src, 0), Options{SearchWorkers: w}))
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
// keyed by its origin's hop key, competes with another failure at its
// depth.
func TestMacroCandidateOrder(t *testing.T) {
	for ri, race := range candidateRaces {
		for k := 0; k < 5; k++ {
			src := padded(race, k)
			for _, w := range []int{0, 1} {
				on := Check(compile(t, src, 0), Options{BFS: true, SearchWorkers: w})
				off := Check(compile(t, src, 0), Options{BFS: true, SearchWorkers: w, DisableMacroSteps: true})
				if on.Verdict != Error || !reflect.DeepEqual(on.Failure, off.Failure) || !reflect.DeepEqual(on.Trace, off.Trace) {
					t.Errorf("race %d pad %d workers %d: macro %v, per-statement %v", ri, k, w, on.Failure, off.Failure)
				}
			}
		}
	}
}
