package seqcheck

import (
	"reflect"
	"testing"

	"repro/internal/concheck"
	"repro/internal/randprog"
)

// stripMemory drops the memory diagnostics — present only when spilling
// or the compact visited set is on, and therefore necessarily different
// between an audited arm and a bare arm of the same search.
func stripMemory(r concheck.Result) concheck.Result {
	r.Memory = nil
	return r
}

// TestSpillIdenticalToResident: the disk-spilling frontier is eviction
// only. With a budget tiny enough to spill every bucket, the whole
// Result — verdict, trace, and every deterministic counter — is
// bit-identical to the fully resident search, for every BFS engine
// (macro bucket and per-statement level), sequential and parallel,
// including runs that trip a budget mid-level.
func TestSpillIdenticalToResident(t *testing.T) {
	engines := []concheck.Options{
		{BFS: true}, // sequential macro bucket BFS (workers 0)
		{SearchWorkers: 1},
		{SearchWorkers: 8},
		{SearchWorkers: 1, DisableMacroSteps: true},
		{SearchWorkers: 8, DisableMacroSteps: true},
		{SearchWorkers: 8, MaxStates: 150},
		{SearchWorkers: 8, MaxSteps: 300, DisableMacroSteps: true},
	}
	var spilled int64
	errors, spilledErrors := 0, 0
	replayed := 0
	concheck.SetReplayHook(func([]int32) { replayed++ })
	defer concheck.SetReplayHook(nil)
	for seed := int64(0); seed < 12; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for ei, eng := range engines {
			resident := stripMemory(stripParallel(concheck.Check(compile(t, src, 0), eng)))
			on := eng
			on.FrontierBudget = 2048
			on.SpillDir = t.TempDir()
			got := concheck.Check(compile(t, src, 0), on)
			if got.Memory != nil {
				spilled += got.Memory.SpilledFrames
				if got.Memory.SpilledFrames > 0 && got.Verdict == concheck.Error {
					spilledErrors++
				}
			}
			if spilledRes := stripMemory(stripParallel(got)); !reflect.DeepEqual(resident, spilledRes) {
				t.Errorf("seed %d engine %d: resident vs spilled:\n  %+v\n  %+v",
					seed, ei, resident, spilledRes)
			}
			if resident.Verdict == concheck.Error {
				errors++
			}
		}
	}
	if spilled == 0 {
		t.Error("no frames ever spilled; identity vacuous")
	}
	if errors == 0 {
		t.Error("no erroring programs; trace identity vacuous")
	}
	if spilledErrors == 0 {
		t.Error("no error found by a run that spilled; replay from restored frames vacuous")
	}
	// Every trace is rebuilt by exactly one replay, resident or spilled.
	if replayed != 2*errors {
		t.Errorf("%d replays for %d erroring runs; want one per reported failure", replayed, 2*errors)
	}
}

// TestCompactVisitedShrinkOnly: a Bloom false positive marks a fresh
// state as already seen, so the compact visited set can only ever
// *shrink* the explored set — never flip a reachable failure into a
// fabricated one. On the randprog differential corpus: compact States ≤
// exact States at every filter size; a healthily sized filter reproduces
// the exact verdict (in particular never unsafe→safe); a deliberately
// starved one may miss failures but must never invent one.
func TestCompactVisitedShrinkOnly(t *testing.T) {
	errors := 0
	for seed := int64(0); seed < 25; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for _, w := range []int{0, 1, 8} {
			base := concheck.Options{SearchWorkers: w, MaxStates: 100000}
			exact := concheck.Check(compile(t, src, 0), base)
			healthyOpts := base
			healthyOpts.VisitedCompact = true
			healthyOpts.VisitedBytes = 1 << 20
			healthy := concheck.Check(compile(t, src, 0), healthyOpts)
			tinyOpts := base
			tinyOpts.VisitedCompact = true
			tinyOpts.VisitedBytes = 64
			tiny := concheck.Check(compile(t, src, 0), tinyOpts)

			if healthy.States > exact.States {
				t.Errorf("seed %d workers %d: healthy compact explored more states (%d) than exact (%d)",
					seed, w, healthy.States, exact.States)
			}
			if tiny.States > exact.States {
				t.Errorf("seed %d workers %d: starved compact explored more states (%d) than exact (%d)",
					seed, w, tiny.States, exact.States)
			}
			if exact.Verdict == concheck.ResourceBound {
				continue
			}
			// ~2^20 filter bits for a few thousand states: the chance of
			// any false positive is negligible, so the verdicts must match.
			if healthy.Verdict != exact.Verdict {
				t.Errorf("seed %d workers %d: healthy compact verdict %v, exact %v\n%s",
					seed, w, healthy.Verdict, exact.Verdict, src)
			}
			if exact.Verdict == concheck.Error {
				errors++
			}
			// Pruning cannot fabricate a trace: a failure the starved
			// filter reports must exist in the exact search too.
			if tiny.Verdict == concheck.Error && exact.Verdict != concheck.Error {
				t.Errorf("seed %d workers %d: starved compact invented a failure\n%s", seed, w, src)
			}
			if healthy.Memory == nil || healthy.Memory.VisitedMode != "compact" {
				t.Errorf("seed %d workers %d: compact run missing memory diagnostics: %+v",
					seed, w, healthy.Memory)
			}
		}
	}
	if errors == 0 {
		t.Error("no erroring programs; verdict preservation vacuous")
	}
}
