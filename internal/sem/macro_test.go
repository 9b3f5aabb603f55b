package sem

import (
	"strings"
	"testing"
)

// stepEvents runs the per-statement search of a single-threaded
// deterministic program, returning the event sequence and final state.
func stepEvents(t *testing.T, s *State, ti int) ([]Event, *State) {
	t.Helper()
	var events []Event
	for i := 0; i < MaxMacroRun; i++ {
		if s.Threads[ti].Done() {
			return events, s
		}
		sr, evs := StepEvents(s, ti)
		if sr.Failure != nil || sr.Blocked {
			return events, s
		}
		if len(sr.Outcomes) != 1 {
			t.Fatalf("program is not deterministic: %d outcomes at step %d", len(sr.Outcomes), i)
		}
		events = append(events, evs[0])
		s = sr.Outcomes[0]
	}
	t.Fatal("runaway execution")
	return nil, nil
}

// TestMacroStepFoldsStraightLine: on a deterministic single-threaded
// program one macro step reproduces the per-statement run exactly — same
// event sequence, same final state, same number of micro steps.
func TestMacroStepFoldsStraightLine(t *testing.T) {
	src := `var x; var y; func main() { x = 1; y = x + 1; x = y * 2; }`
	c := compile(t, src)

	wantEvents, wantFinal := stepEvents(t, NewState(c), 0)

	mr := MacroStep(NewState(c), 0, 0)
	if mr.Failure != nil || mr.Blocked {
		t.Fatalf("unexpected failure/block: %+v", mr.StepResult)
	}
	if len(mr.Outcomes) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(mr.Outcomes))
	}
	got := replayIdx(t, NewState(c), 0, append(mr.PrefixIdx, mr.OutIdx[0]))
	if len(got) != len(wantEvents) {
		t.Fatalf("folded %d events, per-statement run has %d", len(got), len(wantEvents))
	}
	for i := range got {
		if got[i] != wantEvents[i] {
			t.Errorf("event %d: folded %+v, per-statement %+v", i, got[i], wantEvents[i])
		}
	}
	if mr.Stepped != len(wantEvents) {
		t.Errorf("Stepped = %d, want %d", mr.Stepped, len(wantEvents))
	}
	if g, w := mr.Outcomes[0].FingerprintString(), wantFinal.FingerprintString(); g != w {
		t.Errorf("final state diverged:\n folded %s\n stepped %s", g, w)
	}
	if !mr.Outcomes[0].Threads[0].Done() {
		t.Error("folded run did not reach thread completion")
	}
}

// TestMacroStepPrunesDeadBranch: a concrete if lowers to a choice whose
// infeasible assume-branch is pruned, so the fold runs straight through
// the conditional; PrefixIdx records the surviving branch's unpruned
// index so trace ordering keys stay comparable with the per-statement
// search.
func TestMacroStepPrunesDeadBranch(t *testing.T) {
	src := `var x; func main() { x = 1; if (x == 2) { x = 3; } x = 4; }`
	c := compile(t, src)

	mr := MacroStep(NewState(c), 0, 0)
	if mr.Failure != nil || mr.Blocked {
		t.Fatalf("unexpected failure/block: %+v", mr.StepResult)
	}
	if len(mr.Outcomes) != 1 {
		t.Fatalf("fold stopped at a decision point: %d outcomes", len(mr.Outcomes))
	}
	st := mr.Outcomes[0]
	if !st.Threads[0].Done() {
		t.Fatal("fold did not consume the whole program")
	}
	if got := st.Globals[0].Text(c); got != "4" {
		t.Errorf("x = %s after fold, want 4 (else-path taken)", got)
	}
	nonZero := false
	for _, idx := range mr.PrefixIdx {
		if idx > 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Error("no folded position records a pruned-branch index > 0; pruning index tracking is broken")
	}
}

// TestMacroStepBlockedEndpoint: a deterministic run into a dead assume
// folds to its blocked endpoint — the block surfaces on the macro step
// (with the prefix up to it) exactly where the per-statement search
// blocks, which is what concheck's deadlock accounting relies on.
func TestMacroStepBlockedEndpoint(t *testing.T) {
	src := `var x; func main() { x = 0; assume(x == 1); }`
	c := compile(t, src)

	mr := MacroStep(NewState(c), 0, 0)
	if mr.Failure != nil {
		t.Fatalf("unexpected failure: %v", mr.Failure)
	}
	if !mr.Blocked {
		t.Fatalf("dead assume did not surface as Blocked: %+v", mr.StepResult)
	}
	if len(mr.PrefixIdx) == 0 {
		t.Error("blocked fold lost the deterministic prefix before the assume")
	}
}

// TestMacroStepFailureEndpoint: an assertion violation inside a
// deterministic run surfaces on the macro step with the prefix intact,
// so the reported trace replays bit-identically.
func TestMacroStepFailureEndpoint(t *testing.T) {
	src := `var x; func main() { x = 1; assert(x == 2); }`
	c := compile(t, src)

	mr := MacroStep(NewState(c), 0, 0)
	if mr.Failure == nil {
		t.Fatalf("assertion violation folded away: %+v", mr.StepResult)
	}
	if len(mr.PrefixIdx) == 0 {
		t.Error("failing fold lost the deterministic prefix before the assert")
	}
}

// TestMacroStepStopsAtSchedulingPoint: once another thread becomes live
// the successor is a scheduling point an interleaving search must store,
// so the fold must stop there rather than run through it.
func TestMacroStepStopsAtSchedulingPoint(t *testing.T) {
	src := `var x; func main() { x = 1; async f(); x = 2; x = 3; } func f() { x = 9; }`
	c := compile(t, src)

	mr := MacroStep(NewState(c), 0, 0)
	if mr.Failure != nil || mr.Blocked {
		t.Fatalf("unexpected failure/block: %+v", mr.StepResult)
	}
	if len(mr.Outcomes) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(mr.Outcomes))
	}
	st := mr.Outcomes[0]
	if len(st.Threads) < 2 || st.Threads[1].Done() {
		t.Fatal("fold stopped before the async spawned a live thread")
	}
	if st.Threads[0].Done() {
		t.Error("fold ran past the scheduling point to thread completion")
	}
}

// TestMacroStepLimit: limit = 1 degenerates to a single Step.
func TestMacroStepLimit(t *testing.T) {
	src := `var x; func main() { x = 1; x = 2; x = 3; }`
	c := compile(t, src)

	sr := Step(NewState(c), 0)
	mr := MacroStep(NewState(c), 0, 1)
	if mr.Stepped != 1 {
		t.Fatalf("Stepped = %d with limit 1", mr.Stepped)
	}
	if len(mr.PrefixIdx) != 0 {
		t.Errorf("limit-1 macro step folded a prefix: %v", mr.PrefixIdx)
	}
	if len(mr.Outcomes) != len(sr.Outcomes) {
		t.Fatalf("outcome counts differ: macro %d, step %d", len(mr.Outcomes), len(sr.Outcomes))
	}
	for i := range mr.Outcomes {
		if g, w := mr.Outcomes[i].FingerprintString(), sr.Outcomes[i].FingerprintString(); g != w {
			t.Errorf("outcome %d fingerprints differ", i)
		}
		if mr.OutIdx[i] != int32(i) {
			t.Errorf("OutIdx[%d] = %d, want identity", i, mr.OutIdx[i])
		}
	}
}

// straightLocals is a one-threaded program whose main runs n pairs of
// assignments between two locals.
func straightLocals(n int) string {
	var b strings.Builder
	b.WriteString("func main() { var a; var b; a = 0;")
	for i := 0; i < n; i++ {
		b.WriteString(" b = a + 1; a = b;")
	}
	b.WriteString(" }")
	return b.String()
}

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestFoldAllocsIndependentOfRunLength: a fold's single-successor micro
// steps allocate nothing, so folding a straight run of local
// assignments through one reused Folder costs the same number of
// allocations at any length.
func TestFoldAllocsIndependentOfRunLength(t *testing.T) {
	allocs := func(pairs int) float64 {
		c := compile(t, straightLocals(pairs))
		s := NewState(c)
		var f Folder
		mr := f.Fold(s, 0, 0)
		if mr.Failure != nil || mr.Blocked || len(mr.PrefixIdx) < 2*pairs {
			t.Fatalf("%d pairs: fold stopped early: %+v", pairs, mr)
		}
		return testing.AllocsPerRun(20, func() { f.Fold(s, 0, 0) })
	}
	if short, long := allocs(8), allocs(64); short != long {
		t.Errorf("Fold allocates %v times over 8 assignment pairs but %v over 64", short, long)
	}
}
