package sem

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/drivers"
	ikiss "repro/internal/kiss"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/randprog"
	"repro/internal/sema"
)

// Tests for the fold-ownership rules: a fold steps its own intermediate
// states in place, never the caller's base. The production folds must
// match the clone-per-step reference folds (fold_ref_test.go) exactly
// and leave every state they were handed untouched.

// compileSource parses, checks and lowers src and, when transform is
// non-nil, applies it before compiling.
func compileSource(tb testing.TB, src string, transform func(*ast.Program) (*ast.Program, error)) *Compiled {
	tb.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		tb.Fatalf("sema: %v", err)
	}
	lower.Program(p)
	if transform != nil {
		if p, err = transform(p); err != nil {
			tb.Fatalf("transform: %v", err)
		}
	}
	c, err := Compile(p)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return c
}

// harnessCompiled is the KISS race-checking program of one Table 1 field:
// the driver's permissive harness, transformed for that field with ts
// bound 0, as the race corpus checks it.
func harnessCompiled(tb testing.TB, driver, field string) *Compiled {
	tb.Helper()
	spec := drivers.FindSpec(driver)
	if spec == nil {
		tb.Fatalf("no driver %q", driver)
	}
	src := drivers.Generate(spec).HarnessProgram(field, false)
	target := ast.RaceTarget{Record: "DEVICE_EXTENSION", Field: field}
	return compileSource(tb, src, func(p *ast.Program) (*ast.Program, error) {
		return ikiss.TransformRace(p, target, ikiss.Options{})
	})
}

// kissCompiled is the KISS assertion-checking translation of src with ts
// bound maxTS.
func kissCompiled(tb testing.TB, src string, maxTS int) *Compiled {
	tb.Helper()
	return compileSource(tb, src, func(p *ast.Program) (*ast.Program, error) {
		return ikiss.Transform(p, ikiss.Options{MaxTS: maxTS})
	})
}

// foldSubject is one program the ownership tests explore.
type foldSubject struct {
	name string
	c    *Compiled
}

// foldSubjects returns random programs (run concurrently and through the
// KISS translation), the seven assertion scenarios, and a few Table 1
// race harnesses. short trims the random population.
func foldSubjects(t *testing.T) []foldSubject {
	t.Helper()
	var subs []foldSubject
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for seed := int64(1); seed <= n; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		subs = append(subs,
			foldSubject{fmt.Sprintf("rand%d", seed), compileSource(t, src, nil)},
			foldSubject{fmt.Sprintf("rand%d-kiss", seed), kissCompiled(t, src, 1)})
	}
	for _, sc := range drivers.Scenarios() {
		subs = append(subs, foldSubject{sc.Name, kissCompiled(t, sc.Source, 2)})
	}
	for _, h := range [][2]string{
		{"tracedrv", "StopEvent"},
		{"moufiltr", "Flags"},
		{"kbdclass", drivers.FindSpec("kbdclass").Fields[0].Name},
	} {
		subs = append(subs, foldSubject{h[0] + "." + h[1], harnessCompiled(t, h[0], h[1])})
	}
	return subs
}

// foldLimits cycles the fold limits so limit-cut runs (Limited) are
// exercised next to natural ones.
var foldLimits = []int{0, 0, 3, 0, 11}

// TestFoldOwnedMatchesReference explores each subject by macro steps and
// at every expansion runs the production fold and the reference fold on
// the same input. The results must be equal raw (outcome states, events,
// PrefixIdx, OutIdx, Stepped, failure), replaying PrefixIdx from the
// input must spell the reference's folded events, the input must be
// unchanged after both folds, and at the end every state handed out or
// taken in must still equal the deep copy made when it was first seen.
func TestFoldOwnedMatchesReference(t *testing.T) {
	const maxStates = 250
	folded := 0
	for _, sub := range foldSubjects(t) {
		type kept struct {
			s    *State
			copy *State
		}
		var all []kept
		keep := func(s *State) { all = append(all, kept{s, s.DeepClone()}) }

		init := NewState(sub.c)
		keep(init)
		seen := map[uint64]bool{init.FingerprintHash(): true}
		stack := []*State{init}
		calls := 0
		for len(stack) > 0 && len(seen) < maxStates {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for ti := range s.Threads {
				if s.Threads[ti].Done() {
					continue
				}
				limit := foldLimits[calls%len(foldLimits)]
				calls++
				before := s.DeepClone()
				g := MacroStep(s, ti, limit)
				if !rawStateEqual(s, before) {
					t.Fatalf("%s: fold changed its input state", sub.name)
				}
				w, wEvs := refMacroStep(s, ti, limit)
				if !rawStateEqual(s, before) {
					t.Fatalf("%s: reference fold changed its input state", sub.name)
				}
				if !macroResultsEqual(&g, &w) {
					t.Fatalf("%s: fold of thread %d (limit %d) differs from the reference:\n got %+v\nwant %+v",
						sub.name, ti, limit, g, w)
				}
				if evs := replayIdx(t, s, ti, g.PrefixIdx); !reflect.DeepEqual(evs, wEvs) {
					t.Fatalf("%s: replayed fold events differ from the reference's:\n got %v\nwant %v", sub.name, evs, wEvs)
				}
				folded += len(g.PrefixIdx)
				if g.Failure != nil {
					continue
				}
				for _, out := range g.Outcomes {
					keep(out)
					if fp := out.FingerprintHash(); !seen[fp] {
						seen[fp] = true
						stack = append(stack, out)
					}
				}
			}
		}
		for i, k := range all {
			if !rawStateEqual(k.s, k.copy) {
				t.Fatalf("%s: state %d changed after it was handed out", sub.name, i)
			}
		}
	}
	if folded == 0 {
		t.Fatal("the walk never folded a step")
	}
}

// replayIdx steps thread ti from s along the successor indices idx,
// returning the events taken.
func replayIdx(t *testing.T, s *State, ti int, idx []int32) []Event {
	t.Helper()
	var evs []Event
	for _, i := range idx {
		sr, stepEvs := StepEvents(s, ti)
		if sr.Failure != nil || int(i) >= len(sr.Outcomes) {
			t.Fatalf("path does not replay: index %d of %d outcomes", i, len(sr.Outcomes))
		}
		evs = append(evs, stepEvs[i])
		s = sr.Outcomes[i]
	}
	return evs
}

// TestStepOwnedMatchesStep: at every state reached by the reference
// walk, stepping a private clone in place (step with owned set) yields
// the successors Step yields, raw-equal, and a nondeterministic jump's pruned step equals
// Step followed by pruneInfeasible — owned or not — while the state the
// walk keeps is never touched.
func TestStepOwnedMatchesStep(t *testing.T) {
	jumps := 0
	for _, sub := range foldSubjects(t) {
		s := NewState(sub.c)
		seen := map[uint64]bool{}
		stack := []*State{s}
		for len(stack) > 0 && len(seen) < 400 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for ti := range s.Threads {
				if s.Threads[ti].Done() {
					continue
				}
				before := s.DeepClone()
				want, wantEvs := StepEvents(s, ti)
				var gotEvs eventSink
				got := step(s.Clone(), ti, true, nil, &gotEvs)
				if !stepResultsEqual(got, want) || !reflect.DeepEqual(gotEvs.evs[:len(got.Outcomes)], wantEvs) {
					t.Fatalf("%s: owned step differs from Step", sub.name)
				}
				if fr := s.Threads[ti].Top(); fr.PC < len(fr.CF.Code) && fr.CF.Code[fr.PC].Op == OpNondetJump && len(fr.CF.Code[fr.PC].Targets) > 1 {
					jumps++
					wOuts, wIdx := pruneInfeasible(want.Outcomes, ti)
					for _, owned := range []bool{false, true} {
						in := s
						if owned {
							in = s.Clone()
						}
						gOuts, gIdx := stepNondetPruned(in, ti, owned, nil, nil)
						if !reflect.DeepEqual(gIdx, wIdx) || !outcomesEqual(gOuts, wOuts) {
							t.Fatalf("%s: stepNondetPruned(owned=%v) = %v, Step+pruneInfeasible = %v", sub.name, owned, gIdx, wIdx)
						}
					}
				}
				if !rawStateEqual(s, before) {
					t.Fatalf("%s: stepping changed the input state", sub.name)
				}
				for _, out := range want.Outcomes {
					if fp := out.FingerprintHash(); !seen[fp] {
						seen[fp] = true
						stack = append(stack, out)
					}
				}
			}
		}
	}
	if jumps == 0 {
		t.Fatal("the walks met no nondeterministic jump")
	}
}

// TestStepEventsMatchStep: at every state reached by a walk of each
// subject and every live thread, StepEvents yields the successors Step
// yields, fingerprint for fingerprint and in order, and exactly one event
// per outcome, of the stepped thread.
func TestStepEventsMatchStep(t *testing.T) {
	steps := 0
	for _, sub := range foldSubjects(t) {
		init := NewState(sub.c)
		seen := map[uint64]bool{init.FingerprintHash(): true}
		stack := []*State{init}
		for len(stack) > 0 && len(seen) < 400 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for ti := range s.Threads {
				if s.Threads[ti].Done() {
					continue
				}
				steps++
				want := Step(s, ti)
				got, evs := StepEvents(s, ti)
				if got.Blocked != want.Blocked || (got.Failure == nil) != (want.Failure == nil) ||
					len(got.Outcomes) != len(want.Outcomes) || len(evs) != len(got.Outcomes) {
					t.Fatalf("%s: StepEvents gives %d outcomes and %d events, Step %d outcomes",
						sub.name, len(got.Outcomes), len(evs), len(want.Outcomes))
				}
				for k, out := range got.Outcomes {
					if out.FingerprintHash() != want.Outcomes[k].FingerprintHash() {
						t.Fatalf("%s: outcome %d of thread %d differs from Step's", sub.name, k, ti)
					}
					if evs[k].ThreadID != s.Threads[ti].ID {
						t.Fatalf("%s: event %d names thread %d, stepped thread %d", sub.name, k, evs[k].ThreadID, s.Threads[ti].ID)
					}
				}
				for _, out := range want.Outcomes {
					if fp := out.FingerprintHash(); !seen[fp] {
						seen[fp] = true
						stack = append(stack, out)
					}
				}
			}
		}
	}
	if steps == 0 {
		t.Fatal("the walks stepped nothing")
	}
}

func stepResultsEqual(a, b StepResult) bool {
	if a.Blocked != b.Blocked || (a.Failure == nil) != (b.Failure == nil) {
		return false
	}
	if a.Failure != nil && *a.Failure != *b.Failure {
		return false
	}
	return outcomesEqual(a.Outcomes, b.Outcomes)
}

func outcomesEqual(a, b []*State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !rawStateEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// macroResultsEqual compares two MacroResults byte-for-byte (raw state
// equality, not canonical).
func macroResultsEqual(a, b *MacroResult) bool {
	if a.Stepped != b.Stepped || a.Blocked != b.Blocked {
		return false
	}
	if (a.Failure == nil) != (b.Failure == nil) {
		return false
	}
	if a.Failure != nil && *a.Failure != *b.Failure {
		return false
	}
	return slices.Equal(a.PrefixIdx, b.PrefixIdx) && slices.Equal(a.OutIdx, b.OutIdx) &&
		outcomesEqual(a.Outcomes, b.Outcomes)
}

// rawStateEqual compares two states raw — exact indices and ids, no
// canonicalization.
func rawStateEqual(a, b *State) bool {
	if len(a.Globals) != len(b.Globals) || len(a.Heap) != len(b.Heap) ||
		len(a.Threads) != len(b.Threads) || len(a.Ts) != len(b.Ts) ||
		a.nextFrameID != b.nextFrameID || a.nextThreadID != b.nextThreadID {
		return false
	}
	if !slices.Equal(a.Globals, b.Globals) {
		return false
	}
	for i := range a.Heap {
		ao, bo := a.Heap[i], b.Heap[i]
		if ao.Rec != bo.Rec || !slices.Equal(ao.Fields, bo.Fields) {
			return false
		}
	}
	for i := range a.Threads {
		at, bt := a.Threads[i], b.Threads[i]
		if at.ID != bt.ID || len(at.Frames) != len(bt.Frames) {
			return false
		}
		for j := range at.Frames {
			af, bf := at.Frames[j], bt.Frames[j]
			if af.ID != bf.ID || af.CF != bf.CF || af.PC != bf.PC || af.Result != bf.Result ||
				!slices.Equal(af.Locals, bf.Locals) {
				return false
			}
		}
	}
	for i := range a.Ts {
		if a.Ts[i].Fn != b.Ts[i].Fn || !slices.Equal(a.Ts[i].Args, b.Ts[i].Args) {
			return false
		}
	}
	return true
}
