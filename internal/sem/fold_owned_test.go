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
// match the clone-per-step reference folds (fold_ref_test.go) exactly,
// leave every state they were handed untouched, and record the same memo
// entries.

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

// foldArm is one configuration of the fold entry point: with or without
// the fold memo.
type foldArm struct {
	name string
	memo bool
}

var foldArms = []foldArm{{name: "bare"}, {name: "memo", memo: true}}

// newFoldMemo returns one side's memo table, nil for the bare arm.
func newFoldMemo(a foldArm) *FoldMemo {
	if !a.memo {
		return nil
	}
	return NewFoldMemo(0, false)
}

func fold(memo *FoldMemo, s *State, ti, limit int, ref bool) MacroResult {
	if ref {
		return refMacroStepMemo(s, ti, limit, memo)
	}
	return MacroStepMemo(s, ti, limit, memo)
}

// foldLimits cycles the fold limits so limit-cut runs (Limited) are
// exercised next to natural ones.
var foldLimits = []int{0, 0, 3, 0, 11}

// TestFoldOwnedMatchesReference explores each subject by macro steps and
// at every expansion runs the production fold and the reference fold on
// the same input, each with its own tables. The results must be equal
// raw (outcome states, events, Prefix, PrefixIdx, OutIdx, Stepped,
// Limited, failure), the memo tables must hold the same entries with the
// same footprints and deltas, the input must be unchanged after both folds,
// and at the end every state handed out or taken in must still equal the
// deep copy made when it was first seen.
func TestFoldOwnedMatchesReference(t *testing.T) {
	const maxStates = 250
	var memoHits int64
	for _, sub := range foldSubjects(t) {
		for _, arm := range foldArms {
			name := sub.name + "/" + arm.name
			got, want := newFoldMemo(arm), newFoldMemo(arm)
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
					g := fold(got, s, ti, limit, false)
					if !rawStateEqual(s, before) {
						t.Fatalf("%s: fold changed its input state", name)
					}
					w := fold(want, s, ti, limit, true)
					if !rawStateEqual(s, before) {
						t.Fatalf("%s: reference fold changed its input state", name)
					}
					if !macroResultsEqual(&g, &w) {
						t.Fatalf("%s: fold of thread %d (limit %d) differs from the reference:\n got %+v\nwant %+v",
							name, ti, limit, g, w)
					}
					if g.Failure != nil {
						continue
					}
					for _, out := range g.Outcomes {
						if out.State.rec != nil {
							t.Fatalf("%s: outcome state escaped with a recorder", name)
						}
						keep(out.State)
						if fp := out.State.FingerprintHash(); !seen[fp] {
							seen[fp] = true
							stack = append(stack, out.State)
						}
					}
				}
			}
			for i, k := range all {
				if !rawStateEqual(k.s, k.copy) {
					t.Fatalf("%s: state %d changed after it was handed out", name, i)
				}
			}
			if got != nil {
				compareMemos(t, name, got, want)
				memoHits += got.Stats().Hits
			}
		}
	}
	// The table comparisons are only as strong as the traffic they saw.
	if memoHits == 0 {
		t.Fatal("the walk never replayed a memo entry")
	}
	t.Logf("memo hits %d", memoHits)
}

// compareMemos requires both sides' memo tables to agree on counters and
// on every entry, in LRU order.
func compareMemos(t *testing.T, name string, got, want *FoldMemo) {
	t.Helper()
	gs, ws := got.Stats(), want.Stats()
	if gs != ws {
		t.Fatalf("%s: memo stats %+v, reference %+v", name, gs, ws)
	}
	if gs.AuditMismatches != 0 {
		t.Fatalf("%s: %d memo audit mismatches", name, gs.AuditMismatches)
	}
	ge, we := memoEntries(got), memoEntries(want)
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: memo entries differ from the reference's (%d vs %d)", name, len(ge), len(we))
	}
}

// memoEntryView is a memo entry without its table bookkeeping.
type memoEntryView struct {
	ctrl      uint64
	reads     []memoRead
	ts        []Pending
	stepped   int
	limited   bool
	prefix    []Event
	prefixIdx []int32
	blocked   bool
	failure   *Failure
	outs      []outcomeDelta
	outIdx    []int32
}

func memoEntries(m *FoldMemo) []memoEntryView {
	var out []memoEntryView
	for i := range m.shards {
		for e := m.shards[i].head; e != nil; e = e.next {
			outs := make([]outcomeDelta, len(e.outs))
			for j, d := range e.outs {
				d.globals = sortedSlots(d.globals)
				d.objFields = sortedFields(d.objFields)
				d.frames = append([]frameDiff(nil), d.frames...)
				for k := range d.frames {
					d.frames[k].slots = sortedSlots(d.frames[k].slots)
				}
				outs[j] = d
			}
			out = append(out, memoEntryView{e.ctrl, e.reads, e.ts, e.stepped, e.limited,
				e.prefix, e.prefixIdx, e.blocked, e.failure, outs, e.outIdx})
		}
	}
	return out
}

// sortedSlots and sortedFields return sorted copies of a delta's write
// lists. Equal-value writes join a delta in the recorder's map order, so
// two recordings of the same fold may list the same writes differently.
func sortedSlots(ws []slotWrite) []slotWrite {
	ws = slices.Clone(ws)
	slices.SortFunc(ws, func(a, b slotWrite) int { return int(a.idx - b.idx) })
	return ws
}

func sortedFields(ws []objFieldWrite) []objFieldWrite {
	ws = slices.Clone(ws)
	slices.SortFunc(ws, func(a, b objFieldWrite) int {
		if a.obj != b.obj {
			return int(a.obj - b.obj)
		}
		return int(a.field - b.field)
	})
	return ws
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
				want := Step(s, ti)
				got := step(s.Clone(), ti, true)
				if !stepResultsEqual(got, want) {
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
						gOuts, gIdx := stepNondetPruned(in, ti, owned)
						if !reflect.DeepEqual(gIdx, wIdx) || !outcomesEqual(gOuts, wOuts) {
							t.Fatalf("%s: stepNondetPruned(owned=%v) = %v, Step+pruneInfeasible = %v", sub.name, owned, gIdx, wIdx)
						}
					}
				}
				if !rawStateEqual(s, before) {
					t.Fatalf("%s: stepping changed the input state", sub.name)
				}
				for _, out := range want.Outcomes {
					if fp := out.State.FingerprintHash(); !seen[fp] {
						seen[fp] = true
						stack = append(stack, out.State)
					}
				}
			}
		}
	}
	if jumps == 0 {
		t.Fatal("the walks met no nondeterministic jump")
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

func outcomesEqual(a, b []Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Event != b[i].Event || !rawStateEqual(a[i].State, b[i].State) {
			return false
		}
	}
	return true
}
