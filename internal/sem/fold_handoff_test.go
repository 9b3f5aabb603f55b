package sem

import "testing"

// Tests for the base handoff: a search hands a state that nothing else
// references to Folder.FoldOwned, which steps it in place from the first
// micro step. The result must be the unowned fold's, raw for raw, and
// the in-place writes must stay inside the components the base owns.

// TestFoldOwnedBaseMatchesUnowned explores each subject the way the
// engines do: a sole-live state popped off the stack is handed to
// FoldOwned, every other state is folded unowned thread by thread. At
// every fold it checks that
//   - the unowned fold leaves its input untouched;
//   - an owned fold of a DeepClone of the input, which owns every
//     component, equals the unowned fold raw-exactly (outcomes, PrefixIdx,
//     OutIdx, Stepped, Failure);
//   - handing the walk's own state over gives that same result, although
//     the state shares components with its siblings and ancestors;
//   - every state still on the stack, handed out earlier and not yet
//     popped, equals the deep copy made when it was pushed.
func TestFoldOwnedBaseMatchesUnowned(t *testing.T) {
	const maxStates = 250
	handed := 0
	var f Folder
	for _, sub := range foldSubjects(t) {
		type item struct {
			s    *State
			copy *State
		}
		init := NewState(sub.c)
		seen := map[uint64]bool{init.FingerprintHash(): true}
		stack := []item{{init, init.DeepClone()}}
		calls := 0
		for len(stack) > 0 && len(seen) < maxStates {
			s := stack[len(stack)-1].s
			stack = stack[:len(stack)-1]
			for ti := range s.Threads {
				if s.Threads[ti].Done() {
					continue
				}
				limit := foldLimits[calls%len(foldLimits)]
				calls++
				var g MacroResult
				sole := s.SoleLive(ti)
				if sole {
					// The reference fold runs on a deep copy, which leaves
					// s's stamps alone, so s still owns what it owned
					// when it was pushed.
					in := s.DeepClone()
					w := MacroStep(in, ti, limit)
					if !rawStateEqual(in, s) {
						t.Fatalf("%s: unowned fold changed its input state", sub.name)
					}
					if d := new(Folder).FoldOwned(s.DeepClone(), ti, limit); !macroResultsEqual(&d, &w) {
						t.Fatalf("%s: owned fold of a deep copy (limit %d) differs from the unowned fold:\n got %+v\nwant %+v",
							sub.name, limit, d, w)
					}
					g = f.FoldOwned(s, ti, limit)
					if !macroResultsEqual(&g, &w) {
						t.Fatalf("%s: owned fold of a popped state (limit %d) differs from the unowned fold:\n got %+v\nwant %+v",
							sub.name, limit, g, w)
					}
					handed++
				} else {
					before := s.DeepClone()
					g = f.Fold(s, ti, limit)
					if !rawStateEqual(s, before) {
						t.Fatalf("%s: unowned fold changed its input state", sub.name)
					}
				}
				if g.Failure == nil {
					for _, out := range g.Outcomes {
						if fp := out.FingerprintHash(); !seen[fp] {
							seen[fp] = true
							stack = append(stack, item{out, out.DeepClone()})
						}
					}
				}
				for i, it := range stack {
					if !rawStateEqual(it.s, it.copy) {
						t.Fatalf("%s: stacked state %d changed after a fold of thread %d", sub.name, i, ti)
					}
				}
				if sole {
					break // s is handed over: its one live thread is stepped
				}
			}
		}
	}
	if handed == 0 {
		t.Fatal("the walks handed no state to a fold")
	}
}

// ownedTopFrameBase returns a state the way the engines pop one after a
// choice: a COW clone of base that has taken write access to thread 0's
// top frame, so it owns the threads spine, the thread, the frame spine,
// the frame and its locals, and shares nothing else it could write with
// base.
func ownedTopFrameBase(base *State) *State {
	s := base.Clone()
	s.MutableTopFrame(0)
	return s
}

// TestFoldOwnedBaseCopiesNothing: handing a fold a base that owns its top
// frame saves every copy the unowned fold makes at its first step. Over a
// straight run of local assignments the owned fold's one allocation is
// the exact-size PrefixIdx copy the search keeps: no State, Thread,
// frame or locals is copied.
func TestFoldOwnedBaseCopiesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 20
	c := compile(t, straightLocals(8))
	base := NewState(c)
	var f Folder
	allocs := func(owned bool) float64 {
		// AllocsPerRun calls the function once more than runs to warm up;
		// each call consumes a fresh base, built outside the count.
		bases := make([]*State, runs+1)
		for i := range bases {
			bases[i] = ownedTopFrameBase(base)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			s := bases[i]
			i++
			if owned {
				f.FoldOwned(s, 0, 0)
			} else {
				f.Fold(s, 0, 0)
			}
		})
	}
	if mr := f.FoldOwned(ownedTopFrameBase(base), 0, 0); mr.Failure != nil || mr.Blocked || len(mr.PrefixIdx) < 16 {
		t.Fatalf("fold stopped early: %+v", mr)
	}
	owned, unowned := allocs(true), allocs(false)
	if owned != 1 {
		t.Errorf("owned fold allocates %v times, want 1 (the PrefixIdx copy); the unowned fold allocates %v", owned, unowned)
	}
	if unowned <= owned {
		t.Errorf("unowned fold allocates %v times, no more than the owned fold's %v", unowned, owned)
	}
}

// BenchmarkFold folds a Table 1 race harness's first sole-live decision
// state, taken as the engines pop it (owning its top frame), with the
// base handed over (owned) or not (unowned). Both arms build the base
// the same way inside the loop; the difference is the handoff.
func BenchmarkFold(b *testing.B) {
	c := harnessCompiled(b, "tracedrv", "StopEvent")
	mr := MacroStep(NewState(c), 0, 0)
	if mr.Failure != nil || len(mr.Outcomes) == 0 || !mr.Outcomes[0].SoleLive(0) {
		b.Fatalf("no sole-live decision state after the first fold: %+v", mr)
	}
	base := mr.Outcomes[0]
	for _, owned := range []bool{false, true} {
		name := "unowned"
		if owned {
			name = "owned"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var f Folder
			for b.Loop() {
				s := ownedTopFrameBase(base)
				if owned {
					f.FoldOwned(s, 0, 0)
				} else {
					f.Fold(s, 0, 0)
				}
			}
		})
	}
}
