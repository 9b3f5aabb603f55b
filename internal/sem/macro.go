package sem

import "slices"

// Macro-step compression: the SPIN-style statement-merging optimization.
//
// The KISS transformation inflates every visible statement with
// instrumentation (the choice{skip [] RAISE} prefix, raise-flag tests,
// unwinding returns), and statements over private locals run straight
// through, so most transitions of the transformed program have exactly
// one successor. A search that stores and fingerprints a state after every
// micro-statement pays clone, hash, and visited-set costs for states that
// carry no decision. MacroStep folds a maximal deterministic run into a
// single transition: it repeatedly applies Step while the transition is
// deterministic and records the successor index taken at each position,
// so a search can replay the run to rebuild an error trace bit-identically.
//
// A run keeps folding only while, after each micro step:
//
//   - the step neither failed nor blocked (failures and blocks must
//     surface exactly where the per-statement search surfaces them);
//   - exactly one successor branch is live (see the infeasible-branch
//     pruning below);
//   - thread ti is the sole live thread of the successor (any other live
//     thread makes the successor a scheduling point that an interleaving
//     search must store and branch on).
//
// Infeasible-branch pruning: the lowering of if/iter produces
// choice{assume(c);...}[]{assume(!c);...}, so a nondeterministic jump
// routinely has branches that are dead on arrival. When a step has more
// than one successor, a branch is pruned if its next instruction is an
// assume whose condition cleanly evaluates to false and no other thread is
// live to change it — stepping such a state
// can only ever block, so the per-statement search stores it, steps it
// once, and discards it without any observable effect. Branches whose
// assume condition fails to evaluate are kept: the per-statement search
// would report that evaluation error as a failure, and pruning them would
// lose it. When pruning leaves exactly one live branch (the common case
// for the raise-flag unwinding tests), the run keeps folding through it.
const (
	// MaxMacroRun caps the number of micro steps folded into one macro
	// step. It guards against deterministic infinite loops (which the
	// per-statement search would also never finish, but would at least
	// keep hitting budget checks); it is set far above the deterministic
	// run lengths real programs produce so that loop-free programs never
	// hit it, keeping the set of stored states independent of fold-entry
	// points.
	MaxMacroRun = 4096
)

// MacroResult is the outcome of one macro step. The embedded StepResult
// carries the final micro step's failure/block/outcome information, with
// Outcomes reduced to the live branches; OutIdx maps each surviving
// outcome to its index in the unpruned outcome list (searches that need
// the per-statement successor order — the parallel BFS — use it as the
// tie-breaking key). PrefixIdx holds the unpruned successor index taken
// at each folded position of the deterministic run, in order: together
// with OutIdx it is the path a search replays (Step by Step from the
// state the fold started at) to rebuild the run's events for a
// counterexample trace. Stepped counts Step invocations, including the
// final one.
type MacroResult struct {
	StepResult
	OutIdx    []int32
	PrefixIdx []int32
	Stepped   int
}

// Folder is a search worker's fold scratch, owned by the worker the way
// its FPHasher is: the outcome buffer every micro step appends into, the
// surviving branches' indices of a pruned jump (or the identity indices
// of an unpruned step), and the successor-index accumulator. A micro step
// with one successor thus allocates no slice, and a long run's growth
// lands in buffers the next fold reuses.
//
// A result's Outcomes and OutIdx point into these buffers and stay valid
// until the folder's next fold; a search consumes them before stepping
// again. PrefixIdx is an exact-size copy, because search nodes keep it.
// A Folder must not be used by two goroutines at once.
type Folder struct {
	outs []*State
	keep []int32
	pidx []int32
}

// MacroStep folds a maximal deterministic run of thread ti starting at s
// into one transition with a fresh Folder, so the result owns its slices.
// limit bounds the number of micro steps taken (callers cap it with the
// remaining depth/step budget); limit <= 0 means MaxMacroRun. The thread
// must not be done. s is not mutated; ownership of the returned outcome
// states passes to the caller exactly as with Step. A search that holds
// the only reference to s hands it over with Folder.FoldOwned instead,
// which may step s itself in place.
func MacroStep(s *State, ti, limit int) MacroResult {
	return new(Folder).Fold(s, ti, limit)
}

// Fold is MacroStep through f's buffers: s is not mutated, and the
// result's Outcomes and OutIdx are valid until f's next fold.
func (f *Folder) Fold(s *State, ti, limit int) MacroResult {
	return f.fold(s, ti, limit, false)
}

// FoldOwned is Fold for a base the caller hands over: nothing else may
// reference s, and the caller must not use s afterwards. The fold then
// steps s itself in place from its first micro step (see step), so s
// may become one of the outcomes, or be left partly updated by a failed
// step. The copy-on-write stamps still confine the in-place writes to
// the components s owns, so states that share the rest with s — its
// siblings and its ancestors — are untouched.
func (f *Folder) FoldOwned(s *State, ti, limit int) MacroResult {
	return f.fold(s, ti, limit, true)
}

// fold folds thread ti's run from s; owned reports that the fold owns s
// outright. Every state after the first step is the fold's own, so owned
// holds from then on whatever the caller passed.
func (f *Folder) fold(s *State, ti, limit int, owned bool) MacroResult {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	var mr MacroResult
	pidx := f.pidx[:0]
	cur := s
	for {
		sr, outs, idxs := f.step(cur, ti, owned)
		mr.Stepped++
		if sr.Failure != nil || sr.Blocked {
			mr.StepResult = sr
			break
		}
		if len(outs) != 1 || !outs[0].SoleLive(ti) || mr.Stepped >= limit {
			mr.StepResult = sr
			mr.Outcomes = outs
			if idxs == nil {
				idxs = f.identity(len(outs))
			}
			mr.OutIdx = idxs
			break
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		pidx = append(pidx, idx0)
		cur = outs[0]
		owned = true
	}
	if len(pidx) > 0 {
		mr.PrefixIdx = slices.Clone(pidx)
	}
	f.pidx = pidx
	return mr
}

// identity returns [0, 1, ..., n-1] in f's index buffer, which an
// unpruned step leaves unused.
func (f *Folder) identity(n int) []int32 {
	f.keep = f.keep[:0]
	for i := range n {
		f.keep = append(f.keep, int32(i))
	}
	return f.keep
}

// step takes one micro step of thread ti from cur and, when it has
// several successors, reduces them to the live branches exactly as
// pruneInfeasible does. idxs maps the surviving outcomes to their
// unpruned indices; it is nil when no pruning ran. With owned set the
// fold owns cur (see the package-level step) and a single successor
// reuses it. The outcomes and indices may live in f's buffers, valid
// until the next step.
//
// Only choice branches are pruned: a deterministic continuation into a
// dead assume instead folds to its blocked endpoint, so the block (and
// concheck's deadlock accounting) surfaces exactly as in the
// per-statement search.
func (f *Folder) step(cur *State, ti int, owned bool) (sr StepResult, outs []*State, idxs []int32) {
	if fr := cur.Threads[ti].Top(); fr != nil && fr.PC < len(fr.CF.Code) {
		if in := &fr.CF.Code[fr.PC]; in.Op == OpNondetJump && len(in.Targets) > 1 {
			f.outs, f.keep = stepNondetPruned(cur, ti, owned, f.outs[:0], f.keep[:0])
			return StepResult{Outcomes: f.outs}, f.outs, f.keep
		}
	}
	sr = step(cur, ti, owned, f.outs[:0], nil)
	if sr.Outcomes != nil {
		f.outs = sr.Outcomes // keep the buffer as a failed or blocked step drops it
	}
	outs = sr.Outcomes
	if sr.Failure == nil && !sr.Blocked && len(outs) > 1 {
		outs, idxs = pruneInfeasible(outs, ti)
	}
	return sr, outs, idxs
}

// stepNondetPruned is Step followed by pruneInfeasible for an
// OpNondetJump with several targets, without cloning the branches that
// pruning drops. A jump changes only the stepped frame's PC, so each
// branch's assume is evaluated on s itself, in branch order. Survivors
// are cloned, except that when the fold owns s the last survivor reuses
// s itself. The survivors and their indices are appended to the empty
// slices outs and keep.
func stepNondetPruned(s *State, ti int, owned bool, outs []*State, keep []int32) ([]*State, []int32) {
	fr := s.Threads[ti].Top()
	in := &fr.CF.Code[fr.PC]
	// Liveness is untouched by a jump, so the successors are sole-live
	// exactly when s is.
	sole := s.SoleLive(ti)
	for i, target := range in.Targets {
		if sole && falseAssumeAt(s, fr, resolvePC(fr.CF.Code, target)) {
			continue
		}
		keep = append(keep, int32(i))
	}
	for k, i := range keep {
		ns := s
		if !owned || k < len(keep)-1 {
			ns = s.Clone()
		}
		ns.MutableTopFrame(ti).PC = resolvePC(fr.CF.Code, in.Targets[i])
		outs = append(outs, ns)
	}
	return outs, keep
}

// pruneInfeasible drops outcomes that are dead on arrival: the stepped
// thread is the sole live thread and sits at an assume whose condition
// cleanly evaluates to false. The returned index slice maps survivors to
// their original positions.
func pruneInfeasible(outs []*State, ti int) ([]*State, []int32) {
	live := outs[:0:0]
	idxs := make([]int32, 0, len(outs))
	for i, out := range outs {
		if out.SoleLive(ti) && nextIsFalseAssume(out, ti) {
			continue
		}
		live = append(live, out)
		idxs = append(idxs, int32(i))
	}
	return live, idxs
}

// SoleLive reports whether thread ti is live and every other thread of s
// is done. A search that holds the only reference to such a state hands
// it to Folder.FoldOwned: ti is the only thread it steps there.
func (s *State) SoleLive(ti int) bool {
	for i := range s.Threads {
		if i == ti {
			if s.Threads[i].Done() {
				return false
			}
		} else if !s.Threads[i].Done() {
			return false
		}
	}
	return true
}

// nextIsFalseAssume reports whether thread ti's next instruction is an
// assume whose condition cleanly evaluates to false in s. Evaluation is
// read-only (Step itself evaluates assume conditions before cloning); an
// evaluation error reports false so the branch is kept and the error
// surfaces exactly where the per-statement search would report it.
func nextIsFalseAssume(s *State, ti int) bool {
	fr := s.Threads[ti].Top()
	return fr != nil && falseAssumeAt(s, fr, fr.PC)
}

// falseAssumeAt reports whether instruction pc of fr's function is an
// assume whose condition cleanly evaluates to false in s, with fr's
// locals in scope (fr.PC itself plays no part in evaluation).
func falseAssumeAt(s *State, fr *Frame, pc int) bool {
	if pc >= len(fr.CF.Code) {
		return false
	}
	in := &fr.CF.Code[pc]
	if in.Op != OpAssume {
		return false
	}
	ok, err := s.cond(fr, in.x)
	return err == nil && !ok
}
