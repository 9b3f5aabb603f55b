package sem

import "sync"

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

// idxPool recycles a fold's successor-index accumulator. The growth
// reallocations of a long run land in the pooled buffer; the
// caller-visible PrefixIdx is an exact-size copy, so ownership passes to
// the search (which retains it in trace nodes) without aliasing.
var idxPool = sync.Pool{New: func() any { return new([]int32) }}

// MacroStep folds a maximal deterministic run of thread ti starting at s
// into one transition. limit bounds the number of micro steps taken
// (callers cap it with the remaining depth/step budget); limit <= 0 means
// MaxMacroRun. The thread must not be done. s is not mutated; ownership of
// the returned outcome states passes to the caller exactly as with Step.
func MacroStep(s *State, ti, limit int) MacroResult {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	var mr MacroResult
	buf := idxPool.Get().(*[]int32)
	pidx := (*buf)[:0]
	cur := s
	// owned reports that the fold owns cur outright (see step): true
	// for every state after the first step, never for the caller's base.
	owned := false
	for {
		sr, outs, idxs := foldStep(cur, ti, owned)
		mr.Stepped++
		if sr.Failure != nil || sr.Blocked {
			mr.StepResult = sr
			break
		}
		if len(outs) != 1 || !soleLive(outs[0].State, ti) || mr.Stepped >= limit {
			if idxs == nil {
				idxs = identityIdx(len(outs))
			}
			mr.StepResult = sr
			mr.Outcomes = outs
			mr.OutIdx = idxs
			break
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		pidx = append(pidx, idx0)
		cur = outs[0].State
		owned = true
	}
	if len(pidx) > 0 {
		mr.PrefixIdx = make([]int32, len(pidx))
		copy(mr.PrefixIdx, pidx)
	}
	*buf = pidx
	idxPool.Put(buf)
	return mr
}

// foldStep takes one micro step of thread ti from cur and, when it has
// several successors, reduces them to the live branches exactly as
// pruneInfeasible does. idxs maps the surviving outcomes to their
// unpruned indices; it is nil when no pruning ran. With owned set the
// fold owns cur (see step) and a single successor reuses it.
//
// Only choice branches are pruned: a deterministic continuation into a
// dead assume instead folds to its blocked endpoint, so the block (and
// concheck's deadlock accounting) surfaces exactly as in the
// per-statement search.
func foldStep(cur *State, ti int, owned bool) (sr StepResult, outs []Outcome, idxs []int32) {
	if fr := cur.Threads[ti].Top(); fr != nil && fr.PC < len(fr.CF.Code) {
		if in := &fr.CF.Code[fr.PC]; in.Op == OpNondetJump && len(in.Targets) > 1 {
			outs, idxs = stepNondetPruned(cur, ti, owned)
			return StepResult{Outcomes: outs}, outs, idxs
		}
	}
	sr = step(cur, ti, owned)
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
// s itself.
func stepNondetPruned(s *State, ti int, owned bool) ([]Outcome, []int32) {
	t := s.Threads[ti]
	fr := t.Top()
	in := &fr.CF.Code[fr.PC]
	ev := Event{Kind: EvStmt, ThreadID: t.ID, Fn: fr.CF.Fn.Name, Pos: in.Pos, Text: in.Text()}
	// Liveness is untouched by a jump, so the successors are sole-live
	// exactly when s is.
	sole := soleLive(s, ti)
	keep := make([]int32, 0, len(in.Targets))
	for i, target := range in.Targets {
		if sole && falseAssumeAt(s, fr, resolvePC(fr.CF.Code, target)) {
			continue
		}
		keep = append(keep, int32(i))
	}
	outs := make([]Outcome, len(keep))
	for k, i := range keep {
		ns := s
		if !owned || k < len(keep)-1 {
			ns = s.Clone()
		}
		ns.MutableTopFrame(ti).PC = resolvePC(fr.CF.Code, in.Targets[i])
		outs[k] = Outcome{State: ns, Event: ev}
	}
	return outs, keep
}

// identityIdx returns [0, 1, ..., n-1].
func identityIdx(n int) []int32 {
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return idxs
}

// pruneInfeasible drops outcomes that are dead on arrival: the stepped
// thread is the sole live thread and sits at an assume whose condition
// cleanly evaluates to false. The returned index slice maps survivors to
// their original positions.
func pruneInfeasible(outs []Outcome, ti int) ([]Outcome, []int32) {
	live := outs[:0:0]
	idxs := make([]int32, 0, len(outs))
	for i, out := range outs {
		if soleLive(out.State, ti) && nextIsFalseAssume(out.State, ti) {
			continue
		}
		live = append(live, out)
		idxs = append(idxs, int32(i))
	}
	return live, idxs
}

// soleLive reports whether thread ti is live and every other thread of s
// is done.
func soleLive(s *State, ti int) bool {
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
	ok, err := s.evalBool(fr, in.Cond)
	return err == nil && !ok
}
