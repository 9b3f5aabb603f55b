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
// deterministic and accumulates the intermediate Event log so error traces
// replay bit-identically.
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
// tie-breaking key). Prefix holds the events of the folded deterministic
// run, in order, and PrefixIdx the unpruned successor index taken at each
// folded position. Stepped counts Step invocations, including the final
// one. Limited reports that the run stopped only because it hit the
// caller's limit — it would have kept folding otherwise — which the memo
// table uses to decide at which limits a recorded run may be replayed.
type MacroResult struct {
	StepResult
	OutIdx    []int32
	Prefix    []Event
	PrefixIdx []int32
	Stepped   int
	Limited   bool
}

// prefixScratch is the reusable Event-prefix accumulator of a fold. The
// growth reallocations of a long run land in the pooled buffers; the
// caller-visible Prefix/PrefixIdx are exact-size copies, so appending to
// them can never clobber a shared backing array and ownership passes to
// the search (which retains them in trace nodes) without aliasing.
type prefixScratch struct {
	ev  []Event
	idx []int32
}

var prefixPool = sync.Pool{New: func() any { return new(prefixScratch) }}

// MacroStep folds a maximal deterministic run of thread ti starting at s
// into one transition. limit bounds the number of micro steps taken
// (callers cap it with the remaining depth/step budget); limit <= 0 means
// MaxMacroRun. The thread must not be done. s is not mutated; ownership of
// the returned outcome states passes to the caller exactly as with Step.
func MacroStep(s *State, ti, limit int) MacroResult {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	return macroRun(s, ti, limit)
}

// MacroStepMemo is MacroStep with fold memoization: if memo is non-nil and
// holds a recorded run whose control point and read footprint match s, the
// fold is replayed by applying the stored write delta — no Step executes.
// A miss at a control point that has missed before runs the fold under a
// read/write recorder and stores the result; a first-visit miss runs it
// bare (most control points are never revisited, so recording them would
// be pure overhead — see FoldMemo.lookup). The replayed MacroResult is
// bit-identical to the executed one (outcome states raw-equal, same
// events, counters, and successor indices): matching is exact, and the
// memo's audit mode re-checks each hit against execution; see memo.go.
func MacroStepMemo(s *State, ti, limit int, memo *FoldMemo) MacroResult {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	if memo == nil || !othersDone(s, ti) {
		// Memo entries are recorded and replayed only at states where every
		// other thread is done (sole-live folding), so the fold-stop
		// condition is invariant across base and replay states.
		return macroRun(s, ti, limit)
	}
	e, warm := memo.lookup(s, ti, limit)
	if e != nil {
		return memo.replay(s, ti, limit, e)
	}
	memo.misses.Add(1)
	if !warm {
		return macroRun(s, ti, limit)
	}
	rec := recorderPool.Get().(*foldRecorder)
	rec.reset(s)
	s.rec = rec
	mr := macroRun(s, ti, limit)
	// Clear the recorder from every state that escapes to the search.
	s.rec = nil
	for i := range mr.Outcomes {
		mr.Outcomes[i].State.rec = nil
	}
	if !rec.aborted && mr.Stepped >= memoMinStepped {
		memo.store(s, ti, rec, &mr)
	}
	recorderPool.Put(rec)
	return mr
}

// macroRun is the folding loop shared by MacroStep and MacroStepMemo;
// limit has been normalized by the caller.
func macroRun(s *State, ti, limit int) MacroResult {
	var mr MacroResult
	ps := prefixPool.Get().(*prefixScratch)
	evs, pidx := ps.ev[:0], ps.idx[:0]
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
			// Limited only when the limit alone stopped the run: with one
			// live sole-live successor it would have kept folding.
			mr.Limited = len(outs) == 1 && soleLive(outs[0].State, ti)
			break
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		evs = append(evs, outs[0].Event)
		pidx = append(pidx, idx0)
		cur = outs[0].State
		owned = true
	}
	if len(evs) > 0 {
		mr.Prefix = make([]Event, len(evs))
		copy(mr.Prefix, evs)
		mr.PrefixIdx = make([]int32, len(pidx))
		copy(mr.PrefixIdx, pidx)
	}
	clear(evs) // drop Event string/state references held by the pooled buffer
	ps.ev, ps.idx = evs, pidx
	prefixPool.Put(ps)
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
// branch's assume is evaluated on s itself, in branch order (the order
// in which a fold recorder must observe the reads). Survivors are cloned,
// except that when the fold owns s the last survivor reuses s itself.
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

// othersDone reports whether every thread of s other than ti is done.
func othersDone(s *State, ti int) bool {
	for i := range s.Threads {
		if i != ti && !s.Threads[i].Done() {
			return false
		}
	}
	return true
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
