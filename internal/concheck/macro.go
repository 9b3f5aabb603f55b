package concheck

import "repro/internal/sem"

// Macro-step compression (sem.MacroStep) folds each maximal deterministic
// run into one transition, so the search stores, fingerprints, and
// visited-checks only decision-point states. Folding is gated on the
// stepped thread being the sole live thread of both the current state
// and the successor (sem.MacroStep enforces it), so multi-threaded states
// — the scheduling points whose interleavings this checker exists to
// cover — never fold and the explored interleaving set is untouched. What
// compresses are the purely sequential stretches: the run-up before
// threads spawn and the run-down after all but one finish, which the KISS
// instrumentation inflates most — and the whole of a one-threaded
// program, such as every KISS translation the sequential checker runs.
//
// Both engines take their successors from cStep: sem.MacroStep, or under
// DisableMacroSteps sem.Step as a one-step MacroResult. The step modes
// then differ only where a fold can span several micro steps:
//
//   - checkDFS, the depth-first search. For a sole-live state the
//     per-thread loop degenerates to one thread, and the per-statement
//     search pops a just-pushed single successor immediately, so it
//     already traverses deterministic runs contiguously; folding them
//     changes which states are *stored* but not the traversal order, and
//     the fold limit is capped by the remaining depth/step budget, so the
//     verdict, failure position, trace, and MaxSteps/MaxDepth trip points
//     are identical to the per-statement search.
//
//   - checkLevel, the breadth-first level engine (parallel.go). Folded
//     edges span several micro depths, so a flat level queue would order
//     states by *decision* depth and change which failure is "shortest".
//     Instead the frontier is a bucket queue keyed by micro depth, each
//     bucket drained in arrival order, and a failure discovered mid-run
//     at micro depth F is held as a candidate: it is reported before
//     bucket F is drained, once every stored state shallower than F has
//     been expanded. The shallowest candidate wins, the first found on a
//     tie. The verdict and the trace length are the per-statement BFS's;
//     which of several equally short failures is reported, and so the
//     trace itself, may differ, because a fold reaches a bucket ahead of
//     siblings that the per-statement search would have put first.
//
// Soundness of the fold (see DESIGN.md): a deterministic run has no
// branching, so its intermediate states can reach exactly the suffix of
// the run; storing only the endpoints preserves the reachable decision
// states and every failure. A run re-executed through an intermediate
// state another path also crosses re-derives the same suffix and is
// pruned at the endpoint by the visited set.

// cMacroLimit caps a fold by the remaining depth and step budget so that
// failures and budget trips land on exactly the transition where the
// per-statement search puts them.
func cMacroLimit(opts Options, depth, steps int) int {
	limit := sem.MaxMacroRun
	if opts.MaxDepth > 0 {
		if r := opts.MaxDepth - depth; r < limit {
			limit = r
		}
	}
	if opts.MaxSteps > 0 {
		if r := opts.MaxSteps - steps; r < limit {
			limit = r
		}
	}
	return limit
}

// cStep is the engines' one step function: a fold through f of thread
// ti's deterministic run from st up to limit micro steps, or with perStmt
// (DisableMacroSteps) sem.Step as a one-step MacroResult (no folded
// prefix, outcome k at raw index k). With owned set the engine hands st
// to the fold (sem.Folder.FoldOwned) and must not use it afterwards; the
// per-statement reference mode ignores it and never steps in place.
func cStep(f *sem.Folder, st *sem.State, ti, limit int, perStmt, owned bool) sem.MacroResult {
	if !perStmt {
		if owned {
			return f.FoldOwned(st, ti, limit)
		}
		return f.Fold(st, ti, limit)
	}
	mr := sem.MacroResult{StepResult: sem.Step(st, ti), Stepped: 1}
	mr.OutIdx = make([]int32, len(mr.Outcomes))
	for k := range mr.OutIdx {
		mr.OutIdx[k] = int32(k)
	}
	return mr
}

// cProgressed reports whether a step that neither failed nor blocked
// counts as progress for the Deadlocks diagnostic. A per-statement step
// progresses only if it has outcomes. A fold always does: pruning may
// drop every branch, but the per-statement search progressed into them.
func cProgressed(mr *sem.MacroResult, perStmt bool) bool {
	return !perStmt || len(mr.Outcomes) > 0
}

// pathEntry packs a (thread, raw successor index) pair into the one
// int32 that a padded path holds per micro step (see cAppendPath).
func pathEntry(ti, idx int32) int32 {
	return ti<<16 | idx
}

// cMacroCand is a mid-run failure at micro depth depth, found by folding
// thread ti from node nd through the successor indices prefixIdx, and
// deferred until every stored state shallower than depth has been
// expanded.
type cMacroCand struct {
	depth     int
	nd        *node
	ti        int
	prefixIdx []int32
	fail      *sem.Failure
}

func cFailFromCand(c *sem.Compiled, res *Result, cd *cMacroCand) *Result {
	return cFailAt(c, res, cd.nd, cd.ti, cd.prefixIdx, cd.fail)
}
