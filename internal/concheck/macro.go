package concheck

import (
	"bytes"

	"repro/internal/sem"
)

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
//     Instead the macro search's frontier is a bucket queue keyed by micro
//     depth, each bucket sorted by hop key, which orders it as the padded
//     (thread, successor-index) path does — exactly the per-statement
//     search's within-level arrival order — and a failure discovered
//     mid-run at micro depth F is held as a candidate until every stored
//     state shallower than F has been expanded, then reported lex-first
//     among depth-F competitors. That reproduces the per-statement BFS's
//     first failure bit-for-bit.
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

// cStep is the engines' one step function: sem.MacroStep, folding thread
// ti's deterministic run from st up to limit micro steps, or with perStmt
// (DisableMacroSteps) sem.Step as a one-step MacroResult (no folded
// prefix, outcome k at raw index k).
func cStep(st *sem.State, ti, limit int, perStmt bool) sem.MacroResult {
	if !perStmt {
		return sem.MacroStep(st, ti, limit)
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

// pathEntry packs a (thread, raw successor index) pair into one ordered
// key: the per-statement BFS emits an item's successors in ascending
// (thread, index) order, which this encoding preserves.
func pathEntry(ti, idx int32) int32 {
	return ti<<16 | idx
}

// cPathLess is lexicographic order on padded (thread, successor-index)
// paths; folded positions use the folding thread's id. The engines
// compare key-encoded hop keys with bytes.Compare instead (see
// cAppendHopKey); cPathLess is the specification that order is tested
// against.
func cPathLess(a, b []int32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// cMacroCand is a mid-run failure deferred until every stored state
// shallower than its micro depth has been expanded. key is the origin
// node's hop key plus the failing thread's first folded entry. Only a
// sole-live item folds, and its failing fold is its only expansion, so
// nothing at the candidate's depth descends from the origin: the key and
// a frame's (or another candidate's) first differ under their lowest
// common ancestor, where the padded paths do.
type cMacroCand struct {
	depth     int
	key       []byte
	nd        *node
	ti        int
	prefixIdx []int32
	fail      *sem.Failure
}

func cMinCand(cands []cMacroCand) int {
	h := -1
	for i := range cands {
		if h < 0 || cands[i].depth < cands[h].depth ||
			(cands[i].depth == cands[h].depth && bytes.Compare(cands[i].key, cands[h].key) < 0) {
			h = i
		}
	}
	return h
}

func cFailFromCand(c *sem.Compiled, res *Result, cd *cMacroCand) *Result {
	return cFailAt(c, res, cd.nd, cd.ti, cd.prefixIdx, cd.fail)
}

// cDrainHook, when set, sees every chunk the macro level search drains,
// with its hop keys; tests use it to check the bucket order.
var cDrainHook func(depth int, chunk []searchState, keys [][]byte)

// SetDrainHook installs f as the drain hook, handing it each drained
// frame's padded path as read back from its spill encoding (nil removes
// it). It lets the tests of seqcheck, which runs on these engines, check
// the bucket order.
func SetDrainHook(f func(depth int, paths [][]int32, keys [][]byte)) {
	if f == nil {
		cDrainHook = nil
		return
	}
	cDrainHook = func(depth int, chunk []searchState, keys [][]byte) {
		paths := make([][]int32, len(chunk))
		for i, s := range chunk {
			buf, _ := cAppendPaddedPath(nil, nil, s.nd)
			path, rest := cDecodePaddedPath(buf)
			if len(rest) != 0 {
				panic("concheck: padded path encoding has trailing bytes")
			}
			paths[i] = path
		}
		f(depth, paths, keys)
	}
}
