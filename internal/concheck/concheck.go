// Package concheck is an explicit-state model checker for *concurrent*
// programs in the parallel language: it explores thread interleavings
// directly, in the style of the model checkers the KISS paper contrasts
// with (SPIN, JPF, Bogor). Its state space grows exponentially with the
// number of threads — which is exactly the blowup KISS avoids, and which
// the blowup benchmark quantifies.
//
// The checker serves three roles in this reproduction:
//
//  1. Ground truth on small programs: the unsoundness characterization
//     (Theorem 1) and the no-false-errors property are tested by comparing
//     its verdicts against the KISS pipeline's.
//  2. Context-bounded exploration: with ContextBound set it explores only
//     executions with at most that many context switches, matching the
//     paper's observation that for a 2-threaded program the transformed
//     sequential program covers all executions with at most two context
//     switches.
//  3. The baseline in the interleaving-blowup study.
package concheck

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/stats"
)

// Verdict is the outcome of a check.
type Verdict int

const (
	// Safe: all reachable states (within the context bound, if any) were
	// explored without failure.
	Safe Verdict = iota
	// Error: some interleaving fails an assertion or goes wrong.
	Error
	// ResourceBound: a search budget was exhausted first.
	ResourceBound
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Error:
		return "error"
	default:
		return "resource-bound"
	}
}

// Options configure the search. Zero values mean "unlimited" except
// ContextBound, where a negative value means unlimited and 0 means "no
// context switches" (each thread runs to completion or blocks before
// another is scheduled... note that a blocked thread forces a switch,
// which still counts against the bound).
type Options struct {
	MaxStates    int
	MaxSteps     int
	MaxDepth     int
	ContextBound int // < 0: unlimited
	// POR enables a simple sound partial-order reduction ("the model
	// checkers [SPIN, JPF, Bandera, Bogor] exploit partial-order reduction
	// techniques to reduce the number of explored interleavings" —
	// Section 7): when some thread's next instruction is invisible (it
	// reads and writes only that thread's locals and control state), only
	// that thread is expanded, since the instruction commutes with every
	// transition of every other thread. Failure reachability is preserved;
	// the Deadlocks diagnostic and ContextBound accounting are not
	// meaningful under POR and should not be combined with it.
	POR bool
	// SearchWorkers >= 1 explores interleavings with a worker pool over a
	// level-synchronized breadth-first frontier and a sharded visited set
	// (see seqcheck.Options.SearchWorkers — the design is shared). The
	// verdict, counterexample trace, and deterministic search metrics are
	// bit-identical at every worker count; 1 runs the same search on the
	// calling goroutine; 0 (the default) keeps the classic depth-first
	// sequential search. AuditFingerprints forces the sequential search.
	SearchWorkers int
	// NumShards is the visited-set shard count for the parallel search
	// (rounded up to a power of two; 0 selects visited.DefaultShards).
	NumShards int
	// FrontierBudget, when > 0, bounds the BFS frontier's resident bytes
	// by spilling frames to sorted on-disk runs under SpillDir; see
	// seqcheck.Options.FrontierBudget — the contract is shared (spilling
	// never changes the verdict, trace, or any deterministic counter).
	// Ignored by the DFS engines.
	FrontierBudget int64
	// SpillDir is where frontier runs are created (empty selects the
	// system temp directory).
	SpillDir string
	// VisitedCompact replaces the exact visited set with a blocked Bloom
	// filter; see seqcheck.Options.VisitedCompact (same unsoundness
	// direction: missed states, never false alarms). Honored by the macro
	// engines and the parallel per-statement engine; the classic
	// per-statement sequential search keeps the exact set.
	VisitedCompact bool
	// VisitedBytes sizes the compact filter (<= 0 selects
	// visited.DefaultCompactBytes).
	VisitedBytes int64
	// AuditVisited shadows the compact filter with an exact set and
	// counts real false positives in the Memory stats; ignored unless
	// VisitedCompact.
	AuditVisited bool
	// DisableMacroSteps turns off macro-step compression (sem.MacroStep),
	// restoring the per-statement search. Compression is on by default:
	// whenever a thread is the sole live thread of a state, its maximal
	// deterministic run folds into one transition and only decision-point
	// states are stored (multi-threaded states are scheduling points and
	// never fold, so interleaving coverage is untouched). The verdict,
	// failure position, and counterexample trace are identical either way;
	// States counts only stored states (compare with StatesStepped), and
	// the Deadlocks diagnostic no longer counts the infeasible
	// false-assume branch endpoints that compression prunes without
	// storing. AuditFingerprints forces compression off.
	DisableMacroSteps bool
	// Memo, when non-nil, is the fold-memoization table shared by every
	// engine of this search (sem.MacroStepMemo); see
	// seqcheck.Options.Memo. Ignored when macro steps are disabled.
	Memo *sem.FoldMemo
	// AuditFingerprints cross-checks the 64-bit visited-set hashes against
	// the canonical string encodings (see seqcheck.Options); collisions are
	// counted in Result.HashCollisions.
	AuditFingerprints bool
	// Context, when non-nil, is polled during the search; cancellation or
	// deadline expiry stops it with a ResourceBound verdict and Reason
	// ReasonCanceled/ReasonDeadline (a partial result, not an error).
	Context context.Context
	// Collector, when non-nil, receives per-iteration progress samples.
	Collector *stats.Collector
}

// ctxPollStride amortizes ctx.Err's mutex over the hot loop; the first
// poll happens on the first iteration.
const ctxPollStride = 512

// Result reports the verdict, witness trace, and statistics.
type Result struct {
	Verdict Verdict
	Failure *sem.Failure
	Trace   []sem.Event
	States  int
	Steps   int
	// StatesStepped counts the states the search traversed, including the
	// intermediate states of folded deterministic runs that macro-step
	// compression never stored (see seqcheck.Result.StatesStepped; the
	// per-statement engines leave it at zero, meaning "equal to States").
	StatesStepped int
	// Reason names which bound ended the search (ResourceBound verdicts).
	Reason stats.Reason
	// Visited is the final visited-set size; PeakFrontier and PeakDepth
	// are the frontier-length and trace-depth high-water marks.
	Visited      int
	PeakFrontier int
	PeakDepth    int
	// Deadlocks counts states in which some thread was still running but
	// every live thread was blocked on an assume. A deadlock is not an
	// error in the paper's semantics (a false assume simply blocks), but
	// the count is reported for diagnostics.
	Deadlocks int
	// HashCollisions counts states whose 64-bit fingerprint collided with
	// a structurally different visited state (AuditFingerprints only).
	HashCollisions int
	// Parallel carries the worker-pool diagnostics of a parallel search
	// (SearchWorkers >= 1); nil for sequential runs.
	Parallel *stats.Parallel
	// Memory carries the memory-bounding diagnostics (compact-filter
	// occupancy, spilled bytes/runs/merges); nil when neither
	// FrontierBudget nor VisitedCompact engaged.
	Memory *stats.Memory
}

func (r *Result) String() string {
	counters := fmt.Sprintf("states=%d steps=%d visited=%d peak-frontier=%d",
		r.States, r.Steps, r.Visited, r.PeakFrontier)
	if r.StatesStepped > 0 {
		counters += fmt.Sprintf(" stepped=%d", r.StatesStepped)
	}
	switch r.Verdict {
	case Error:
		return fmt.Sprintf("error: %s (%s)", r.Failure, counters)
	case Safe:
		return fmt.Sprintf("safe (%s)", counters)
	default:
		return fmt.Sprintf("resource bound exhausted (%s; %s)",
			stats.BoundName(r.Reason), counters)
	}
}

// reasonFor maps a context error to the bound reason it represents.
func reasonFor(err error) stats.Reason {
	if errors.Is(err, context.DeadlineExceeded) {
		return stats.ReasonDeadline
	}
	return stats.ReasonCanceled
}

// node is one stored state's position in the trace tree. Under macro-step
// compression an edge covers a whole deterministic run of thread ti:
// prefix holds the folded events preceding event, prefixIdx the raw
// successor index taken at each folded position, and idx the raw index of
// the final edge — together with ti they spell this state's padded
// (thread, successor)-path, the per-statement BFS's within-level order
// (see cPathLess). pathEntry(ti, idx) alone, one per hop, forms the hop
// key the macro bucket BFS orders by (see cAppendHopKey). depth is the
// micro depth: parent.depth + len(prefix) + 1.
//
// A node restored from a spilled frontier frame has no parent chain;
// base holds what it keeps of its ancestry instead.
type node struct {
	parent    *node
	prefix    []sem.Event
	prefixIdx []int32
	event     sem.Event
	idx       int32
	ti        int32
	depth     int
	base      *spillBase
}

// spillBase is the ancestry a node restored from a spilled frame keeps:
// its hop key (the spill order key), which cAppendHopKey extends for
// descendants, and its padded path of pathEntry-packed (thread, index)
// pairs (carried in the spill payload), which cReplayPath turns back
// into the trace prefix on failure.
type spillBase struct {
	key  []byte
	path []int32
}

func (n *node) trace() []sem.Event {
	total := 0
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		total += len(cur.prefix) + 1
	}
	out := make([]sem.Event, total)
	i := total
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		i--
		out[i] = cur.event
		for j := len(cur.prefix) - 1; j >= 0; j-- {
			i--
			out[i] = cur.prefix[j]
		}
	}
	return out
}

type searchState struct {
	st       *sem.State
	nd       *node
	lastTh   int // index of last-scheduled thread (-1 initially)
	switches int // context switches consumed
}

// Check explores the concurrent program compiled in c.
func Check(c *sem.Compiled, opts Options) *Result {
	if opts.AuditFingerprints {
		// The audit maps shadow the per-statement search's visited inserts
		// one-for-one; compression stores a different (smaller) state set.
		opts.DisableMacroSteps = true
	}
	if opts.SearchWorkers >= 1 && !opts.AuditFingerprints {
		if !opts.DisableMacroSteps {
			return checkMacroLevel(c, opts)
		}
		return checkParallel(c, opts)
	}
	if !opts.DisableMacroSteps {
		return checkMacroSeq(c, opts)
	}
	res := &Result{}
	init := sem.NewState(c)
	bounded := opts.ContextBound >= 0

	hasher := sem.NewFPHasher()
	visited := map[uint64]struct{}{}
	var audit map[uint64]string // hash key -> canonical string key
	if opts.AuditFingerprints {
		audit = map[uint64]string{}
	}
	// seen records (state, search context) as visited, reporting whether it
	// already was. In bounded mode the last-scheduled thread and consumed
	// switch count are part of the key, mixed into the state hash.
	seen := func(s *sem.State, lastTh, switches int) bool {
		fp := hasher.Hash(s)
		if bounded {
			fp = sem.Mix64(fp, uint64(lastTh+1))
			fp = sem.Mix64(fp, uint64(switches))
		}
		if _, ok := visited[fp]; ok {
			if audit != nil {
				sk := s.FingerprintString()
				if bounded {
					sk = fmt.Sprintf("%s#%d#%d", sk, lastTh, switches)
				}
				if audit[fp] != sk {
					res.HashCollisions++
				}
			}
			return true
		}
		visited[fp] = struct{}{}
		if audit != nil {
			sk := s.FingerprintString()
			if bounded {
				sk = fmt.Sprintf("%s#%d#%d", sk, lastTh, switches)
			}
			audit[fp] = sk
		}
		return false
	}
	seen(init, -1, 0)
	res.States = 1

	stack := []searchState{{st: init, nd: &node{}, lastTh: -1}}
	res.PeakFrontier = 1
	defer func() { res.Visited = len(visited) }()

	ctxCountdown := 1 // poll the context on the first iteration
	for len(stack) > 0 {
		if opts.Context != nil {
			if ctxCountdown--; ctxCountdown <= 0 {
				ctxCountdown = ctxPollStride
				if err := opts.Context.Err(); err != nil {
					res.Verdict = ResourceBound
					res.Reason = reasonFor(err)
					return res
				}
			}
		}
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.nd.depth > res.PeakDepth {
			res.PeakDepth = cur.nd.depth
		}
		opts.Collector.Sample(res.States, res.Steps, len(stack), cur.nd.depth, len(visited))

		if opts.MaxDepth > 0 && cur.nd.depth >= opts.MaxDepth {
			continue
		}

		// POR: if some live thread's next instruction is invisible, expand
		// only that thread.
		expand := -1
		if opts.POR {
			for ti := range cur.st.Threads {
				if cur.st.Threads[ti].Done() {
					continue
				}
				if invisibleNext(cur.st, ti) {
					expand = ti
					break
				}
			}
		}

		anyLive, anyProgress := false, false
		for ti := range cur.st.Threads {
			if cur.st.Threads[ti].Done() {
				continue
			}
			if expand >= 0 && ti != expand {
				continue
			}
			anyLive = true

			// A context switch occurs whenever adjacent transitions in the
			// execution string are labeled with different thread ids
			// (Section 4.1's formal model).
			switches := cur.switches
			if cur.lastTh >= 0 && cur.lastTh != ti {
				switches++
				if bounded && switches > opts.ContextBound {
					continue
				}
			}

			if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
				res.Verdict = ResourceBound
				res.Reason = stats.ReasonSteps
				return res
			}
			sr := sem.Step(cur.st, ti)
			res.Steps++
			if sr.Failure != nil {
				res.Verdict = Error
				res.Failure = sr.Failure
				failEv := sem.Event{
					Kind:     sem.EvStmt,
					ThreadID: sr.Failure.ThreadID,
					Pos:      sr.Failure.Pos,
					Text:     sr.Failure.Msg,
				}
				res.Trace = append(cur.nd.trace(), failEv)
				return res
			}
			if sr.Blocked {
				continue
			}
			anyProgress = anyProgress || len(sr.Outcomes) > 0
			for _, out := range sr.Outcomes {
				if seen(out.State, ti, switches) {
					continue
				}
				res.States++
				if opts.MaxStates > 0 && res.States > opts.MaxStates {
					res.Verdict = ResourceBound
					res.Reason = stats.ReasonStates
					return res
				}
				stack = append(stack, searchState{
					st:       out.State,
					nd:       &node{parent: cur.nd, event: out.Event, depth: cur.nd.depth + 1},
					lastTh:   ti,
					switches: switches,
				})
				if len(stack) > res.PeakFrontier {
					res.PeakFrontier = len(stack)
				}
			}
		}
		if anyLive && !anyProgress {
			res.Deadlocks++
		}
	}
	res.Verdict = Safe
	return res
}

// invisibleNext reports whether thread ti's next instruction neither
// reads nor writes shared state: pure control transfers, and assignments
// whose target and operands are all frame-local. Such an instruction
// commutes with every transition of every other thread, so expanding only
// it preserves failure reachability.
func invisibleNext(s *sem.State, ti int) bool {
	fr := s.Threads[ti].Top()
	if fr == nil || fr.PC >= len(fr.CF.Code) {
		return false // implicit return delivers into the caller frame; keep simple
	}
	in := &fr.CF.Code[fr.PC]
	switch in.Op {
	case sem.OpSkip, sem.OpJump, sem.OpNondetJump:
		return true
	case sem.OpAssign:
		return localExpr(fr, in.Lhs) && localExpr(fr, in.Rhs)
	}
	return false
}

// localExpr reports whether evaluating e touches only the frame's locals
// and constants (no globals, no heap, no pointers).
func localExpr(fr *sem.Frame, e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *ast.IntLit, *ast.BoolLit, *ast.FuncLit:
		return true
	case *ast.VarExpr:
		_, isLocal := fr.CF.VarIdx[e.Name]
		return isLocal
	case *ast.UnaryExpr:
		return localExpr(fr, e.X)
	case *ast.BinaryExpr:
		return localExpr(fr, e.X) && localExpr(fr, e.Y)
	}
	return false
}
