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
//  4. The search engine of the sequential checker: internal/seqcheck runs
//     it at ContextBound 0, where only thread 0 ever runs, on the KISS
//     and CB translations.
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
	MaxStates    int // distinct states stored
	MaxSteps     int // total transitions executed
	MaxDepth     int // maximum trace length considered
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
	// BFS switches the search to breadth-first order, which makes the
	// returned counterexample a *shortest* error trace. DFS (the default)
	// is faster to a first error and uses less frontier memory. With
	// SearchWorkers 0 the breadth-first search is the level engine of
	// SearchWorkers 1 run inline, so the two agree on every deterministic
	// counter.
	BFS bool
	// SearchWorkers >= 1 explores the state space with a worker pool over
	// a level-synchronized breadth-first frontier and a sharded visited
	// set. The verdict, counterexample trace, and every deterministic
	// search metric (states, steps, visited, peaks) are bit-identical at
	// every worker count — workers only expand and hash; a single-threaded
	// commit loop replays each level in (item, thread) order through the
	// budget checks — so counterexamples are shortest traces and
	// first-error-wins resolves to the lowest (depth, item, thread). 1
	// runs the same search on the calling goroutine (the deterministic
	// baseline). 0 (the default) keeps the sequential search honoring
	// BFS/DFS; AuditFingerprints also forces the sequential search (the
	// audit maps are unsharded).
	SearchWorkers int
	// FrontierBudget, when > 0, bounds the BFS frontier's resident bytes:
	// past the budget the bucket queue serializes frames (state snapshot
	// plus padded path) to sorted on-disk runs under SpillDir and streams
	// them back in exact processing order. Spilling is strictly an
	// eviction policy — the verdict, trace, and every deterministic
	// counter are bit-identical to an unbounded run at every worker count
	// and budget. Ignored by the DFS engines (their frontier is a stack of
	// O(depth) states). <= 0 disables spilling.
	FrontierBudget int64
	// SpillDir is where frontier runs are created (empty selects the
	// system temp directory, which is all kiss.Config uses). A private
	// subdirectory is created on first spill and removed when the search
	// finishes.
	SpillDir string
	// VisitedCompact replaces the exact visited set with a blocked Bloom
	// filter over the 64-bit fingerprints (~8–16 bits per state at the
	// budgets it is meant for). Its only error is a false "seen" — a
	// fresh state mistaken for visited and pruned, the same unsoundness
	// direction as fingerprint hashing and the KISS reduction itself
	// (missed states, never false alarms). Honored by the macro DFS and
	// every BFS engine; only the per-statement DFS (DisableMacroSteps
	// without BFS or SearchWorkers, and AuditFingerprints, whose audit
	// maps shadow exact inserts) keeps the exact set.
	VisitedCompact bool
	// VisitedBytes sizes the compact filter (<= 0 selects
	// visited.DefaultCompactBytes). Part of the result contract in
	// compact mode: the filter size determines which states false-
	// positive away.
	VisitedBytes int64
	// AuditVisited shadows the compact filter with an exact set and
	// counts real false positives in the Memory stats. The search still
	// explores the compact filter's state set — audit observes, never
	// corrects — but restores the exact set's memory cost. A test hook:
	// kiss.Config does not expose it. Ignored unless VisitedCompact.
	AuditVisited bool
	// DisableMacroSteps turns off macro-step compression (sem.MacroStep),
	// restoring the per-statement search that stores and fingerprints a
	// state after every micro transition. Compression is on by default:
	// whenever a thread is the sole live thread of a state, its maximal
	// deterministic run folds into one transition and only decision-point
	// states are stored (multi-threaded states are scheduling points and
	// never fold, so interleaving coverage is untouched). The verdict,
	// failure position, and counterexample trace are identical either way.
	// Stored states usually drop, but not always: on multi-threaded
	// programs the macro search can store more states than the
	// per-statement one (one random program stores 280 against 279).
	// States counts only stored states (compare with StatesStepped); Steps
	// still counts micro transitions; the Deadlocks diagnostic no longer
	// counts the infeasible false-assume branch endpoints that compression
	// prunes without storing. Budget trip points may differ from the
	// per-statement search (MaxStates bounds *stored* states), exactly as
	// BFS and DFS already cover different prefixes of the state space
	// under a budget. AuditFingerprints forces compression off.
	DisableMacroSteps bool
	// AuditFingerprints cross-checks the 64-bit visited-set hashes against
	// the canonical string encodings, counting states whose hash collided
	// with a structurally different state in Result.HashCollisions. A
	// collision makes the search treat a new state as visited — a missed
	// state, never a false alarm. Audit mode restores the string encoder's
	// cost and is meant for tests on small programs; it runs the
	// per-statement sequential search, in DFS or BFS order.
	AuditFingerprints bool
	// Context, when non-nil, is polled during the search; cancellation or
	// deadline expiry stops it with a ResourceBound verdict and Reason
	// ReasonCanceled/ReasonDeadline (a partial result, not an error).
	Context context.Context
	// Collector, when non-nil, receives per-iteration progress samples
	// (states, steps, frontier length, depth, visited-set size).
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
	// compression never stored: States plus the folded run lengths, so
	// StatesStepped/States is the compression ratio. The per-statement
	// engines leave it at zero, meaning "equal to States".
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
	// (SearchWorkers >= 1); nil at SearchWorkers 0.
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
// prefixIdx holds the raw successor index taken at each folded position,
// and idx the raw index of the final edge — together with ti they spell
// this state's padded (thread, successor)-path, the per-statement BFS's
// within-level order (see cPathLess), and the path cReplayPath
// re-executes to rebuild a trace. pathEntry(ti, idx) alone, one per hop,
// forms the hop key the macro bucket BFS orders by (see cAppendHopKey).
// depth is the micro depth: parent.depth + len(prefixIdx) + 1.
//
// ti and switches are also the state's scheduling context: the
// last-scheduled thread (-1 at the initial state) and the context
// switches consumed on the way here. A node restored from a spilled
// frontier frame has no parent chain; base holds what it keeps of its
// ancestry instead, and its scheduling context is read off its path.
type node struct {
	parent    *node
	prefixIdx []int32
	idx       int32
	ti        int32
	switches  int32
	depth     int
	base      *spillBase
}

// spillBase is the ancestry a node restored from a spilled frame keeps:
// its hop key (the spill order key), which cAppendHopKey extends for
// descendants, and its padded path of pathEntry-packed (thread, index)
// pairs (carried in the spill payload), which cAppendPath extends.
type spillBase struct {
	key  []byte
	path []int32
}

// searchState is a frontier entry: a state and its node.
type searchState struct {
	st *sem.State
	nd *node
}

// newRoot is the initial state's node: no thread scheduled yet.
func newRoot() *node {
	return &node{ti: -1}
}

// Check explores the concurrent program compiled in c. Under ContextBound
// 0, or on a one-threaded program, every engine steps thread 0 alone and
// macro steps fold every deterministic run: a sequential check.
func Check(c *sem.Compiled, opts Options) *Result {
	if opts.AuditFingerprints {
		// The audit maps shadow the per-statement search's visited inserts
		// one-for-one; compression stores a different (smaller) state set.
		opts.DisableMacroSteps = true
	}
	if (opts.BFS || opts.SearchWorkers >= 1) && !opts.AuditFingerprints {
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
	// auditKey is the canonical string form of visitKey.
	auditKey := func(s *sem.State, lastTh, switches int) string {
		if opts.ContextBound > 0 {
			return fmt.Sprintf("%s#%d#%d", s.FingerprintString(), lastTh, switches)
		}
		return s.FingerprintString()
	}
	// seen records (state, search context) as visited, reporting whether it
	// already was.
	seen := func(s *sem.State, lastTh, switches int) bool {
		fp := visitKey(hasher.Hash(s), opts, lastTh, switches)
		if _, ok := visited[fp]; ok {
			if audit != nil && audit[fp] != auditKey(s, lastTh, switches) {
				res.HashCollisions++
			}
			return true
		}
		visited[fp] = struct{}{}
		if audit != nil {
			audit[fp] = auditKey(s, lastTh, switches)
		}
		return false
	}
	seen(init, -1, 0)
	res.States = 1

	stack := []searchState{{st: init, nd: newRoot()}}
	head := 0 // BFS dequeue position; the tail is the DFS top
	res.PeakFrontier = 1
	defer func() { res.Visited = len(visited) }()

	ctxCountdown := 1 // poll the context on the first iteration
	for head < len(stack) {
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
		// Popped slots are zeroed so the frontier's backing array never
		// pins a state the search is done with.
		var cur searchState
		if opts.BFS {
			// Reached under AuditFingerprints only; every other BFS runs
			// on a level engine. Dequeue by head index rather than
			// stack = stack[1:], which would pin the whole backing array;
			// the occasional compaction lets the array itself shrink.
			cur = stack[head]
			stack[head] = searchState{}
			head++
			if head >= 1024 && head*2 >= len(stack) {
				n := copy(stack, stack[head:])
				clear(stack[n:])
				stack = stack[:n]
				head = 0
			}
		} else {
			cur = stack[len(stack)-1]
			stack[len(stack)-1] = searchState{}
			stack = stack[:len(stack)-1]
		}
		if cur.nd.depth > res.PeakDepth {
			res.PeakDepth = cur.nd.depth
		}
		opts.Collector.Sample(res.States, res.Steps, len(stack)-head, cur.nd.depth, len(visited))

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
			switches := int(cur.nd.switches)
			if cur.nd.ti >= 0 && int(cur.nd.ti) != ti {
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
				return cFailAt(c, res, cur.nd, ti, nil, sr.Failure)
			}
			if sr.Blocked {
				continue
			}
			anyProgress = anyProgress || len(sr.Outcomes) > 0
			for k, out := range sr.Outcomes {
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
					st: out.State,
					nd: &node{parent: cur.nd, idx: int32(k), ti: int32(ti), switches: int32(switches), depth: cur.nd.depth + 1},
				})
				if fl := len(stack) - head; fl > res.PeakFrontier {
					res.PeakFrontier = fl
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

// visitKey is a search state's visited-set key: the state's fingerprint,
// mixed with its scheduling context (last-scheduled thread, consumed
// switches) when the context bound is positive. Unbounded search never
// consults the context, and under bound 0 it carries no information: no
// switch is ever allowed, so every state but the initial one is reached
// with context (thread 0, no switches), and the initial state's only
// thread is thread 0.
func visitKey(fp uint64, opts Options, lastTh, switches int) uint64 {
	if opts.ContextBound <= 0 {
		return fp
	}
	return sem.Mix64(sem.Mix64(fp, uint64(lastTh+1)), uint64(switches))
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
