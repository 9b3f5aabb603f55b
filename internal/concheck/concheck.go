// Package concheck is an explicit-state model checker for *concurrent*
// programs in the parallel language: it explores thread interleavings
// directly, in the style of the model checkers the KISS paper contrasts
// with (SPIN, JPF, Bogor). Its state space grows exponentially with the
// number of threads — which is exactly the blowup KISS avoids, and which
// the blowup benchmark quantifies.
//
// The checker serves four roles in this reproduction:
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
//  4. The sequential checker (SLAM's role in the paper's Figure 1): at
//     ContextBound 0, the zero value, only thread 0 ever runs, so the
//     explorer checks the KISS and CB translations under sequential
//     semantics. kiss.Config.Check calls it there directly.
package concheck

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/frontier"
	"repro/internal/sem"
	"repro/internal/stats"
	"repro/internal/visited"
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
	// BFS switches the search to breadth-first order, which makes the
	// returned counterexample a *shortest* error trace. DFS (the default)
	// is faster to a first error and uses less frontier memory. The
	// breadth-first search is the level engine at every worker count:
	// SearchWorkers 0 runs it inline, exactly as SearchWorkers 1 does, so
	// the two agree on every deterministic counter.
	BFS bool
	// SearchWorkers >= 1 runs the level engine's expansion rounds on a
	// worker pool over a sharded visited set; the search is then
	// breadth-first whatever BFS says. The verdict, counterexample trace,
	// and every deterministic search metric (states, steps, visited,
	// peaks) are bit-identical at every worker count — workers only
	// expand and hash; a single-threaded commit loop replays each chunk
	// in (item, thread) order through the budget checks — so
	// counterexamples are shortest traces and first-error-wins resolves
	// to the shallowest failure, the first committed on a tie. 1 runs
	// the same search on the calling goroutine (the deterministic
	// baseline). 0 (the default) keeps the depth-first search unless BFS
	// is set. AuditFingerprints forces 0 (the audit map is unsharded).
	SearchWorkers int
	// FrontierBudget, when > 0, bounds the BFS frontier's resident bytes:
	// past the budget the bucket queue serializes frames (state snapshot
	// plus padded path) to on-disk runs under SpillDir and streams them
	// back in arrival order. Spilling is strictly an
	// eviction policy — the verdict, trace, and every deterministic
	// counter are bit-identical to an unbounded run at every worker count
	// and budget. Ignored by the depth-first search (its frontier is a
	// stack of O(depth) states). <= 0 disables spilling.
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
	// (missed states, never false alarms). Honoured by both engines in
	// both step modes; AuditFingerprints forces the exact set.
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
	// state after every micro transition. Both engines take their
	// successors from one step function, sem.MacroStep or, with this set,
	// sem.Step as a one-step macro result. Compression is on by default:
	// whenever a thread is the sole live thread of a state, its maximal
	// deterministic run folds into one transition and only decision-point
	// states are stored (multi-threaded states are scheduling points and
	// never fold, so interleaving coverage is untouched). The verdict is
	// identical either way; the depth-first search also reports the same
	// failure position and counterexample trace, the breadth-first search
	// a trace of the same length (its buckets drain in arrival order, so
	// of several shortest failures it may report another; see macro.go).
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
	// cost and is meant for tests on small programs; it forces the
	// per-statement search with the exact visited set at SearchWorkers 0,
	// in DFS or BFS order, and checks every state where the engine hashes
	// it (a breadth-first audit hashes a whole chunk before committing it,
	// so past a budget trip it also checks the chunk's uncommitted
	// successors).
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
	// occupancy, spilled bytes/frames/runs); nil when neither
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
// this state's padded (thread, successor)-path, the path cReplayPath
// re-executes to rebuild a trace. depth is the micro depth:
// parent.depth + len(prefixIdx) + 1.
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
// its padded path of pathEntry-packed (thread, index) pairs (carried in
// the spill payload), which cAppendPath extends for descendants.
type spillBase struct {
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
// 0, or on a one-threaded program, both engines step thread 0 alone and
// macro steps fold every deterministic run: a sequential check.
func Check(c *sem.Compiled, opts Options) *Result {
	if opts.AuditFingerprints {
		// The audit map shadows the per-statement search's exact visited
		// set, one unsharded insert at a time.
		opts.DisableMacroSteps = true
		opts.VisitedCompact = false
		opts.SearchWorkers = 0
	}
	var res *Result
	if opts.BFS || opts.SearchWorkers >= 1 {
		res = checkLevel(c, opts)
	} else {
		res = checkDFS(c, opts)
	}
	if opts.DisableMacroSteps {
		// The per-statement search stores every state it steps, so it
		// leaves StatesStepped at zero, meaning "equal to States".
		res.StatesStepped = 0
	}
	return res
}

// checkDFS is the depth-first interleaving search.
func checkDFS(c *sem.Compiled, opts Options) *Result {
	res := &Result{}
	init := sem.NewState(c)
	bounded := opts.ContextBound >= 0

	hasher := sem.NewFPHasher()
	var folder sem.Folder
	perStmt := opts.DisableMacroSteps
	audit := newAudit(opts)
	// Exact mode keeps a bare flat table (one goroutine needs no
	// shards); compact mode swaps in the Bloom-filter store.
	var vis visited.Store
	if opts.VisitedCompact {
		vis = cNewVisited(opts)
	}
	var exact visited.Table
	visLen := func() int {
		if vis != nil {
			return vis.Len()
		}
		return exact.Len()
	}
	// seen records (state, search context) as visited, reporting whether it
	// already was.
	seen := func(s *sem.State, lastTh, switches int) bool {
		fp := visitKey(hasher.Hash(s), opts, lastTh, switches)
		if audit != nil && audit.collides(fp, s, lastTh, switches) {
			res.HashCollisions++
		}
		if vis != nil {
			return vis.Seen(fp)
		}
		return exact.Seen(fp)
	}
	seen(init, -1, 0)
	res.States = 1
	res.StatesStepped = 1

	stack := []searchState{{st: init, nd: newRoot()}}
	res.PeakFrontier = 1
	defer func() {
		res.Visited = visLen()
		// No frontier budget: a depth-first stack never spills.
		res.Memory = cMemoryRecord(vis, 0, frontier.Stats{})
	}()

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
		stack[len(stack)-1] = searchState{} // unpin the popped state
		stack = stack[:len(stack)-1]
		if cur.nd.depth > res.PeakDepth {
			res.PeakDepth = cur.nd.depth
		}
		opts.Collector.Sample(res.States, res.Steps, len(stack), cur.nd.depth, visLen())

		if opts.MaxDepth > 0 && cur.nd.depth >= opts.MaxDepth {
			continue
		}

		anyLive, anyProgress := false, false
		for ti := range cur.st.Threads {
			if cur.st.Threads[ti].Done() {
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
			// A sole-live state is handed to the fold: its stack slot is
			// cleared, nothing else holds it, and ti is the only thread
			// stepped from it.
			mr := cStep(&folder, cur.st, ti, cMacroLimit(opts, cur.nd.depth, res.Steps), perStmt, cur.st.SoleLive(ti))
			res.Steps += mr.Stepped
			res.StatesStepped += len(mr.PrefixIdx)
			if mr.Failure != nil {
				return cFailAt(c, res, cur.nd, ti, mr.PrefixIdx, mr.Failure)
			}
			if mr.Blocked {
				// Blocked after a fold: the chain's endpoint is the blocked
				// state the per-statement search would have stored, stepped,
				// and counted against Deadlocks — mark no progress so the
				// count agrees (the folded item stands in for it).
				continue
			}
			anyProgress = anyProgress || cProgressed(&mr, perStmt)
			for k, out := range mr.Outcomes {
				if seen(out, ti, switches) {
					continue
				}
				res.States++
				res.StatesStepped++
				if opts.MaxStates > 0 && res.States > opts.MaxStates {
					res.Verdict = ResourceBound
					res.Reason = stats.ReasonStates
					return res
				}
				stack = append(stack, searchState{
					st: out,
					nd: &node{
						parent:    cur.nd,
						prefixIdx: mr.PrefixIdx,
						idx:       mr.OutIdx[k],
						ti:        int32(ti),
						switches:  int32(switches),
						depth:     cur.nd.depth + len(mr.PrefixIdx) + 1,
					},
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

// cAudit is AuditFingerprints' string-keyed shadow of the visited set:
// the canonical string of the first state hashed to each visited key.
type cAudit struct {
	keys map[uint64]string
	mix  bool // visitKey mixes in the scheduling context (ContextBound > 0)
}

// newAudit returns the audit of a search, nil without AuditFingerprints.
func newAudit(opts Options) *cAudit {
	if !opts.AuditFingerprints {
		return nil
	}
	return &cAudit{keys: map[uint64]string{}, mix: opts.ContextBound > 0}
}

// collides records s, hashed to visited key fp in scheduling context
// (lastTh, switches), and reports whether fp was first hashed from a
// structurally different state: a 64-bit collision.
func (a *cAudit) collides(fp uint64, s *sem.State, lastTh, switches int) bool {
	key := s.FingerprintString()
	if a.mix {
		key = fmt.Sprintf("%s#%d#%d", key, lastTh, switches)
	}
	first, ok := a.keys[fp]
	if !ok {
		a.keys[fp] = key
		return false
	}
	return first != key
}
