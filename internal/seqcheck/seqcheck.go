// Package seqcheck is an explicit-state model checker for the *sequential*
// fragment of the parallel language — the role SLAM plays in the KISS
// architecture (Figure 1). It understands only sequential semantics: one
// thread, nondeterminism from choice/iter, and the ts intrinsics introduced
// by the KISS transformation. It never interleaves threads.
//
// The checker performs depth-first reachability over canonical state
// fingerprints with configurable state/step budgets (the paper runs SLAM
// under "a resource bound of 20 minutes of CPU time and 800MB of memory";
// our budgets play the same role in the Table 1 experiments). On error it
// returns the full counterexample trace, which package trace maps back to
// an interleaved execution of the original concurrent program.
package seqcheck

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/sem"
	"repro/internal/stats"
)

// Verdict is the outcome of a check.
type Verdict int

const (
	// Safe: the reachable state space was exhausted without any failure.
	Safe Verdict = iota
	// Error: an assertion failure or runtime error is reachable.
	Error
	// ResourceBound: the state or step budget was exhausted first — the
	// analogue of the paper's per-field timeouts in Table 1.
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

// Options configure the search budgets. Zero values mean "unlimited".
type Options struct {
	MaxStates int // distinct states explored
	MaxSteps  int // total transitions executed
	MaxDepth  int // maximum trace length considered
	// BFS switches the search to breadth-first order, which makes the
	// returned counterexample a *shortest* error trace. DFS (the default)
	// is faster to a first error and uses less frontier memory.
	BFS bool
	// DisableMacroSteps turns off macro-step compression (sem.MacroStep),
	// restoring the per-statement search that stores and fingerprints a
	// state after every micro transition. Compression is on by default: the
	// search stores only decision-point states and folds each maximal
	// deterministic run into one transition, keeping the verdict, failure
	// position, and counterexample trace identical while cutting stored
	// states, clones, and visited-set pressure by the run length. States,
	// Steps and the peak metrics keep their meaning (Steps still counts
	// micro transitions); States counts only stored states — compare with
	// StatesStepped for the compression ratio. Budget trip points may
	// differ from the per-statement search (MaxStates bounds *stored*
	// states), exactly as BFS and DFS already cover different prefixes of
	// the state space under a budget. AuditFingerprints forces compression
	// off: the audit maps shadow the per-statement visited inserts.
	DisableMacroSteps bool
	// Memo, when non-nil, is the fold-memoization table shared by every
	// engine of this search (sem.MacroStepMemo): folds whose control point
	// and read footprint were seen before replay as stored write deltas
	// instead of re-executing. The verdict, trace, failure position, and
	// every deterministic counter are bit-identical with or without a
	// memo; only wall time and the memo's own hit/miss statistics differ.
	// Ignored when macro steps are disabled.
	Memo *sem.FoldMemo
	// AuditFingerprints cross-checks the 64-bit visited-set hashes against
	// the canonical string encodings, counting states whose hash collided
	// with a structurally different state in Result.HashCollisions. A
	// collision makes the search treat a new state as visited — a missed
	// state, never a false alarm (the same unsoundness direction as the
	// KISS reduction). Audit mode restores the string encoder's cost and
	// is meant for tests on small programs.
	AuditFingerprints bool
	// SearchWorkers >= 1 explores the state space with a worker pool over
	// a level-synchronized breadth-first frontier and a sharded visited
	// set. The verdict, counterexample trace, and every deterministic
	// search metric (states, steps, visited, peaks) are bit-identical at
	// every worker count — workers only expand and hash; a single-threaded
	// commit loop replays each level in item order through the budget
	// checks — so counterexamples are shortest traces and first-error-wins
	// resolves to the lowest (depth, item index). 1 runs the same search
	// on the calling goroutine (the deterministic baseline). 0 (the
	// default) keeps the classic sequential search honoring BFS/DFS;
	// AuditFingerprints also forces the sequential search (the audit maps
	// are unsharded).
	SearchWorkers int
	// NumShards is the visited-set shard count for the parallel search
	// (rounded up to a power of two; 0 selects visited.DefaultShards).
	NumShards int
	// FrontierBudget, when > 0, bounds the BFS frontier's resident bytes:
	// past the budget the bucket queue serializes frames (state snapshot
	// plus padded successor-index path) to sorted on-disk runs under
	// SpillDir and streams them back in exact processing order. Spilling
	// is strictly an eviction policy — the verdict, trace, and every
	// deterministic counter are bit-identical to an unbounded run at
	// every worker count and budget. Ignored by the DFS engines (their
	// frontier is a stack of O(depth) states). <= 0 disables spilling.
	FrontierBudget int64
	// SpillDir is where frontier runs are created (empty selects the
	// system temp directory). A private subdirectory is created on first
	// spill and removed when the search finishes.
	SpillDir string
	// VisitedCompact replaces the exact visited set with a blocked Bloom
	// filter over the 64-bit fingerprints (~8–16 bits per state at the
	// budgets it is meant for). Its only error is a false "seen" — a
	// fresh state mistaken for visited and pruned, the same unsoundness
	// direction as fingerprint hashing and the KISS reduction itself
	// (missed states, never false alarms). Honored by the macro DFS and
	// all BFS engines; the classic per-statement sequential search (and
	// AuditFingerprints, whose audit maps shadow exact inserts) keeps
	// the exact set.
	VisitedCompact bool
	// VisitedBytes sizes the compact filter (<= 0 selects
	// visited.DefaultCompactBytes). Part of the result contract in
	// compact mode: the filter size determines which states false-
	// positive away.
	VisitedBytes int64
	// AuditVisited shadows the compact filter with an exact set and
	// counts real false positives in the Memory stats. The search still
	// explores the compact filter's state set — audit observes, never
	// corrects — but restores the exact set's memory cost; meant for
	// tests and calibration runs. Ignored unless VisitedCompact.
	AuditVisited bool
	// Context, when non-nil, is polled during the search (every
	// ctxPollStride transitions). Cancellation or deadline expiry stops
	// the search with a ResourceBound verdict and Reason
	// ReasonCanceled/ReasonDeadline — a consistent partial result, never
	// an error.
	Context context.Context
	// Collector, when non-nil, receives per-iteration progress samples
	// (states, steps, frontier length, depth, visited-set size). Phase
	// timing and finalization are the caller's concern; a nil collector
	// costs one branch per iteration.
	Collector *stats.Collector
}

// ctxPollStride is how many loop iterations pass between Context polls:
// ctx.Err takes a mutex, so the hot loop amortizes it. The first poll
// happens on the first iteration, making an already-canceled context
// return immediately even on tiny programs.
const ctxPollStride = 512

// Result reports the verdict along with the witness trace and search
// statistics.
type Result struct {
	Verdict Verdict
	Failure *sem.Failure
	// Trace is the event sequence from the initial state to the failing
	// statement (Error verdicts only).
	Trace  []sem.Event
	States int
	Steps  int
	// StatesStepped counts the states the search traversed, including the
	// intermediate states of folded deterministic runs that macro-step
	// compression never stored: States plus the folded run lengths.
	// StatesStepped/States is the compression ratio; without compression
	// the two are equal (the per-statement engines leave this at zero and
	// callers treat that as "equal to States").
	StatesStepped int
	// Reason names which bound ended the search (ResourceBound verdicts):
	// the state budget, the step budget, the context deadline, or
	// cancellation. ReasonNone for Safe/Error verdicts.
	Reason stats.Reason
	// Visited is the final visited-set size; PeakFrontier and PeakDepth
	// are the frontier-length and trace-depth high-water marks.
	Visited      int
	PeakFrontier int
	PeakDepth    int
	// HashCollisions counts states whose 64-bit fingerprint collided with
	// a structurally different visited state (AuditFingerprints only).
	HashCollisions int
	// Parallel carries the worker-pool diagnostics of a parallel search
	// (SearchWorkers > 1); nil for sequential runs.
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
// compression an edge covers a whole deterministic run: prefix holds the
// folded events preceding event, prefixIdx the raw successor index taken
// at each folded position, and idx the raw index of the final edge —
// together they spell this state's padded successor-index path, the
// uncompressed BFS's within-level order (see pathLess). The idx values
// alone, one per hop, form the hop key the macro bucket BFS orders by
// (see appendHopKey). depth is the micro depth: parent.depth +
// len(prefix) + 1.
//
// A node restored from a spilled frontier frame has no parent chain;
// base holds what it keeps of its ancestry instead.
type node struct {
	parent    *node
	prefix    []sem.Event
	prefixIdx []int32
	event     sem.Event
	idx       int32
	depth     int
	base      *spillBase
}

// spillBase is the ancestry a node restored from a spilled frame keeps:
// its hop key (the spill order key), which appendHopKey extends for
// descendants, and its padded path (carried in the spill payload), which
// replayPath turns back into the trace prefix on failure.
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

// Check explores the sequential program compiled in c. The program must be
// in the sequential fragment (no async, no atomic); transformed programs
// produced by the KISS translation always are.
func Check(c *sem.Compiled, opts Options) *Result {
	if opts.AuditFingerprints {
		// The audit maps shadow the per-statement search's visited inserts
		// one-for-one; compression stores a different (smaller) state set.
		opts.DisableMacroSteps = true
	}
	if opts.SearchWorkers >= 1 && !opts.AuditFingerprints {
		if !opts.DisableMacroSteps {
			return checkMacroBFS(c, opts)
		}
		return checkParallel(c, opts)
	}
	if !opts.DisableMacroSteps {
		if opts.BFS {
			// The macro BFS engine is the parallel engine run inline
			// (SearchWorkers 0): same bucket queue, same counters.
			return checkMacroBFS(c, opts)
		}
		return checkMacroDFS(c, opts)
	}
	res := &Result{}
	init := sem.NewState(c)

	hasher := sem.NewFPHasher()
	visited := map[uint64]struct{}{}
	var audit map[uint64]string // hash -> canonical string of first state
	if opts.AuditFingerprints {
		audit = map[uint64]string{}
	}
	// seen records the state as visited, reporting whether it already was.
	seen := func(st *sem.State) bool {
		fp := hasher.Hash(st)
		if _, ok := visited[fp]; ok {
			if audit != nil && audit[fp] != st.FingerprintString() {
				res.HashCollisions++
			}
			return true
		}
		visited[fp] = struct{}{}
		if audit != nil {
			audit[fp] = st.FingerprintString()
		}
		return false
	}
	seen(init)

	type frame struct {
		st *sem.State
		nd *node
	}
	stack := []frame{{st: init, nd: &node{}}}
	head := 0 // BFS dequeue position; the tail is the DFS top
	res.States = 1
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
		var cur frame
		if opts.BFS {
			// Dequeue by head index rather than stack = stack[1:]: reslicing
			// pins the whole backing array (every popped state) for the life
			// of the search. Zeroing the slot frees the frame now, and the
			// occasional compaction lets the array itself shrink.
			cur = stack[head]
			stack[head] = frame{}
			head++
			if head >= 1024 && head*2 >= len(stack) {
				n := copy(stack, stack[head:])
				stack = stack[:n]
				head = 0
			}
		} else {
			cur = stack[len(stack)-1]
			stack[len(stack)-1] = frame{}
			stack = stack[:len(stack)-1]
		}
		if cur.nd.depth > res.PeakDepth {
			res.PeakDepth = cur.nd.depth
		}
		opts.Collector.Sample(res.States, res.Steps, len(stack)-head, cur.nd.depth, len(visited))

		if cur.st.Threads[0].Done() {
			continue
		}
		if opts.MaxDepth > 0 && cur.nd.depth >= opts.MaxDepth {
			continue
		}
		if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
			res.Verdict = ResourceBound
			res.Reason = stats.ReasonSteps
			return res
		}

		sr := sem.Step(cur.st, 0)
		res.Steps++
		if sr.Failure != nil {
			res.Verdict = Error
			res.Failure = sr.Failure
			failEv := sem.Event{
				Kind:     sem.EvStmt,
				ThreadID: sr.Failure.ThreadID,
				Fn:       sr.Failure.Fn,
				Pos:      sr.Failure.Pos,
				Text:     sr.Failure.Msg,
			}
			res.Trace = append(cur.nd.trace(), failEv)
			return res
		}
		// Blocked (false assume) prunes the path in sequential semantics.
		for _, out := range sr.Outcomes {
			if seen(out.State) {
				continue
			}
			res.States++
			if opts.MaxStates > 0 && res.States > opts.MaxStates {
				res.Verdict = ResourceBound
				res.Reason = stats.ReasonStates
				return res
			}
			stack = append(stack, frame{
				st: out.State,
				nd: &node{parent: cur.nd, event: out.Event, depth: cur.nd.depth + 1},
			})
			if fl := len(stack) - head; fl > res.PeakFrontier {
				res.PeakFrontier = fl
			}
		}
	}
	res.Verdict = Safe
	return res
}
