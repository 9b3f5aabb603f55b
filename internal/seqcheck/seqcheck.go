// Package seqcheck is an explicit-state model checker for the *sequential*
// fragment of the parallel language — the role SLAM plays in the KISS
// architecture (Figure 1). It understands only sequential semantics: one
// thread, nondeterminism from choice/iter, and the ts intrinsics introduced
// by the KISS transformation. It never interleaves threads.
//
// The checker performs depth-first (or breadth-first) reachability over
// canonical state fingerprints with configurable state/step budgets (the
// paper runs SLAM under "a resource bound of 20 minutes of CPU time and
// 800MB of memory"; our budgets play the same role in the Table 1
// experiments). On error it returns the full counterexample trace, which
// package trace maps back to an interleaved execution of the original
// concurrent program.
//
// Sequential semantics is the interleaving explorer's at context bound 0:
// thread 0 runs alone and is never switched away from. So the search
// itself is concheck's: Check runs concheck's two engines, depth-first
// and level, with ContextBound 0. At bound 0 the visited keys are the
// bare state fingerprints, so on a one-threaded program (every KISS
// translation) bound 0 and no bound explore the same states in the same
// order and report the same results.
package seqcheck

import (
	"context"

	"repro/internal/concheck"
	"repro/internal/sem"
	"repro/internal/stats"
)

// Verdict is the outcome of a check.
type Verdict = concheck.Verdict

const (
	// Safe: the reachable state space was exhausted without any failure.
	Safe = concheck.Safe
	// Error: an assertion failure or runtime error is reachable.
	Error = concheck.Error
	// ResourceBound: the state or step budget was exhausted first — the
	// analogue of the paper's per-field timeouts in Table 1.
	ResourceBound = concheck.ResourceBound
)

// Result reports the verdict along with the witness trace and search
// statistics. Deadlocks counts the paths a false assume ends (in
// sequential semantics a blocked assume just prunes the path).
type Result = concheck.Result

// Options configure the search budgets and engines. Zero values mean
// "unlimited"; each field means what the concheck.Options field of the
// same name does.
type Options struct {
	MaxStates int // distinct states stored
	MaxSteps  int // total transitions executed
	MaxDepth  int // maximum trace length considered
	// BFS makes the counterexample a shortest error trace.
	BFS bool
	// DisableMacroSteps restores the per-statement search.
	DisableMacroSteps bool
	// AuditFingerprints counts 64-bit fingerprint collisions in
	// Result.HashCollisions (per-statement search, small programs).
	AuditFingerprints bool
	// SearchWorkers >= 1 runs the breadth-first search on a worker pool;
	// results are bit-identical at every worker count.
	SearchWorkers int
	// FrontierBudget bounds the BFS frontier's resident bytes, spilling
	// the rest under SpillDir; it never changes a result.
	FrontierBudget int64
	SpillDir       string
	// VisitedCompact, VisitedBytes and AuditVisited select and size the
	// Bloom-filter visited set.
	VisitedCompact bool
	VisitedBytes   int64
	AuditVisited   bool
	// Context, when non-nil, makes the search cancelable; Collector, when
	// non-nil, receives progress samples.
	Context   context.Context
	Collector *stats.Collector
}

// Check explores the sequential program compiled in c. The program must be
// in the sequential fragment (no async, no atomic); transformed programs
// produced by the KISS translation always are.
func Check(c *sem.Compiled, opts Options) *Result {
	return concheck.Check(c, concheck.Options{
		MaxStates:         opts.MaxStates,
		MaxSteps:          opts.MaxSteps,
		MaxDepth:          opts.MaxDepth,
		ContextBound:      0,
		BFS:               opts.BFS,
		SearchWorkers:     opts.SearchWorkers,
		FrontierBudget:    opts.FrontierBudget,
		SpillDir:          opts.SpillDir,
		VisitedCompact:    opts.VisitedCompact,
		VisitedBytes:      opts.VisitedBytes,
		AuditVisited:      opts.AuditVisited,
		DisableMacroSteps: opts.DisableMacroSteps,
		AuditFingerprints: opts.AuditFingerprints,
		Context:           opts.Context,
		Collector:         opts.Collector,
	})
}
