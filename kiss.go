// Package kiss (module repro) is a reproduction of "KISS: Keep It Simple
// and Sequential" (Shaz Qadeer and Dinghao Wu, PLDI 2004): an assertion
// and race-condition checker for concurrent programs that works by
// transforming the concurrent program into a sequential program simulating
// a large subset of its behaviors, and analyzing the result with a checker
// that only understands sequential semantics.
//
// The pipeline (the paper's Figure 1) is:
//
//	concurrent program --Transform--> sequential program --concheck(bound 0)--> error trace
//	                                                              |
//	                                           reconstructed concurrent trace
//
// This package is the public facade over the internal packages:
//
//	internal/lexer,parser,sema,lower  — the parallel-language front end
//	internal/kiss                     — the Figure 4/5 transformations
//	internal/concheck                 — explicit-state model checker: at context
//	                                    bound 0 the sequential checker (SLAM's
//	                                    role), unbounded the interleaving baseline
//	internal/trace                    — sequential-to-concurrent trace mapping
//	internal/alias                    — unification-based alias analysis
//	internal/stats                    — observability: metrics + progress
//
// Quick start — the unified, context-aware Check API. A single Check call
// runs the whole pipeline under one Config built from functional options;
// the returned Result carries the verdict, the reconstructed trace, and a
// full metrics record (per-phase wall time, states/sec, peak frontier,
// visited-set size, and which budget tripped, if any):
//
//	prog, err := kiss.Parse(src)
//	res, err := kiss.Check(prog,
//	        kiss.WithRaceTarget(kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: "stoppingFlag"}),
//	        kiss.WithMaxTS(0),
//	        kiss.WithMaxStates(40000),
//	        kiss.WithContext(ctx),
//	        kiss.WithProgress(func(e kiss.Event) { log.Printf("%d states", e.States) }))
//	if res.Verdict == kiss.Error { fmt.Print(res.Trace.Format()) }
//	fmt.Printf("%.0f states/sec\n", res.Stats.StatesPerSec)
package kiss

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/ast"
	"repro/internal/boolcheck"
	"repro/internal/cbseq"
	"repro/internal/concheck"
	ikiss "repro/internal/kiss"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/sema"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Program is a parsed, checked, core-form program in the parallel language.
type Program struct {
	ast *ast.Program
	// sequential marks programs produced by Transform/TransformRace.
	sequential bool
	// parseTime is the front-end wall time, carried into Result.Stats.
	parseTime time.Duration
}

// Parse parses, checks, and lowers a concurrent program from source text.
func Parse(src string) (*Program, error) {
	start := time.Now()
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := sema.Check(p, sema.Source); err != nil {
		return nil, err
	}
	lower.Program(p)
	return &Program{ast: p, parseTime: time.Since(start)}, nil
}

// ParseFile is Parse on the contents of a file.
func ParseFile(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// FromAST wraps an already-built core-form program. It is the bridge for
// programmatically generated models (the synthetic driver corpus). The
// program is checked and lowered.
func FromAST(p *ast.Program) (*Program, error) {
	start := time.Now()
	if err := sema.Check(p, sema.Source); err != nil {
		return nil, err
	}
	lower.Program(p)
	return &Program{ast: p, parseTime: time.Since(start)}, nil
}

// AST exposes the underlying program for in-module tooling.
func (p *Program) AST() *ast.Program { return p.ast }

// Source renders the program back to concrete syntax.
func (p *Program) Source() string { return ast.Print(p.ast) }

// Sequential reports whether this program is a KISS transformation output
// (in the sequential fragment of the language).
func (p *Program) Sequential() bool { return p.sequential }

// DotCFG renders the control-flow graph of one function of the program in
// Graphviz DOT format (developer tooling: `kiss cfg`). For transformed
// programs, pass the translated name (e.g. "__kiss_main") or a generated
// helper, or "main" for the Check(s) wrapper.
func (p *Program) DotCFG(fn string) (string, error) {
	c, err := sem.Compile(p.ast)
	if err != nil {
		return "", err
	}
	return sem.DotCFG(c, fn)
}

// Scheduler re-exports the transformation's scheduling policies.
type Scheduler = ikiss.Scheduler

// Scheduling policies (see internal/kiss for semantics).
const (
	SchedulerNondet      = ikiss.SchedulerNondet
	SchedulerDrainAll    = ikiss.SchedulerDrainAll
	SchedulerAtCallsOnly = ikiss.SchedulerAtCallsOnly
)

// Observability re-exports: the metrics record carried on every Result,
// the progress-event type delivered to WithProgress hooks, and the Reason
// enum naming which resource bound ended a search early.
type (
	// Stats is the unified metrics record for one check run.
	Stats = stats.Stats
	// Event is one progress sample delivered to a WithProgress hook.
	Event = stats.Event
	// Reason names the bound that ended a search early.
	Reason = stats.Reason
)

// Reasons for a ResourceBound verdict (Result.Stats.Reason).
const (
	ReasonNone     = stats.ReasonNone
	ReasonStates   = stats.ReasonStates
	ReasonSteps    = stats.ReasonSteps
	ReasonDeadline = stats.ReasonDeadline
	ReasonCanceled = stats.ReasonCanceled
)

// Sequentialization modes (Config.Sequentialization).
const (
	// SeqKISS is the paper's translation (Figure 4/5): forked threads run
	// from a bounded ts multiset and never resume once interrupted.
	SeqKISS = "kiss"
	// SeqCB is context-bounded sequentialization (internal/cbseq,
	// Lal–Reps style): per-global snapshots are guessed at each of K
	// context switches and linked by assumes at the end, so every thread
	// can be suspended and resumed up to K times.
	SeqCB = "cb"
)

// DefaultContextSwitches is the CB bound K used when SeqCB is selected
// without an explicit WithContextSwitches.
const DefaultContextSwitches = 2

// RaceTarget names the distinguished variable r checked for races
// (Section 5): either a global variable, or a field of a record type (the
// form used for device-extension fields).
type RaceTarget struct {
	Global string
	Record string
	Field  string
}

func (t RaceTarget) internal() ast.RaceTarget {
	return ast.RaceTarget{Global: t.Global, Record: t.Record, Field: t.Field}
}

// String renders the target like "DEVICE_EXTENSION.stoppingFlag".
func (t RaceTarget) String() string {
	it := t.internal()
	return (&it).String()
}

// Config is the single configuration record for the whole pipeline: the
// transformation knobs, the search budgets, and the execution context
// (cancellation, deadline, progress streaming). It replaces the old
// Options/Budget pair. Build one with NewConfig and functional options,
// or fill the fields directly; the zero value checks assertions with the
// paper's fully nondeterministic scheduler, ts bound 0, and no budget.
type Config struct {
	// MaxTS is the bound MAX on the multiset ts of forked-but-unscheduled
	// threads (Section 4) — the knob trading coverage for analysis cost.
	MaxTS int
	// Scheduler selects the scheduling policy of the generated schedule
	// function (Section 4's pluggable-scheduler remark). The zero value
	// is the paper's fully nondeterministic scheduler.
	Scheduler Scheduler
	// Sequentialization selects the source-to-source transform feeding
	// the sequential checker: SeqKISS (the default; "" means kiss) or
	// SeqCB. The mode changes which interleavings are reachable — it is
	// verdict-affecting — so it participates in Normalized()/
	// CanonicalJSON and in cache keys. SeqCB checks assertions on the
	// scalar-globals fragment only: RaceTarget and the Summaries engine
	// are rejected, and programs with heap or pointer operations return
	// an unsupported error (cbseq.IsUnsupported).
	Sequentialization string
	// ContextSwitches is K for SeqCB: how many context switches the
	// translated program simulates (each one guesses a snapshot of the
	// shared globals). 0 selects DefaultContextSwitches; the knob is
	// ignored under SeqKISS. Not to be confused with ContextBound, which
	// bounds the *concurrent* baseline in Explore.
	ContextSwitches int

	// RaceTarget, when non-nil, selects the race-checking translation
	// (Figure 5) on that distinguished variable; nil selects assertion
	// checking (Figure 4).
	RaceTarget *RaceTarget
	// Summaries selects the summary-based sequential engine
	// (internal/boolcheck) in place of the explicit-state explorer. It
	// supports only the pointer-free fragment but terminates on recursive
	// programs with finite data; no counterexample trace is produced.
	Summaries bool

	// MaxStates, MaxSteps, and MaxDepth bound the search; zero means
	// unlimited. They play the role of the paper's per-run resource bound
	// ("20 minutes of CPU time and 800MB of memory"). Under Summaries,
	// MaxStates bounds path edges.
	MaxStates int
	MaxSteps  int
	MaxDepth  int
	// BFS selects breadth-first search in both Check and Explore, which
	// makes the returned counterexample a shortest error trace and engages
	// MemBudgetMB's spilling frontier. SearchWorkers >= 1 is always
	// breadth-first.
	BFS bool
	// DisableMacroSteps turns off macro-step compression, restoring the
	// seed-identical per-statement search that stores a state after every
	// micro transition. Compression is on by default: deterministic runs
	// fold into single transitions and only decision-point states are
	// stored, with identical verdicts; the depth-first search also keeps
	// identical failure positions and certified traces, the breadth-first
	// one a trace of the same length (see WithMacroSteps). Stats.States
	// then counts stored states; Stats.StatesStepped counts traversed
	// ones. Stored states usually drop, but on multi-threaded programs
	// (Explore) the macro search can store more than the per-statement
	// one.
	DisableMacroSteps bool
	// VisitedMode selects the visited-set representation of the
	// explicit-state searches: VisitedExact (the default; "" means exact)
	// stores every 64-bit state fingerprint exactly, reproducing the seed
	// search bit-for-bit; VisitedCompact stores fingerprints in a blocked
	// Bloom filter at ~8–16 bits per state, an order of magnitude smaller.
	// A compact filter's only error is a false "already seen" — it can
	// *shrink* the explored set (possibly missing a failure) but never
	// fabricate one, and Stats.Memory reports its occupancy and estimated
	// false-positive rate. Every engine honours it, depth- and
	// breadth-first, with and without macro steps.
	VisitedMode string
	// MemBudgetMB caps the search's memory footprint in MiB; 0 means
	// unlimited (no frontier spilling; a compact filter takes its default
	// size). Under a budget the BFS frontier spills overflowing depth
	// buckets to on-disk runs and streams them back in arrival order —
	// results stay bit-identical at every worker count — and under
	// VisitedCompact the breadth-first search splits the budget evenly
	// between the frontier's in-RAM share and the filter, while the
	// depth-first search, which never spills, gives all of it to the
	// filter. Spill files go to the system temp directory (os.TempDir,
	// which TMPDIR redirects).
	MemBudgetMB int
	// SearchWorkers >= 1 runs the state-space search of a *single* check
	// with that many concurrent workers over a level-synchronized
	// breadth-first frontier and a sharded visited set (both Check and
	// Explore). Results are bit-identical at every worker count — only
	// wall-clock and the Stats.Parallel diagnostics vary; 1 selects the
	// same deterministic search single-threaded. 0 (the default) runs the
	// search on the calling goroutine, depth-first unless BFS is set.
	// Ignored under Summaries. When combining
	// with corpus-level parallelism, split the core budget (see
	// eval.Options.SearchWorkers).
	SearchWorkers int
	// ContextBound bounds context switches in Explore (the concurrent
	// baseline): negative means unlimited, 0 means no switches. It is
	// ignored by Check. NewConfig defaults it to -1.
	ContextBound int

	// Context, when non-nil, makes every checker loop cancelable:
	// cancellation or deadline expiry returns a partial Result with
	// verdict ResourceBound and Stats.Reason ReasonCanceled or
	// ReasonDeadline — never an error.
	Context context.Context
	// Progress, when non-nil, receives progress events streamed from
	// inside the search loop (one every 25,000 states or 250 ms, whichever
	// comes first), plus one final event when the check completes. Hooks
	// must be safe for concurrent use when the same Config serves
	// concurrent checks.
	Progress func(Event)
}

// Option is a functional option mutating a Config.
type Option func(*Config)

// NewConfig builds a Config from functional options. The base config
// checks assertions, nondeterministic scheduler, ts bound 0, no budgets,
// unlimited context switches for Explore.
func NewConfig(opts ...Option) *Config {
	c := &Config{ContextBound: -1}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithMaxTS bounds the pending-thread multiset ts (Section 4's MAX).
func WithMaxTS(n int) Option { return func(c *Config) { c.MaxTS = n } }

// WithSequentialization selects the transform: SeqKISS or SeqCB.
func WithSequentialization(mode string) Option {
	return func(c *Config) { c.Sequentialization = mode }
}

// WithContextSwitches sets K for the SeqCB transform (0 = default).
func WithContextSwitches(k int) Option { return func(c *Config) { c.ContextSwitches = k } }

// WithScheduler selects the generated schedule function's policy.
func WithScheduler(s Scheduler) Option { return func(c *Config) { c.Scheduler = s } }

// WithRaceTarget selects race checking (Figure 5) on the distinguished
// variable t.
func WithRaceTarget(t RaceTarget) Option { return func(c *Config) { c.RaceTarget = &t } }

// WithSummaries selects the summary-based sequential engine.
func WithSummaries() Option { return func(c *Config) { c.Summaries = true } }

// WithMaxStates bounds distinct explored states (path edges under
// Summaries). Zero means unlimited.
func WithMaxStates(n int) Option { return func(c *Config) { c.MaxStates = n } }

// WithMaxSteps bounds executed transitions. Zero means unlimited.
func WithMaxSteps(n int) Option { return func(c *Config) { c.MaxSteps = n } }

// WithMaxDepth bounds the trace length considered. Zero means unlimited.
func WithMaxDepth(n int) Option { return func(c *Config) { c.MaxDepth = n } }

// WithBFS selects breadth-first search (shortest counterexamples).
func WithBFS() Option { return func(c *Config) { c.BFS = true } }

// WithMacroSteps toggles macro-step compression (default on): the search
// folds each maximal deterministic run into one transition and stores
// only decision-point states, which usually cuts stored states, clones,
// and visited-set pressure by the run length; on multi-threaded programs
// it can store more states than the per-statement search. The verdict is
// the same either way. The depth-first search also reports the same
// failure position and certified trace. The breadth-first search reports
// a shortest trace either way, of the same length, but of several equally
// short failures the macro search may report another: it drains each
// micro-depth bucket in arrival order, and a fold reaches a bucket ahead
// of siblings the per-statement search would have put first. Each search
// reports the same result at every SearchWorkers count;
// WithMacroSteps(false) reproduces the per-statement search.
func WithMacroSteps(on bool) Option { return func(c *Config) { c.DisableMacroSteps = !on } }

// Visited-set representations (Config.VisitedMode).
const (
	// VisitedExact stores every state fingerprint exactly (the default).
	VisitedExact = "exact"
	// VisitedCompact stores fingerprints in a blocked Bloom filter at
	// ~8–16 bits per state; false positives only ever shrink the search.
	VisitedCompact = "compact"
)

// WithVisitedMode selects the visited-set representation: VisitedExact
// (bit-identical to the classic search) or VisitedCompact (an order of
// magnitude less memory; may under-explore, never over-reports).
func WithVisitedMode(mode string) Option { return func(c *Config) { c.VisitedMode = mode } }

// WithMemBudgetMB caps the search's memory footprint in MiB: the BFS
// frontier spills to disk past its half of the budget, and a compact
// visited filter is sized to the other half, or to the whole budget in
// the depth-first search, which never spills. 0 means unlimited.
func WithMemBudgetMB(n int) Option { return func(c *Config) { c.MemBudgetMB = n } }

// WithSearchWorkers runs the state-space search with n concurrent workers
// (n >= 1; results are bit-identical at every n). 0 restores the
// single-goroutine search, depth-first unless WithBFS is given.
func WithSearchWorkers(n int) Option { return func(c *Config) { c.SearchWorkers = n } }

// WithContextBound bounds context switches in Explore (negative:
// unlimited; 0: no switches).
func WithContextBound(n int) Option { return func(c *Config) { c.ContextBound = n } }

// WithContext makes the run cancelable: cancellation or deadline expiry
// yields a partial ResourceBound result with the matching Reason.
func WithContext(ctx context.Context) Option { return func(c *Config) { c.Context = ctx } }

// WithProgress registers a progress-event hook.
func WithProgress(fn func(Event)) Option { return func(c *Config) { c.Progress = fn } }

// collector builds this run's stats collector (always non-nil; timing-only
// when no progress hook is registered).
func (c *Config) collector() *stats.Collector {
	return stats.NewCollector(c.Progress, 0, 0)
}

// visitedCompact validates VisitedMode, reporting whether the compact
// filter is selected.
func (c *Config) visitedCompact() (bool, error) {
	switch c.VisitedMode {
	case "", VisitedExact:
		return false, nil
	case VisitedCompact:
		return true, nil
	}
	return false, fmt.Errorf("kiss: unknown visited mode %q (want %q or %q)",
		c.VisitedMode, VisitedExact, VisitedCompact)
}

// memoryBudget splits MemBudgetMB between the frontier's in-RAM share and
// the compact filter: half and half when both are bounded, all of it to
// the frontier under an exact visited set, and all of it to the filter in
// the depth-first search, whose stack never spills. No budget means no
// spilling; a compact filter then takes its default size.
func (c *Config) memoryBudget(compact bool) (frontierBytes, filterBytes int64) {
	if c.MemBudgetMB <= 0 {
		return 0, 0
	}
	total := int64(c.MemBudgetMB) << 20
	switch {
	case !compact:
		return total, 0
	case !c.BFS && c.SearchWorkers < 1:
		return 0, total
	}
	return total / 2, total / 2
}

// ikissOptions lowers the transformation knobs.
func (c *Config) ikissOptions() ikiss.Options {
	return ikiss.Options{MaxTS: c.MaxTS, Scheduler: c.Scheduler}
}

// Transform applies the assertion-checking translation (Figure 4) under
// this config, producing a sequential program.
func (c *Config) Transform(p *Program) (*Program, error) {
	cb, err := c.seqCB()
	if err != nil {
		return nil, err
	}
	var out *ast.Program
	if cb {
		out, err = cbseq.Transform(p.ast, c.cbOptions())
	} else {
		out, err = ikiss.Transform(p.ast, c.ikissOptions())
	}
	if err != nil {
		return nil, err
	}
	return &Program{ast: out, sequential: true, parseTime: p.parseTime}, nil
}

// seqCB validates Sequentialization and reports whether the CB transform
// is selected.
func (c *Config) seqCB() (bool, error) {
	switch c.Sequentialization {
	case "", SeqKISS:
		return false, nil
	case SeqCB:
		if c.ContextSwitches < 0 {
			return false, fmt.Errorf("kiss: negative context-switch bound %d", c.ContextSwitches)
		}
		return true, nil
	}
	return false, fmt.Errorf("kiss: unknown sequentialization %q (want %q or %q)",
		c.Sequentialization, SeqKISS, SeqCB)
}

// EffectiveContextSwitches is K for SeqCB after applying the default.
func (c *Config) EffectiveContextSwitches() int {
	if c.ContextSwitches > 0 {
		return c.ContextSwitches
	}
	return DefaultContextSwitches
}

func (c *Config) cbOptions() cbseq.Options {
	return cbseq.Options{ContextSwitches: c.EffectiveContextSwitches()}
}

// MemBudgetIgnored reports whether MemBudgetMB is set but the selected
// engine silently ignores it: the budget's frontier spilling lives in
// the breadth-first engine (BFS, or SearchWorkers >= 1, in Check and
// Explore alike), its filter sizing in every engine under VisitedCompact,
// and the summary engine has no frontier or filter at all — the default
// exact depth-first search pays it no attention. CLIs use this to warn
// and point at -bfs or -search-workers.
func (c *Config) MemBudgetIgnored() bool {
	if c.MemBudgetMB <= 0 {
		return false
	}
	if c.Summaries {
		return true
	}
	return !c.BFS && c.SearchWorkers < 1 && c.VisitedMode != VisitedCompact
}

// TransformRace applies the race-checking translation (Figure 5) for the
// given distinguished variable under this config.
func (c *Config) TransformRace(p *Program, t RaceTarget) (*Program, error) {
	out, err := ikiss.TransformRace(p.ast, t.internal(), c.ikissOptions())
	if err != nil {
		return nil, err
	}
	return &Program{ast: out, sequential: true, parseTime: p.parseTime}, nil
}

// Verdict is the outcome of a check.
type Verdict int

const (
	// Safe means the explored state space contains no failure.
	Safe Verdict = iota
	// Error means a failure is reachable; Result carries the trace.
	Error
	// ResourceBound means the budget ran out first (a Table 1 "timeout");
	// Result.Stats.Reason names which bound — including cancellation and
	// deadline expiry of a WithContext context.
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

// Result reports a check's verdict, metrics, and (for Error) both the
// raw sequential trace and the reconstructed concurrent trace.
type Result struct {
	Verdict Verdict
	// Message describes the failure (Error verdicts).
	Message string
	// Pos is the failing statement's source position (Error verdicts).
	Pos ast.Pos
	// Trace is the reconstructed concurrent error trace (Error verdicts
	// from the KISS pipeline).
	Trace *trace.Trace
	// SeqEvents is the raw sequential counterexample (Error verdicts).
	SeqEvents []sem.Event
	// States and Steps are explored-state and executed-transition counts
	// (also in Stats; kept here for the original API shape).
	States int
	Steps  int
	// Stats is the full metrics record: per-phase wall time, states/sec,
	// peak frontier and depth, visited-set size, fingerprint-audit
	// collisions, and — for ResourceBound verdicts — which bound tripped.
	Stats Stats
}

// String renders a one-line summary. ResourceBound names the specific
// bound that tripped (max-states, max-steps, deadline, canceled) — "we
// ran out of budget" and "the operator hit ^C" call for different
// reactions.
func (r *Result) String() string {
	counters := fmt.Sprintf("states=%d steps=%d", r.States, r.Steps)
	if r.Stats.CompressionRatio > 1 {
		counters += fmt.Sprintf(" compression=%.1fx", r.Stats.CompressionRatio)
	}
	switch r.Verdict {
	case Safe:
		return fmt.Sprintf("no bug found (%s)", counters)
	case Error:
		return fmt.Sprintf("error: %s (%s)", r.Message, counters)
	default:
		return fmt.Sprintf("resource bound exhausted (%s; %s)",
			stats.BoundName(r.Stats.Reason), counters)
	}
}

// Check runs the full KISS pipeline on p under the config: the Figure 4
// translation (or Figure 5 when RaceTarget is set), the sequential
// checker (explicit-state, or summary-based when Summaries is set), and
// counterexample-trace reconstruction. Programs already in the sequential
// fragment (Transform output) skip the translation. Cancellation of
// Context yields a partial ResourceBound result, never an error.
func (c *Config) Check(p *Program) (*Result, error) {
	col := c.collector()
	col.AddPhase(stats.PhaseParse, p.parseTime)

	cb, err := c.seqCB()
	if err != nil {
		return nil, err
	}
	if cb {
		if c.RaceTarget != nil {
			// An UnsupportedError (not a plain config error) so corpus
			// sweeps classify race-target fields as outside the CB
			// fragment instead of aborting the whole run.
			return nil, &cbseq.UnsupportedError{Reason: fmt.Sprintf("race checking needs the KISS translation (Figure 5); it is not supported under %q", SeqCB)}
		}
		if c.Summaries {
			return nil, fmt.Errorf("kiss: the summary engine is not supported under %q", SeqCB)
		}
	}

	seq := p
	if !p.sequential {
		col.Start(stats.PhaseTransform)
		var err error
		if c.RaceTarget != nil {
			seq, err = c.TransformRace(p, *c.RaceTarget)
		} else {
			seq, err = c.Transform(p)
		}
		col.End(stats.PhaseTransform)
		if err != nil {
			return nil, err
		}
	}
	if c.Summaries {
		return c.checkSummaries(seq, col)
	}

	out, fail, err := c.search(seq.ast, 0, col)
	if err != nil {
		return nil, err
	}
	if fail != nil {
		// A failing assert inside the generated check_r/check_w bodies is
		// the race monitor firing (Section 5): report it as a race on the
		// distinguished variable rather than as a raw assertion.
		if t := seq.ast.RaceTarget; t != nil &&
			(fail.Fn == ikiss.CheckRFn || fail.Fn == ikiss.CheckWFn) {
			kind := "read/write"
			if fail.Fn == ikiss.CheckWFn {
				kind = "write/write or read/write"
			}
			out.Message = fmt.Sprintf("race condition on %s (%s conflict)", t, kind)
		}
		if cb {
			// CB failures surface at the deferred assert in __cb_fin,
			// after the linking assumes validated the guessed snapshots.
			// Trace reconstruction assumes KISS-shaped events, so the raw
			// sequential counterexample is all the CB pipeline reports.
			if fail.Fn == cbseq.FinFn {
				n, plural := c.EffectiveContextSwitches(), "es"
				if n == 1 {
					plural = ""
				}
				out.Message = fmt.Sprintf(
					"assertion failure reachable within %d context switch%s", n, plural)
			}
		} else {
			out.Trace = trace.Reconstruct(out.SeqEvents)
		}
	}
	col.End(stats.PhaseCheck)
	col.Finalize(&out.Stats)
	return out, nil
}

// search starts PhaseCheck, compiles prog and runs the explicit-state
// search on it at context bound bound: 0 for the sequential check of a
// translated program, Config.ContextBound for Explore. It returns the
// Result with its verdict, failure, raw trace and search Stats filled in,
// and the failure itself (nil unless the verdict is Error). The caller
// ends PhaseCheck and finalizes the Stats.
func (c *Config) search(prog *ast.Program, bound int, col *stats.Collector) (*Result, *sem.Failure, error) {
	compactVis, err := c.visitedCompact()
	if err != nil {
		return nil, nil, err
	}
	frontierBytes, filterBytes := c.memoryBudget(compactVis)
	col.Start(stats.PhaseCheck)
	compiled, err := sem.Compile(prog)
	if err != nil {
		col.End(stats.PhaseCheck)
		return nil, nil, err
	}
	r := concheck.Check(compiled, concheck.Options{
		MaxStates:         c.MaxStates,
		MaxSteps:          c.MaxSteps,
		MaxDepth:          c.MaxDepth,
		ContextBound:      bound,
		BFS:               c.BFS,
		DisableMacroSteps: c.DisableMacroSteps,
		SearchWorkers:     c.SearchWorkers,
		VisitedCompact:    compactVis,
		VisitedBytes:      filterBytes,
		FrontierBudget:    frontierBytes,
		Context:           c.Context,
		Collector:         col,
	})
	out := &Result{Verdict: Verdict(r.Verdict), States: r.States, Steps: r.Steps}
	if r.Verdict == concheck.Error {
		out.Message = r.Failure.Msg
		out.Pos = r.Failure.Pos
		out.SeqEvents = r.Trace
	}
	// The per-statement engines leave StatesStepped at zero, meaning
	// "equal to States".
	stepped, ratio := r.StatesStepped, 1.0
	if stepped <= 0 {
		stepped = r.States
	}
	if r.States > 0 {
		ratio = float64(stepped) / float64(r.States)
	}
	out.Stats = Stats{
		States:           r.States,
		Steps:            r.Steps,
		StatesStepped:    stepped,
		CompressionRatio: ratio,
		Visited:          r.Visited,
		PeakFrontier:     r.PeakFrontier,
		PeakDepth:        r.PeakDepth,
		HashCollisions:   r.HashCollisions,
		Reason:           r.Reason,
		Parallel:         r.Parallel,
		Memory:           r.Memory,
	}
	return out, r.Failure, nil
}

// checkSummaries is the Summaries engine path of Check.
func (c *Config) checkSummaries(seq *Program, col *stats.Collector) (*Result, error) {
	col.Start(stats.PhaseCheck)
	compiled, err := sem.Compile(seq.ast)
	if err != nil {
		col.End(stats.PhaseCheck)
		return nil, err
	}
	r, err := boolcheck.Check(compiled, boolcheck.Options{
		MaxPathEdges: c.MaxStates,
		Context:      c.Context,
		Collector:    col,
	})
	col.End(stats.PhaseCheck)
	if err != nil {
		return nil, err
	}
	out := &Result{Verdict: Verdict(r.Verdict), States: r.PathEdges}
	if r.Verdict == concheck.Error {
		out.Message = r.Failure.Msg
		out.Pos = r.Failure.Pos
	}
	out.Stats = Stats{States: r.PathEdges, Visited: r.PathEdges, Reason: r.Reason}
	col.Finalize(&out.Stats)
	return out, nil
}

// Explore runs the baseline interleaving-exploring model checker directly
// on the concurrent program — the approach whose exponential blowup KISS
// avoids — under the config's budgets, ContextBound, context, and
// progress hook.
func (c *Config) Explore(p *Program) (*Result, error) {
	col := c.collector()
	col.AddPhase(stats.PhaseParse, p.parseTime)
	out, _, err := c.search(p.ast, c.ContextBound, col)
	if err != nil {
		return nil, err
	}
	col.End(stats.PhaseCheck)
	col.Finalize(&out.Stats)
	return out, nil
}

// Certify replays the original concurrent program p along the
// reconstructed schedule of an Error result, confirming that the exact
// interleaving the trace describes really reaches a failure — the
// machine-checked form of the paper's "the error trace leading to the
// assertion failure in P is easily constructed from the error trace in
// P'". It returns (true, nil) when the failure replays, and accumulates
// the replay wall time into res.Stats.Phases.Replay.
func (c *Config) Certify(p *Program, res *Result) (bool, error) {
	if res == nil || res.Verdict != Error || res.Trace == nil {
		return false, fmt.Errorf("kiss: Certify requires an Error result with a reconstructed trace")
	}
	start := time.Now()
	compiled, err := sem.Compile(p.ast)
	if err != nil {
		return false, err
	}
	rr := trace.Replay(compiled, res.Trace.Schedule(), c.MaxStates)
	res.Stats.Phases.Replay += time.Since(start)
	return rr.Certified, nil
}

// Check runs the full pipeline on p under a config built from opts — the
// unified entry point. See Config.Check.
func Check(p *Program, opts ...Option) (*Result, error) {
	return NewConfig(opts...).Check(p)
}

// Explore runs the baseline interleaving explorer on p under a config
// built from opts. See Config.Explore.
func Explore(p *Program, opts ...Option) (*Result, error) {
	return NewConfig(opts...).Explore(p)
}

// The long-deprecated Options/Budget wrapper layer (the pre-Config API:
// CheckAssertions, CheckRace, CheckSequential, CheckAssertionsSummaries,
// CertifyTrace, ExploreConcurrent, and the package-level Transform/
// TransformRace) was removed when the API froze at v1 — Config and the
// functional options above are the one public surface, matching the
// versioned wire format in config_wire.go. See DESIGN.md, "the v1 API
// freeze".

// TransformStats re-exports the instrumentation blowup statistics
// (Section 4's "small constant blowup" quantities).
type TransformStats = ikiss.Stats

// MeasureTransform computes the blowup statistics between a source
// program and its transformation output.
func MeasureTransform(src, out *Program) TransformStats {
	return ikiss.Measure(src.ast, out.ast)
}
