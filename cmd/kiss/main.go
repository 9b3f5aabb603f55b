// Command kiss is the command-line front end of the KISS checker: it
// parses a concurrent program in the parallel language (conventionally a
// .pl file), applies the sequentializing transformation, runs the
// sequential model checker, and reports a reconstructed concurrent error
// trace — the full pipeline of Figure 1 of the paper.
//
// Usage:
//
//	kiss check [-max-ts N] [-bfs] [-certify] [-summaries] prog.pl  assertion checking
//	kiss race  [-max-ts N] -target T [-max-states N] prog.pl       race checking
//	kiss transform [-max-ts N] [-target T] prog.pl      print the sequential program
//	kiss explore [-context-bound N] prog.pl             baseline interleaving exploration
//	kiss print prog.pl                                  parse, lower, and pretty-print
//	kiss cfg [-fn NAME] [-max-ts N] prog.pl             Graphviz DOT of the instrumented CFG
//
// Flag names mirror the kiss.Config fields (and kissbench flags): -max-ts,
// -max-states, -max-steps, -max-depth, -bfs, -context-bound, -timeout,
// -search-workers, -macro-steps, -progress.
// -macro-steps=false disables macro-step compression and reproduces the
// per-statement search. -progress streams search metrics to stderr
// while the checker runs; -timeout bounds wall time and reports the
// partial result; -search-workers N runs the state-space search with N
// workers (verdicts and counters are identical at every worker count).
// -cpuprofile FILE and -memprofile FILE write a CPU profile of the local
// check and a heap profile taken after it (runtime/pprof format).
//
// Memory knobs (PR 9): -mem-budget-mb M caps search memory — the BFS
// frontier spills frames to disk runs past its share (results
// stay bit-identical; spilling is pure eviction) and, under -visited
// compact, the rest sizes a blocked-Bloom visited filter (~8-16
// bits/state instead of a full snapshot per state; may prune revisits
// spuriously, so Safe becomes "no bug found within the filter's
// resolution"). Spill files go to the system temp directory, which
// TMPDIR redirects.
//
// Sequentialization (PR 10): -seq cb -context-switches K replaces the
// KISS translation with the context-bounded (CB) transform for check and
// transform: per-global snapshots are guessed at each of K context
// switches and validated by linking assumes at the end, so bugs needing a
// preempted thread to *resume* — which the KISS discipline can never
// schedule — become reachable at the price of branching on the guessed
// values. CB handles the scalar-globals fragment only (no heap, no race
// targets); -seq kiss (the default) is the paper's translation.
//
// check and race also take -server URL to submit the job to a running
// kissd daemon instead of checking in-process: the daemon may answer
// from its content-addressed result cache (marked "[cached]"), and
// -timeout becomes the job's server-side deadline. kiss -version prints
// the build version.
//
// The race target T is either a global variable name ("stopped") or
// record.field ("DEVICE_EXTENSION.stoppingFlag").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	kiss "repro"
	"repro/internal/profile"
	"repro/internal/service"
	"repro/internal/stats"
)

// version is stamped by the Makefile via
// -ldflags "-X main.version=$(VERSION)"; "dev" for plain go build.
var version = "dev"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "check":
		err = runCheck(args)
	case "race":
		err = runRace(args)
	case "transform":
		err = runTransform(args)
	case "explore":
		err = runExplore(args)
	case "print":
		err = runPrint(args)
	case "cfg":
		err = runCFG(args)
	case "-version", "--version", "version":
		fmt.Printf("kiss %s\n", version)
		return
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "kiss: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kiss: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `kiss - sequentializing checker for concurrent programs (Qadeer & Wu, PLDI 2004)

commands:
  check     [-seq kiss|cb] [-context-switches K] [-max-ts N] [-max-states N] [-max-steps N] [-max-depth N] [-bfs] [-timeout D] [-progress] prog.pl
  race      [-max-ts N] -target T [-max-states N] [-max-steps N] [-max-depth N] [-timeout D] [-progress] prog.pl
  transform [-seq kiss|cb] [-context-switches K] [-max-ts N] [-target T] prog.pl
  explore   [-context-bound N] [-max-states N] [-timeout D] [-progress] prog.pl
  print     prog.pl
  cfg       [-fn NAME] [-max-ts N] [-target T] prog.pl   (DOT of the transformed CFG)

The race target T is a global name or Record.Field.
`)
}

func parseTarget(s string) (kiss.RaceTarget, error) {
	if s == "" {
		return kiss.RaceTarget{}, fmt.Errorf("missing -target")
	}
	if rec, field, ok := strings.Cut(s, "."); ok {
		return kiss.RaceTarget{Record: rec, Field: field}, nil
	}
	return kiss.RaceTarget{Global: s}, nil
}

func loadProgram(fs *flag.FlagSet) (*kiss.Program, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one program file, got %d args", fs.NArg())
	}
	return kiss.ParseFile(fs.Arg(0))
}

// budgetFlags registers the search-budget flags shared by the checking
// commands, spelled exactly like the kiss.Config fields they set.
type budgetFlags struct {
	maxStates, maxSteps, maxDepth *int
	searchWorkers                 *int
	macroSteps                    *bool
	visitedMode                   *string
	memBudgetMB                   *int
	timeout                       *time.Duration
	progress                      *bool
	server                        *string
	cpuProfile, memProfile        *string
}

func addBudgetFlags(fs *flag.FlagSet) *budgetFlags {
	return &budgetFlags{
		maxStates:     fs.Int("max-states", 0, "state budget (0 = unlimited)"),
		maxSteps:      fs.Int("max-steps", 0, "step budget (0 = unlimited)"),
		maxDepth:      fs.Int("max-depth", 0, "search depth bound (0 = unlimited)"),
		searchWorkers: fs.Int("search-workers", 0, "parallel search workers (0 = sequential; results identical at every count)"),
		macroSteps:    fs.Bool("macro-steps", true, "collapse deterministic runs into single transitions (-macro-steps=false reproduces the per-statement search)"),
		visitedMode:   fs.String("visited", "", "visited-set representation: exact (default) or compact (blocked-Bloom filter, ~8-16 bits/state)"),
		memBudgetMB:   fs.Int("mem-budget-mb", 0, "search memory budget in MiB: the frontier spills to disk past its share, a compact filter is sized to the rest (0 = unlimited)"),
		timeout:       fs.Duration("timeout", 0, "wall-time bound, e.g. 30s (0 = unlimited)"),
		progress:      fs.Bool("progress", false, "stream search metrics to stderr while running"),
		server:        fs.String("server", "", "base URL of a running kissd (e.g. http://localhost:8344): submit the check to the daemon instead of checking locally"),
		cpuProfile:    fs.String("cpuprofile", "", "write a CPU profile of the check to this file (go tool pprof format)"),
		memProfile:    fs.String("memprofile", "", "write a heap profile, taken after the check, to this file (go tool pprof format)"),
	}
}

// profiled runs fn under the -cpuprofile and -memprofile flags: a CPU
// profile of fn, and a heap profile taken once it returns.
func (bf *budgetFlags) profiled(fn func() error) error {
	stop, err := profile.Start(*bf.cpuProfile, *bf.memProfile)
	if err != nil {
		return err
	}
	err = fn()
	if serr := stop(); err == nil {
		err = serr
	}
	return err
}

// options converts the parsed flags into functional options. The returned
// cancel func must be called when checking finishes (it releases the
// timeout context's timer).
func (bf *budgetFlags) options() ([]kiss.Option, context.CancelFunc) {
	opts := []kiss.Option{
		kiss.WithMaxStates(*bf.maxStates),
		kiss.WithMaxSteps(*bf.maxSteps),
		kiss.WithMaxDepth(*bf.maxDepth),
		kiss.WithSearchWorkers(*bf.searchWorkers),
		kiss.WithMacroSteps(*bf.macroSteps),
		kiss.WithVisitedMode(*bf.visitedMode),
		kiss.WithMemBudgetMB(*bf.memBudgetMB),
	}
	cancel := context.CancelFunc(func() {})
	if *bf.timeout > 0 {
		var ctx context.Context
		ctx, cancel = context.WithTimeout(context.Background(), *bf.timeout)
		opts = append(opts, kiss.WithContext(ctx))
	}
	if *bf.progress {
		opts = append(opts, kiss.WithProgress(printProgress))
	}
	return opts, cancel
}

// addSeqFlags registers the sequentialization axis shared by check and
// transform.
func addSeqFlags(fs *flag.FlagSet) (seq *string, contextSwitches *int) {
	seq = fs.String("seq", "", `sequentialization: "kiss" (default, the paper's translation) or "cb" (context-bounded, guessed round snapshots)`)
	contextSwitches = fs.Int("context-switches", 0,
		fmt.Sprintf("CB context-switch bound K (0 = default %d; -seq cb only)", kiss.DefaultContextSwitches))
	return seq, contextSwitches
}

// warnMemBudget points out a configured memory budget the selected engine
// would silently ignore: the budget machinery (spilling frontier, sized
// visited filter) lives in the BFS engines only.
func warnMemBudget(cfg *kiss.Config) {
	if cfg.MemBudgetIgnored() {
		fmt.Fprintln(os.Stderr, "kiss: warning: -mem-budget-mb has no effect on the default depth-first search; add -search-workers N (or -bfs, on check) to engage the spilling frontier")
	}
}

func printProgress(e kiss.Event) {
	if e.Final {
		fmt.Fprintf(os.Stderr, "progress: done phase=%s states=%d steps=%d visited=%d elapsed=%s\n",
			e.Phase, e.States, e.Steps, e.Visited, e.Elapsed.Round(time.Millisecond))
		return
	}
	fmt.Fprintf(os.Stderr, "progress: phase=%s states=%d steps=%d frontier=%d depth=%d visited=%d rate=%.0f/s elapsed=%s\n",
		e.Phase, e.States, e.Steps, e.Frontier, e.Depth, e.Visited, e.StatesPerSec, e.Elapsed.Round(time.Millisecond))
}

// remoteCheck submits the raw program source to a running kissd and
// prints the wire result — the service-backed twin of the local
// parse/check/report path. The daemon parses and checks (possibly
// answering from its content-addressed cache); -timeout becomes the
// job's server-side deadline.
func remoteCheck(server, path string, cfg *kiss.Config, timeout time.Duration) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	resp, err := service.NewClient(server).Do(context.Background(),
		service.CheckRequest{Source: string(data), Config: cfg},
		service.WithTimeout(timeout))
	if err != nil {
		return err
	}
	if resp.State == service.StateFailed {
		return fmt.Errorf("remote check failed: %s", resp.Error)
	}
	reportWire(resp.Result, resp.Cached)
	return nil
}

// reportWire mirrors report for the serialized result shape, marking
// cache-served answers.
func reportWire(res *service.Result, cached bool) {
	note := ""
	if cached {
		note = " [cached]"
	}
	switch res.Verdict {
	case kiss.Safe.String():
		fmt.Printf("result: no bug found (states=%d steps=%d)%s\n", res.States, res.Steps, note)
	case kiss.Error.String():
		fmt.Printf("result: ERROR at %s: %s (states=%d steps=%d)%s\n", res.Pos, res.Message, res.States, res.Steps, note)
		if res.Trace != "" {
			fmt.Println()
			fmt.Print(res.Trace)
		}
	default:
		fmt.Printf("result: resource bound exhausted (%s; states=%d steps=%d)%s\n",
			stats.BoundName(res.Stats.Reason), res.States, res.Steps, note)
	}
}

func report(res *kiss.Result) {
	switch res.Verdict {
	case kiss.Safe:
		fmt.Printf("result: no bug found (states=%d steps=%d)\n", res.States, res.Steps)
	case kiss.ResourceBound:
		// Name the specific bound that tripped — a deadline and a state
		// budget call for different operator reactions.
		fmt.Printf("result: %s\n", res)
	case kiss.Error:
		fmt.Printf("result: ERROR at %s: %s (states=%d steps=%d)\n", res.Pos, res.Message, res.States, res.Steps)
		if res.Trace != nil {
			fmt.Println()
			fmt.Print(res.Trace.Format())
		}
	}
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	maxTS := fs.Int("max-ts", 0, "bound MAX on the pending-thread multiset ts")
	bf := addBudgetFlags(fs)
	seq, contextSwitches := addSeqFlags(fs)
	bfs := fs.Bool("bfs", false, "breadth-first search (shortest counterexample)")
	certify := fs.Bool("certify", false, "on error, replay the reconstructed schedule on the concurrent program")
	summaries := fs.Bool("summaries", false, "use the summary-based engine (pointer-free fragment; handles recursion; no trace)")
	fs.Parse(args)
	opts, cancel := bf.options()
	defer cancel()
	opts = append(opts, kiss.WithMaxTS(*maxTS),
		kiss.WithSequentialization(*seq), kiss.WithContextSwitches(*contextSwitches))
	if *bfs {
		opts = append(opts, kiss.WithBFS())
	}
	if *summaries {
		opts = append(opts, kiss.WithSummaries())
	}
	cfg := kiss.NewConfig(opts...)
	warnMemBudget(cfg)
	if *bf.server != "" {
		if *certify {
			return fmt.Errorf("-certify replays the trace locally and is incompatible with -server")
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("expected exactly one program file, got %d args", fs.NArg())
		}
		return remoteCheck(*bf.server, fs.Arg(0), cfg, *bf.timeout)
	}
	prog, err := loadProgram(fs)
	if err != nil {
		return err
	}
	var res *kiss.Result
	if err := bf.profiled(func() (err error) { res, err = cfg.Check(prog); return err }); err != nil {
		return err
	}
	report(res)
	if *certify && res.Verdict == kiss.Error && res.Trace != nil {
		ok, err := cfg.Certify(prog, res)
		if err != nil {
			return err
		}
		fmt.Printf("\nguided replay of schedule %v: certified=%v\n", res.Trace.Schedule(), ok)
	}
	return nil
}

func runRace(args []string) error {
	fs := flag.NewFlagSet("race", flag.ExitOnError)
	maxTS := fs.Int("max-ts", 0, "bound MAX on the pending-thread multiset ts")
	target := fs.String("target", "", "race target: global name or Record.Field")
	bf := addBudgetFlags(fs)
	fs.Parse(args)
	t, err := parseTarget(*target)
	if err != nil {
		return err
	}
	opts, cancel := bf.options()
	defer cancel()
	opts = append(opts, kiss.WithMaxTS(*maxTS), kiss.WithRaceTarget(t))
	cfg := kiss.NewConfig(opts...)
	warnMemBudget(cfg)
	if *bf.server != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("expected exactly one program file, got %d args", fs.NArg())
		}
		fmt.Printf("race check on %s:\n", t)
		return remoteCheck(*bf.server, fs.Arg(0), cfg, *bf.timeout)
	}
	prog, err := loadProgram(fs)
	if err != nil {
		return err
	}
	var res *kiss.Result
	if err := bf.profiled(func() (err error) { res, err = cfg.Check(prog); return err }); err != nil {
		return err
	}
	fmt.Printf("race check on %s:\n", t)
	report(res)
	return nil
}

func runTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	maxTS := fs.Int("max-ts", 0, "bound MAX on the pending-thread multiset ts")
	target := fs.String("target", "", "optional race target: instrument for race checking")
	seqMode, contextSwitches := addSeqFlags(fs)
	stats := fs.Bool("stats", false, "print instrumentation blowup statistics instead of the program")
	fs.Parse(args)
	prog, err := loadProgram(fs)
	if err != nil {
		return err
	}
	seq, err := transformed(prog, *maxTS, *target, *seqMode, *contextSwitches)
	if err != nil {
		return err
	}
	if *stats {
		fmt.Println(kiss.MeasureTransform(prog, seq))
		return nil
	}
	fmt.Print(seq.Source())
	return nil
}

func runExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	contextBound := fs.Int("context-bound", -1, "context-switch bound (-1 = unlimited)")
	bf := addBudgetFlags(fs)
	fs.Parse(args)
	if *bf.server != "" {
		return fmt.Errorf("explore runs the unreduced interleaving baseline, which kissd does not serve; run it locally")
	}
	prog, err := loadProgram(fs)
	if err != nil {
		return err
	}
	opts, cancel := bf.options()
	defer cancel()
	cfg := kiss.NewConfig(append(opts, kiss.WithContextBound(*contextBound))...)
	warnMemBudget(cfg)
	var res *kiss.Result
	if err := bf.profiled(func() (err error) { res, err = cfg.Explore(prog); return err }); err != nil {
		return err
	}
	report(res)
	return nil
}

// transformed applies the selected sequentialization (KISS or CB),
// race-instrumented when a target is given — the shared front half of
// transform and cfg. Race instrumentation needs the KISS translation.
func transformed(prog *kiss.Program, maxTS int, target, seq string, contextSwitches int) (*kiss.Program, error) {
	cfg := kiss.NewConfig(kiss.WithMaxTS(maxTS),
		kiss.WithSequentialization(seq), kiss.WithContextSwitches(contextSwitches))
	if target == "" {
		return cfg.Transform(prog)
	}
	if seq == kiss.SeqCB {
		return nil, fmt.Errorf("-target requires the KISS translation; it is not supported under -seq %s", kiss.SeqCB)
	}
	t, err := parseTarget(target)
	if err != nil {
		return nil, err
	}
	return cfg.TransformRace(prog, t)
}

func runCFG(args []string) error {
	fs := flag.NewFlagSet("cfg", flag.ExitOnError)
	fn := fs.String("fn", "main", "function to render")
	maxTS := fs.Int("max-ts", 0, "bound MAX on the pending-thread multiset ts")
	target := fs.String("target", "", "optional race target: render the race-instrumented program")
	fs.Parse(args)
	prog, err := loadProgram(fs)
	if err != nil {
		return err
	}
	seq, err := transformed(prog, *maxTS, *target, "", 0)
	if err != nil {
		return err
	}
	dot, err := seq.DotCFG(*fn)
	if err != nil {
		return err
	}
	fmt.Print(dot)
	return nil
}

func runPrint(args []string) error {
	fs := flag.NewFlagSet("print", flag.ExitOnError)
	fs.Parse(args)
	prog, err := loadProgram(fs)
	if err != nil {
		return err
	}
	fmt.Print(prog.Source())
	return nil
}
