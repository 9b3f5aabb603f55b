// Command kissbench regenerates every experimental result of the KISS
// paper (see EXPERIMENTS.md for the experiment index):
//
//	kissbench -table1     Table 1: permissive-harness races, 18 drivers
//	kissbench -table2     Table 2: refined-harness rerun of Table 1 races
//	kissbench -refcount   Section 6 reference-counting experiments
//	kissbench -blowup     interleaving-blowup ablation (Section 1 claim)
//	kissbench -coverage   ts coverage/cost ablation (Section 4 knob)
//	kissbench -lockset    lockset-baseline flexibility comparison (Section 6.1)
//	kissbench -contextbound  context-bound coverage study (Section 2 claim)
//	kissbench -schedulers    scheduler-policy study (Section 4 remark)
//	kissbench -seqbench      KISS vs CB(K) sequentialization ablation
//	kissbench -all        everything but -seqbench
//
// Performance is measured by the end-to-end benchmark under bench/
// (bash bench/run.sh), not by kissbench.
//
// Optional: -drivers a,b,c restricts the corpus tables to named drivers;
// -max-states N overrides the per-field state budget (spelled like the
// kiss.Config field and the kiss binary's flag); -workers N bounds the
// corpus worker pool (0 = one worker per CPU, 1 = sequential);
// -search-workers N parallelizes each individual state-space search (the
// auto-sized field pool shrinks to keep the total core budget). Results
// are identical at every -workers and -search-workers setting; only
// wall-clock changes.
//
// Observability: -json emits one JSON record per corpus entry (JSON
// Lines) with the full metrics payload — per-phase wall time, states/sec,
// peak frontier and depth, visited-set size, and the specific budget-trip
// reason (see EXPERIMENTS.md, "Reading the metrics"). -progress streams
// per-field search events to stderr. -timeout D bounds the whole corpus
// run; on expiry the tables render the completed prefix and unchecked
// fields are marked canceled. -cpuprofile FILE and -memprofile FILE
// write a CPU profile of the runs and a heap profile taken after them
// (runtime/pprof format).
//
// -server URL submits the corpus table checks to a running kissd daemon
// instead of checking in-process: repeated runs of the same table are
// answered from the daemon's content-addressed result cache with
// identical verdicts and counters. -version prints the build version.
//
// -seqbench runs the sequentialization ablation (PR 10): KISS vs CB(K)
// at K = 2, 3, 4 vs the concurrent ground truth over the assertion
// scenarios (internal/drivers.Scenarios) plus -seq-programs random
// programs. It exits non-zero if any CB arm reports a bug the oracle
// refutes, if raising K ever loses a bug, or if -min-cb-only N is given
// and fewer than N truth-confirmed bugs were found by CB but missed by
// KISS. For the corpus tables, -seq kiss|cb and -context-switches K
// select the transform (the race-target corpus is outside the CB
// fragment and reports per-field "unsupported" under -seq cb).
//
// -o FILE writes the run's JSON output (from -json or -seqbench) to FILE
// atomically — the bytes are staged in memory, written to a temp file,
// and renamed into place only when non-empty — so an interrupted or
// failed run can never leave a truncated artifact behind; kissbench
// exits non-zero rather than write an empty payload. The artifact is
// written even when a gate trips, so a failing run still leaves the
// evidence to inspect.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/profile"
)

// benchOutput stages JSON output for -o: everything written to Writer()
// lands in memory and Flush() installs it atomically (temp + rename),
// refusing empty payloads. Without -o, Writer() is plain stdout and
// Flush() is a no-op.
type benchOutput struct {
	path string
	buf  bytes.Buffer
}

func (o *benchOutput) Writer() io.Writer {
	if o.path == "" {
		return os.Stdout
	}
	return &o.buf
}

func (o *benchOutput) Flush() error {
	if o.path == "" {
		return nil
	}
	if o.buf.Len() == 0 {
		return fmt.Errorf("refusing to write empty bench artifact %s", o.path)
	}
	tmp, err := os.CreateTemp(filepath.Dir(o.path), ".kissbench-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(o.buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp makes 0600 files; published artifacts are world-readable.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), o.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	fmt.Fprintf(os.Stderr, "kissbench: wrote %s (%d bytes)\n", o.path, o.buf.Len())
	return nil
}

// version is stamped by the Makefile via
// -ldflags "-X main.version=$(VERSION)"; "dev" for plain go build.
var version = "dev"

func main() {
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	table2 := flag.Bool("table2", false, "regenerate Table 2")
	refcount := flag.Bool("refcount", false, "run the reference-counting experiments")
	blowup := flag.Bool("blowup", false, "run the interleaving-blowup study")
	coverage := flag.Bool("coverage", false, "run the ts coverage/cost study")
	locksetCmp := flag.Bool("lockset", false, "run the lockset-baseline flexibility comparison")
	contextBound := flag.Bool("contextbound", false, "run the context-bound coverage study")
	schedulers := flag.Bool("schedulers", false, "run the scheduler-policy study")
	seqbench := flag.Bool("seqbench", false, "run the sequentialization ablation: KISS vs CB(K) vs the concurrent ground truth on the assertion scenarios and random programs")
	seqPrograms := flag.Int("seq-programs", 0, "with -seqbench: random-program population size (0 = default, negative = scenarios only)")
	minCBOnly := flag.Int("min-cb-only", 0, "with -seqbench: fail unless at least N truth-confirmed bugs are found by CB but missed by KISS (0 = no check)")
	seqMode := flag.String("seq", "", `sequentialization for the corpus tables: "kiss" (default) or "cb" (context-bounded; the race-target corpus reports per-field "unsupported")`)
	contextSwitches := flag.Int("context-switches", 0, "CB context-switch bound K for the corpus tables (0 = default; -seq cb only)")
	outFile := flag.String("o", "", "write JSON output to this file atomically (temp + rename); exits non-zero on an empty payload")
	all := flag.Bool("all", false, "run everything")
	driversFlag := flag.String("drivers", "", "comma-separated driver subset for the tables")
	maxStates := flag.Int("max-states", 0, "per-field state budget override (0 = default)")
	workers := flag.Int("workers", 0, "concurrent field checks (0 = one per CPU, 1 = sequential)")
	searchWorkers := flag.Int("search-workers", 0, "workers per state-space search (0 = sequential search; >0 shrinks the auto-sized field pool to share the cores)")
	blowupN := flag.Int("blowup-threads", 6, "max thread count for the blowup study")
	jsonOut := flag.Bool("json", false, "emit per-field JSON metrics records (JSON Lines) for the corpus tables")
	stripTiming := flag.Bool("strip-timing", false, "with -json: zero the wall-clock Stats fields so two runs diff byte-for-byte at any worker count")
	progress := flag.Bool("progress", false, "stream per-field search progress to stderr")
	timeout := flag.Duration("timeout", 0, "wall-time bound for the corpus runs, e.g. 10m (0 = unlimited)")
	server := flag.String("server", "", "base URL of a running kissd or kiss-coord: submit corpus-table checks over HTTP instead of checking in-process")
	batch := flag.Bool("batch", false, "with -server pointing at a kiss-coord coordinator: submit the corpus as one /v1/batch instead of per-field /v1/check calls")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the runs to this file (go tool pprof format)")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after the runs, to this file (go tool pprof format)")
	flag.Parse()

	if *showVersion {
		fmt.Printf("kissbench %s\n", version)
		return
	}
	if *all {
		*table1, *table2, *refcount, *blowup, *coverage, *locksetCmp, *contextBound, *schedulers = true, true, true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*refcount && !*blowup && !*coverage && !*locksetCmp && !*contextBound && !*schedulers && !*seqbench {
		flag.Usage()
		os.Exit(2)
	}

	opts := eval.Options{
		Workers: *workers, SearchWorkers: *searchWorkers, Server: *server, Batch: *batch,
		Sequentialization: *seqMode, ContextSwitches: *contextSwitches,
	}
	if *batch && *server == "" {
		fmt.Fprintln(os.Stderr, "kissbench: -batch requires -server (a kiss-coord coordinator)")
		os.Exit(2)
	}
	if *maxStates > 0 {
		opts.MaxStates = *maxStates
	}
	if *driversFlag != "" {
		opts.Drivers = map[string]bool{}
		for _, d := range strings.Split(*driversFlag, ",") {
			opts.Drivers[strings.TrimSpace(d)] = true
		}
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}
	if *progress {
		// The hook is called from concurrent workers; serialize the writes.
		var mu sync.Mutex
		opts.Progress = func(e eval.FieldEvent) {
			mu.Lock()
			defer mu.Unlock()
			if e.Event.Final {
				fmt.Fprintf(os.Stderr, "progress: %s.%s done states=%d elapsed=%s\n",
					e.Driver, e.Field, e.Event.States, e.Event.Elapsed.Round(time.Millisecond))
				return
			}
			fmt.Fprintf(os.Stderr, "progress: %s.%s states=%d frontier=%d visited=%d rate=%.0f/s\n",
				e.Driver, e.Field, e.Event.States, e.Event.Frontier, e.Event.Visited, e.Event.StatesPerSec)
		}
	}

	writeJSON := eval.WriteJSON
	if *stripTiming {
		writeJSON = eval.WriteJSONDeterministic
	}
	out := &benchOutput{path: *outFile}
	exitCode := 0
	stop, err := profile.Start(*cpuProfile, *memProfile)
	fatal(err)
	stopProfile = stop

	var t1 []*eval.DriverResult
	if *table1 || *table2 {
		var err error
		t1, err = eval.RunCorpus(opts)
		fatal(err)
	}
	if *table1 {
		if *jsonOut {
			fatal(writeJSON(out.Writer(), t1))
		} else {
			fmt.Println(eval.FormatTable1(t1))
			printMismatches("Table 1", eval.CompareTable1(t1))
		}
	}
	if *table2 {
		opts2 := opts
		opts2.Refined = true
		opts2.Only = eval.RacedFields(t1)
		t2, err := eval.RunCorpus(opts2)
		fatal(err)
		if *jsonOut {
			fatal(writeJSON(out.Writer(), t2))
		} else {
			fmt.Println(eval.FormatTable2(t2))
			printMismatches("Table 2", eval.CompareTable2(t2))
		}
	}
	if *refcount {
		rows, err := eval.RunRefcount()
		fatal(err)
		fmt.Println(eval.FormatRefcount(rows))
	}
	if *blowup {
		rows, err := eval.RunBlowup(*blowupN)
		fatal(err)
		fmt.Println(eval.FormatBlowup(rows))
	}
	if *coverage {
		rows, err := eval.RunCoverage(4, 5)
		fatal(err)
		fmt.Println(eval.FormatCoverage(rows))
	}
	if *locksetCmp {
		rows, err := eval.RunLocksetComparison()
		fatal(err)
		fmt.Println(eval.FormatLocksetComparison(rows))
	}
	if *contextBound {
		s, err := eval.RunContextBound(80, 4)
		fatal(err)
		fmt.Println(eval.FormatContextBound(s))
	}
	if *schedulers {
		s, err := eval.RunSchedulerStudy(60)
		fatal(err)
		fmt.Println(eval.FormatSchedulerStudy(s))
	}
	if *seqbench {
		rep, err := eval.RunSeqAblation(eval.SeqAblationOptions{
			Programs:      *seqPrograms,
			MaxStates:     opts.MaxStates,
			Workers:       *workers,
			SearchWorkers: *searchWorkers,
		})
		fatal(err)
		if *jsonOut || *outFile != "" {
			fatal(eval.WriteSeqAblation(out.Writer(), rep))
		}
		if !*jsonOut {
			fmt.Print(eval.FormatSeqAblation(rep))
		}
		// Soundness and monotonicity are correctness properties, not
		// tunable thresholds: any violation fails the run. Gates set
		// exitCode instead of exiting so the -o artifact still flushes.
		if !rep.Sound || !rep.Monotone {
			fmt.Fprintf(os.Stderr, "kissbench: seqbench: sound=%v monotone=%v (%d violations)\n",
				rep.Sound, rep.Monotone, len(rep.Violations))
			exitCode = 1
		}
		if *minCBOnly > 0 && rep.CBOnly < *minCBOnly {
			fmt.Fprintf(os.Stderr, "kissbench: seqbench: only %d CB-only bugs found, required %d\n", rep.CBOnly, *minCBOnly)
			exitCode = 1
		}
	}
	fatal(out.Flush())
	fatal(stopProfile())
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// stopProfile ends the -cpuprofile and -memprofile profiles; fatal runs
// it too, so a failed run still leaves them behind.
var stopProfile = func() error { return nil }

func printMismatches(what string, ms []string) {
	if len(ms) == 0 {
		fmt.Printf("%s matches the paper's verdict counts exactly.\n\n", what)
		return
	}
	fmt.Printf("%s mismatches vs the paper:\n", what)
	for _, m := range ms {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "kissbench: %v\n", err)
		stopProfile()
		os.Exit(1)
	}
}
