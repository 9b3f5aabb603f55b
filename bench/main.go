// Command bench measures what users of the KISS checker wait for: time and
// memory to a verdict on three workloads, each verdict checked against a
// known answer.
//
//	go run . -workload table1-races -seed 1 -seconds 40       # one workload
//	go run . -seed 1                                          # all three, one child process each
//	go run . -workload assert-seq -trace 1 -spans spans.jsonl # per-layer split
//
// An untraced run (-trace 0) prints the end-to-end metrics of
// BENCHMARK.json; a traced run (-trace 1) prints its per-layer metrics.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// End-to-end times are scaled to a host of fixed speed, which a probe
// measures during the run (probe.go). The benchmark calls only the product
// surfaces: the kiss facade, the driver corpus and the random-program
// generator. See README.md for the workloads and how to compare commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median and the last set-up is the one measured. A set-up takes 1–10 ms,
// short enough that one burst of load from elsewhere on the host can double
// it, hence many. Each set-up follows a probe, and setup_s is scaled by
// those probes: the host's speed can change between set-up and the
// measured window.
const setupRuns = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: table1-races, hard-budget, assert-seq, or all (each in its own process)")
	seed := flag.Int64("seed", 1, "seed for the dispatch order")
	seconds := flag.Float64("seconds", 40, "how long one run drives load")
	traced := flag.Int("trace", 0, "1: wrap every layer call in a span and report per-layer metrics instead")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	cpuprofile := flag.String("cpuprofile", "", "with -trace 0, write a CPU profile of the measured window to this file")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	d := time.Duration(*seconds * float64(time.Second))
	if d <= 0 {
		fatalf("-seconds must be positive")
	}

	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced, *spans, *cpuprofile))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, *seed, d, *spans)
	} else {
		res, err = runPlain(w, *seed, d, *cpuprofile)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %g %s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%s: encoding the result: %v", w.name, err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload in a child process of its own, so that peak
// RSS and CPU time are per workload, and reports whether all passed.
func runAll(seed int64, seconds float64, traced int, spans, cpuprofile string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced)}
		if spans != "" {
			args = append(args, "-spans", spans+"."+w.name)
		}
		if cpuprofile != "" {
			args = append(args, "-cpuprofile", cpuprofile+"."+w.name)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// runPlain is the untraced run: set up setupRuns times, then drive the
// last set-up for d and derive the end-to-end metrics.
func runPlain(w workload, seed int64, d time.Duration, cpuprofile string) (*result, error) {
	setupPr := &prober{}
	var b *batch
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // so the previous set-up's garbage is not collected on this one's clock
		setupPr.run()
		start := time.Now()
		b = w.setup(seed, nil)
		setups = append(setups, time.Since(start).Seconds())
	}
	sort.Float64s(setups)
	setupS := quantile(setups, 0.5) * setupPr.scale()

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	pr := &prober{}
	runtime.GC()
	before := takeSnapshot()
	recs, attempted := b.drive(d, nil, pr)
	after := takeSnapshot()
	s := summarize(recs, attempted)
	if len(s.latMS) == 0 {
		return nil, errors.New("no check finished")
	}
	s.probed = pr.spent
	_, pct := tail(s.latMS)
	fmt.Printf("%s: %d attempted, %d failed, %d wrong; check_tail_ms is p%.1f of %d checks; "+
		"times scaled by %.4f, the median of %d probes being %.4f ms\n",
		w.name, s.attempted, s.failed, s.wrong, pct, len(s.latMS), pr.scale(), len(pr.times), pr.medianMS())
	return &result{
		Correct:   s.wrong == 0,
		Attempted: attempted,
		Failed:    s.failed,
		Metrics:   endToEnd(setupS, s, before, after, pr.scale()),
	}, nil
}

// runTraced sets the workload up and drives it for d with every layer call
// wrapped in a span, and derives the per-layer metrics.
func runTraced(w workload, seed int64, d time.Duration, spansPath string) (*result, error) {
	tr := newTracer()
	pr := &prober{}
	b := w.setup(seed, tr)
	runtime.GC()
	before := takeSnapshot()
	recs, attempted := b.drive(d, tr, pr)
	after := takeSnapshot()
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}

	s := summarize(recs, attempted)
	m := perLayer(tr.spans)
	m["runtime.gc_cycles"] = metric{float64(after.mem.NumGC - before.mem.NumGC), "count"}
	m["runtime.gc_pause_ms"] = metric{ms(time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs)), "ms"}
	m["bench.probe_ms"] = metric{pr.medianMS(), "ms"}
	m["bench.trace_overhead_pct"] = metric{100 * float64(tr.cost.Load()) / float64(rootTime(tr.spans)), "%"}
	return &result{Correct: s.wrong == 0, Attempted: attempted, Failed: s.failed, Metrics: m}, nil
}

// rootTime is the time the checked items took, summed over their root
// spans: the base of every share the traced run reports.
func rootTime(spans []*span) int64 {
	var t int64
	for _, sp := range spans {
		if sp.Name == "check" {
			t += sp.dur()
		}
	}
	return max(t, 1)
}

// timedLayers are the layers whose calls the benchmark wraps in spans,
// with the verb their time metric is named after.
var timedLayers = []struct{ name, verb string }{
	{"parser", "parse"},
	{"kiss", "transform"},
	{"cbseq", "transform"},
	{"seqcheck", "check"},
	{"concheck", "explore"},
	{"trace", "certify"},
}

// perLayer derives the per-layer metrics of a traced run from its spans.
// Counters come from span attributes; one that no span reported is 0.
func perLayer(spans []*span) map[string]metric {
	self := selfTimes(spans)
	byName := map[string][]*span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	selfSum := func(name string) int64 {
		var t int64
		for _, sp := range byName[name] {
			t += self[sp.ID]
		}
		return t
	}
	rootNS := rootTime(spans)
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(rootNS) }
	mean := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	attrMean := func(spans []*span, attr string, scale float64) float64 {
		var t float64
		for _, sp := range spans {
			t += sp.Attrs[attr]
		}
		return mean(t, len(spans)) * scale
	}
	attrRatio := func(spans []*span, num string, den ...string) float64 {
		var a, b float64
		for _, sp := range spans {
			a += sp.Attrs[num]
			for _, k := range den {
				b += sp.Attrs[k]
			}
		}
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]metric{}
	durMean := func(name string) float64 {
		var t int64
		for _, sp := range byName[name] {
			t += sp.dur()
		}
		return mean(ms(time.Duration(t)), len(byName[name]))
	}
	m["drivers.generate_ms"] = metric{durMean("drivers"), "ms"}
	m["randprog.generate_ms"] = metric{durMean("randprog"), "ms"}
	for _, l := range timedLayers {
		n := len(byName[l.name])
		m[l.name+".calls"] = metric{float64(n), "count"}
		m[l.name+"."+l.verb+"_ms"] = metric{mean(ms(time.Duration(selfSum(l.name))), n), "ms"}
		m[l.name+".self_pct"] = metric{pct(selfSum(l.name)), "%"}
	}
	m["bench.self_pct"] = metric{pct(selfSum("check")), "%"}
	m["kiss.stmt_blowup"] = metric{attrMean(byName["kiss"], "stmt_blowup", 1), "ratio"}
	m["cbseq.stmt_blowup"] = metric{attrMean(byName["cbseq"], "stmt_blowup", 1), "ratio"}
	m["trace.certified_ratio"] = metric{attrMean(byName["trace"], "certified", 1), "ratio"}

	seq := byName["seqcheck"]
	for _, c := range []struct{ metric, attr string }{
		{"states", "states"}, {"steps", "steps"}, {"visited", "visited"},
		{"peak_frontier", "peak_frontier"}, {"peak_depth", "peak_depth"},
	} {
		m["seqcheck."+c.metric] = metric{attrMean(seq, c.attr, 1), "count"}
	}
	m["concheck.states"] = metric{attrMean(byName["concheck"], "states", 1), "count"}

	// The layers below both checkers report through the search statistics
	// of every search, seqcheck and concheck spans alike.
	var searches []*span
	for _, sp := range spans {
		if _, ok := sp.Attrs["states"]; ok {
			searches = append(searches, sp)
		}
	}
	const mib = 1.0 / (1 << 20)
	m["sem.states_stepped"] = metric{attrMean(searches, "states_stepped", 1), "count"}
	m["sem.compression_ratio"] = metric{attrMean(searches, "compression_ratio", 1), "ratio"}
	m["sem.memo_lookups"] = metric{attrMean(searches, "memo.hits", 1) + attrMean(searches, "memo.misses", 1), "count"}
	m["sem.memo_hit_ratio"] = metric{attrRatio(searches, "memo.hits", "memo.hits", "memo.misses"), "ratio"}
	m["sem.memo_steps_saved"] = metric{attrMean(searches, "memo.steps_saved", 1), "count"}
	m["sem.summary_lookups"] = metric{attrMean(searches, "summary.hits", 1) + attrMean(searches, "summary.misses", 1), "count"}
	m["sem.summary_hit_ratio"] = metric{attrRatio(searches, "summary.hits", "summary.hits", "summary.misses"), "ratio"}
	m["sem.summary_steps_saved"] = metric{attrMean(searches, "summary.steps_saved", 1), "count"}
	m["visited.bytes"] = metric{attrMean(searches, "memory.visited_bytes", 1), "B"}
	m["visited.occupancy"] = metric{attrMean(searches, "memory.visited_occupancy", 1), "ratio"}
	m["visited.fp_rate"] = metric{attrMean(searches, "memory.visited_fp_rate", 1), "ratio"}
	m["frontier.spilled_mb"] = metric{attrMean(searches, "memory.spilled_bytes", mib), "MiB"}
	m["frontier.spilled_runs"] = metric{attrMean(searches, "memory.spilled_runs", 1), "count"}
	m["frontier.merge_passes"] = metric{attrMean(searches, "memory.merge_passes", 1), "count"}
	m["frontier.peak_ram_mb"] = metric{attrMean(searches, "memory.frontier_peak_ram", mib), "MiB"}
	m["bench.spans"] = metric{float64(len(spans)), "count"}
	return m
}
