package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/randprog"
)

// The oracle reads the planted patterns, so over the whole corpus it must
// reproduce the paper's Table 1 totals.
func TestOracleMatchesTable1Totals(t *testing.T) {
	counts := map[answer]int{}
	for _, c := range fieldCases(nil, func(drivers.FieldPattern) bool { return true }) {
		counts[c.answer]++
	}
	want := map[answer]int{answerRace: 71, answerNoRace: 346, answerTimeout: 64}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("oracle totals = %v, want %v (481 fields)", counts, want)
	}
}

func TestQuantileIQMAndTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	// Ten samples (91..100) lie above the tail value.
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = (%v, p%v), want (90, p90)", v, pct)
	}
	if got := iqm(xs); got != 50.5 {
		t.Errorf("interquartile mean of 1..100 = %v, want 50.5 (the mean of 26..75)", got)
	}
	if got := iqm(xs[:3]); got != 2 {
		t.Errorf("interquartile mean of 1..3 = %v, want 2", got)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = (%v, p%v), want the maximum (5, p100)", v, pct)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "check", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parser", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "seqcheck", Start: 25, End: 60}, // overlaps parser by 5
		{ID: 4, Parent: 3, Name: "inner", Start: 40, End: 50},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // reaches past its parent
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - (60 - 10) - (100 - 90), 2: 20, 3: 35 - 10, 4: 10, 5: 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

// The probe must not allocate: if it did, the checker's garbage would slow
// it, and a change that makes more garbage would scale its own times down.
func TestProbeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, probeWork); n != 0 {
		t.Fatalf("probeWork allocates %v times per run", n)
	}
}

// dispatches lists the items a set-up's closed loop checks in its first
// pass over the population.
func dispatches(w workload, seed int64) []int {
	b := w.setup(seed, nil)
	var seq []int
	for i := 0; i < b.order.size(); i++ {
		seq = append(seq, b.order.at(i))
	}
	return seq
}

// The same seed gives the same dispatch order and another seed another
// order, but within each block of a pass the same items: runs that get
// equally far check the same population whatever their seed.
func TestSeedDefinesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := dispatches(w, 1), dispatches(w, 1), dispatches(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different workloads", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same workload", w.name)
		}
		for lo := 0; lo+blockSize <= len(a); lo += blockSize {
			as := append([]int(nil), a[lo:lo+blockSize]...)
			cs := append([]int(nil), c[lo:lo+blockSize]...)
			sort.Ints(as)
			sort.Ints(cs)
			if !reflect.DeepEqual(as, cs) {
				t.Errorf("%s: seeds 1 and 2 check different items in dispatches %d–%d", w.name, lo, lo+blockSize-1)
				break
			}
		}
	}
}

// same compares what both paths must agree on.
func same(t *testing.T, what string, traced, facade *kiss.Result) {
	t.Helper()
	if traced.Verdict != facade.Verdict || traced.Message != facade.Message || traced.Pos != facade.Pos ||
		traced.States != facade.States || traced.Steps != facade.Steps {
		t.Errorf("%s: traced %v %q %v states=%d steps=%d, facade %v %q %v states=%d steps=%d", what,
			traced.Verdict, traced.Message, traced.Pos, traced.States, traced.Steps,
			facade.Verdict, facade.Message, facade.Pos, facade.States, facade.Steps)
	}
}

// The traced run splits Config.Check into TransformRace/Transform and a
// Check of the sequential program; that composition must compute exactly
// what the facade computes.
func TestTracedCompositionMatchesFacade(t *testing.T) {
	tr := newTracer()
	cases := fieldCases(nil, func(drivers.FieldPattern) bool { return true })
	for i := 0; i < len(cases); i += 48 {
		c := cases[i]
		cfg := &kiss.Config{RaceTarget: raceTarget(c.field), MaxStates: 40000}
		prog, err := kiss.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		facade, err := cfg.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := transformAndCheck(prog, cfg, "kiss", tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		same(t, c.field, traced, facade)
	}

	var srcs []string
	for _, sc := range drivers.Scenarios() {
		srcs = append(srcs, sc.Source)
	}
	for i := int64(0); i < 20; i++ {
		srcs = append(srcs, randprog.Generate(i, seqRandConfig))
	}
	for i, src := range srcs {
		prog, err := kiss.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct {
			layer string
			cfg   *kiss.Config
		}{
			{"kiss", &kiss.Config{MaxTS: 2, MaxStates: seqMaxStates}},
			{"cbseq", &kiss.Config{Sequentialization: kiss.SeqCB, ContextSwitches: 2, MaxStates: seqMaxStates}},
		} {
			facade, err := arm.cfg.Check(prog)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := transformAndCheck(prog, arm.cfg, arm.layer, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			same(t, fmt.Sprintf("%s on program %d", arm.layer, i), traced, facade)
			if arm.layer == "kiss" && facade.Verdict == kiss.Error {
				ok1, err1 := arm.cfg.Certify(prog, facade)
				ok2, err2 := arm.cfg.Certify(prog, traced)
				if ok1 != ok2 || (err1 == nil) != (err2 == nil) {
					t.Errorf("program %d: certify %v/%v on the facade result, %v/%v on the traced one", i, ok1, err1, ok2, err2)
				}
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload, at a tiny size, emits every metric BENCHMARK.json names,
// with its unit, and every verdict agrees with the known answer.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}

	t.Setenv("TMPDIR", t.TempDir()) // hard-budget spills here
	const d = 300 * time.Millisecond
	for _, w := range workloads {
		plain, err := runPlain(w, 1, d, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runTraced(w, 1, d, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, run := range []struct {
			res  *result
			want []struct{ Name, Unit string }
		}{{plain, spec.EndToEnd}, {traced, spec.PerLayer}} {
			if !run.res.Correct || run.res.Failed != 0 || run.res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, run.res.Correct, run.res.Attempted, run.res.Failed)
			}
			if len(run.res.Metrics) != len(run.want) {
				t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", w.name, len(run.res.Metrics), len(run.want))
			}
			for _, m := range run.want {
				got, ok := run.res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v (present %v), want unit %s", w.name, m.Name, got, ok, m.Unit)
				}
			}
		}
		for name, m := range plain.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}
