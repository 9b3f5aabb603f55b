package kiss_test

// Benchmark harness: one benchmark per table/figure/experiment of the
// paper, plus ablations for the design choices called out in DESIGN.md.
// See EXPERIMENTS.md for the mapping. Each heavy benchmark reports
// domain metrics (states explored, races found) alongside ns/op.

import (
	"fmt"
	"runtime"
	"testing"

	kiss "repro"
	"repro/internal/ast"
	"repro/internal/concheck"
	"repro/internal/drivers"
	"repro/internal/eval"
	ikiss "repro/internal/kiss"
	"repro/internal/sem"
)

// BenchmarkTable1 regenerates Table 1: per-field race checking of all 18
// drivers (481 fields) under the permissive harness at ts bound 0, with
// one sub-benchmark per worker-pool setting (workers=1 is the sequential
// baseline; workers=gomaxprocs is the default RunCorpus configuration).
func BenchmarkTable1(b *testing.B) {
	configs := []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), 0},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			races, states := 0, 0
			for i := 0; i < b.N; i++ {
				results, err := eval.RunCorpus(eval.Options{Workers: cfg.workers})
				if err != nil {
					b.Fatal(err)
				}
				if ms := eval.CompareTable1(results); len(ms) != 0 {
					b.Fatalf("table 1 mismatch: %v", ms)
				}
				races = 0
				for _, dr := range results {
					races += dr.Races
					for _, fr := range dr.Fields {
						states += fr.States
					}
				}
			}
			b.ReportMetric(float64(races), "races")
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
		})
	}
}

// BenchmarkTable2 regenerates Table 2: the refined-harness rerun of the
// fields that raced in Table 1.
func BenchmarkTable2(b *testing.B) {
	t1, err := eval.RunCorpus(eval.Options{})
	if err != nil {
		b.Fatal(err)
	}
	raced := eval.RacedFields(t1)
	b.ReportAllocs()
	b.ResetTimer()
	races, states := 0, 0
	for i := 0; i < b.N; i++ {
		t2, err := eval.RunCorpus(eval.Options{Refined: true, Only: raced})
		if err != nil {
			b.Fatal(err)
		}
		if ms := eval.CompareTable2(t2); len(ms) != 0 {
			b.Fatalf("table 2 mismatch: %v", ms)
		}
		races = 0
		for _, dr := range t2 {
			races += dr.Races
			for _, fr := range dr.Fields {
				states += fr.States
			}
		}
	}
	b.ReportMetric(float64(races), "races")
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
}

// BenchmarkTable1SingleDriver is the per-driver unit of the Table 1 run
// (the paper's per-driver rows), on the Figure 6 driver.
func BenchmarkTable1SingleDriver(b *testing.B) {
	sel := map[string]bool{"toaster/toastmon": true}
	b.ReportAllocs()
	states := 0
	for i := 0; i < b.N; i++ {
		results, err := eval.RunCorpus(eval.Options{Drivers: sel})
		if err != nil {
			b.Fatal(err)
		}
		for _, dr := range results {
			for _, fr := range dr.Fields {
				states += fr.States
			}
		}
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
}

// BenchmarkRefcount regenerates the Section 6 reference-counting
// experiment (Bluetooth buggy/fixed, fakemodem; assertion mode, ts 0/1).
func BenchmarkRefcount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunRefcount()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Verdict != r.Expected {
				b.Fatalf("%s: verdict %v, want %v", r.Driver, r.Verdict, r.Expected)
			}
		}
	}
}

// BenchmarkBlowup regenerates the interleaving-blowup study (the Section 1
// motivation): interleaving exploration vs the KISS pipeline as thread
// count grows.
func BenchmarkBlowup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunBlowup(6)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.ConcheckStates), "conStates")
		b.ReportMetric(float64(last.KissStates), "kissStates")
	}
}

// BenchmarkCoverage regenerates the ts coverage/cost study (the Section 4
// tuning knob).
func BenchmarkCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunCoverage(4, 5)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Found != (r.MaxTS >= r.BugDepth) {
				b.Fatalf("coverage grid wrong at depth=%d ts=%d", r.BugDepth, r.MaxTS)
			}
		}
	}
}

// BenchmarkLocksetComparison regenerates the Section 6.1 flexibility
// comparison (lockset baseline vs KISS over the corpus).
func BenchmarkLocksetComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunLocksetComparison()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.LocksetRacy
		}
		if total != 71 {
			b.Fatalf("lockset total %d, want 71", total)
		}
	}
}

// BenchmarkContextBound regenerates the context-bound coverage study.
func BenchmarkContextBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := eval.RunContextBound(40, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.KissErrors), "kissErrors")
	}
}

// deferredForkSrc is BenchmarkSummaryVsExplicit's program: four deferred
// forks whose fourth increment fails the assertion.
const deferredForkSrc = `
var x;
var y;
func f() {
  assume(y == 1);
  x = x + 1;
  assert(x < 4);
}
func main() {
  x = 0; y = 0;
  async f(); async f(); async f(); async f();
  y = 1;
}
`

// BenchmarkSummaryVsExplicit compares the two sequential engines on the
// same KISS-transformed program: the explicit-state explorer (concheck
// at context bound 0) and the summary-based tabulation (boolcheck, the
// Bebop/RHS architecture).
func BenchmarkSummaryVsExplicit(b *testing.B) {
	src := deferredForkSrc
	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog, err := kiss.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			res, err := kiss.Check(prog, kiss.WithMaxTS(4))
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != kiss.Error {
				b.Fatal("bug not found")
			}
			b.ReportMetric(float64(res.States), "states")
		}
	})
	b.Run("summaries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog, err := kiss.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			res, err := kiss.Check(prog, kiss.WithMaxTS(4), kiss.WithSummaries())
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != kiss.Error {
				b.Fatal("bug not found")
			}
			b.ReportMetric(float64(res.States), "pathEdges")
		}
	})
}

// BenchmarkBluetoothRace is the Section 2.2 experiment: race on
// stoppingFlag at ts bound 0.
func BenchmarkBluetoothRace(b *testing.B) {
	prog, err := kiss.Parse(drivers.BluetoothSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := kiss.Check(prog, kiss.WithRaceTarget(kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: "stoppingFlag"}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != kiss.Error {
			b.Fatal("race not found")
		}
	}
}

// BenchmarkBluetoothAssertion is the Section 2.3 experiment: the
// assertion violation at ts bound 1.
func BenchmarkBluetoothAssertion(b *testing.B) {
	prog, err := kiss.Parse(drivers.BluetoothSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := kiss.Check(prog, kiss.WithMaxTS(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != kiss.Error {
			b.Fatal("assertion violation not found")
		}
	}
}

// BenchmarkTsKnobCost is the ablation behind the Section 2 claim that
// increasing ts trades cost for coverage: states explored on the fixed
// (safe) Bluetooth driver at increasing ts bounds.
func BenchmarkTsKnobCost(b *testing.B) {
	prog, err := kiss.Parse(drivers.BluetoothFixedSource)
	if err != nil {
		b.Fatal(err)
	}
	for _, maxTS := range []int{0, 1, 2, 3} {
		b.Run(tsName(maxTS), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := kiss.Check(prog, kiss.WithMaxTS(maxTS))
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != kiss.Safe {
					b.Fatal("fixed driver must be safe")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

func tsName(n int) string { return "ts=" + string(rune('0'+n)) }

// BenchmarkAliasElision is the ablation for the Section 5 design choice:
// "We use a static alias analysis to optimize away most of the calls to
// check_r and check_w." It compares the race-checking state space on a
// driver field with and without elision. The switch is a transform
// option only (kiss.Config does not carry it), so the benchmark runs the
// pipeline's stages directly: race translation, compile, and the
// sequential check (the explorer at context bound 0).
func BenchmarkAliasElision(b *testing.B) {
	model := drivers.Generate(drivers.FindSpec("fdc"))
	var field string
	for _, f := range model.Spec.Fields {
		if f.Pattern == drivers.FieldProtected {
			field = f.Name
			break
		}
	}
	src := model.HarnessProgram(field, false)
	target := ast.RaceTarget{Record: "DEVICE_EXTENSION", Field: field}

	for _, disable := range []bool{false, true} {
		name := "elision-on"
		if disable {
			name = "elision-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := kiss.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				seq, err := ikiss.TransformRace(prog.AST(), target, ikiss.Options{DisableAliasElision: disable})
				if err != nil {
					b.Fatal(err)
				}
				c, err := sem.Compile(seq)
				if err != nil {
					b.Fatal(err)
				}
				res := concheck.Check(c, concheck.Options{MaxStates: 500000})
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// BenchmarkTransformOnly measures the transformation itself (excluding
// checking) on the largest corpus driver — the paper's claim that the
// instrumentation is a "small constant blowup".
func BenchmarkTransformOnly(b *testing.B) {
	model := drivers.Generate(drivers.FindSpec("fdc"))
	src := model.HarnessProgram("Flags", false)
	prog, err := kiss.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kiss.NewConfig().TransformRace(prog, kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: "Flags"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures the front end on the largest generated model.
func BenchmarkParse(b *testing.B) {
	model := drivers.Generate(drivers.FindSpec("fdc"))
	src := model.HarnessProgram("Flags", false)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kiss.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerVariants is the ablation for Section 4's pluggable
// scheduler: states explored by each scheduling policy on a safe program
// with two deferred forks.
func BenchmarkSchedulerVariants(b *testing.B) {
	src := `
var x;
func f() { x = x + 1; }
func main() {
  x = 0;
  async f();
  async f();
  x = x + 1;
  x = x + 1;
}
`
	for _, sched := range []kiss.Scheduler{kiss.SchedulerNondet, kiss.SchedulerDrainAll, kiss.SchedulerAtCallsOnly} {
		b.Run(sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := kiss.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				res, err := kiss.Check(prog, kiss.WithMaxTS(2), kiss.WithScheduler(sched))
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != kiss.Safe {
					b.Fatal("expected safe")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}
