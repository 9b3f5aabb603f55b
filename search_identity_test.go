package kiss_test

import (
	"reflect"
	"testing"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/randprog"
)

// traceText renders a result's reconstructed trace for byte comparison
// ("" when the verdict carries no trace).
func traceText(r *kiss.Result) string {
	if r.Trace == nil {
		return ""
	}
	return r.Trace.Format()
}

// stripped is a result reduced to what must not depend on the worker
// count: verdict, failure, counters, stats without timing and
// scheduling diagnostics, and both traces.
type stripped struct {
	Verdict   kiss.Verdict
	Message   string
	Pos       string
	States    int
	Steps     int
	Stats     kiss.Stats
	SeqEvents any
	Trace     string
}

func strip(r *kiss.Result) stripped {
	st := r.Stats
	st.StripTiming()
	return stripped{r.Verdict, r.Message, r.Pos.String(), r.States, r.Steps, st, r.SeqEvents, traceText(r)}
}

// TestRaceModeIdenticalAcrossWorkerCounts: race-checking translations
// fold through the generated check_r/check_w bodies, whose straight-line
// code dominates a race check's step count. On random programs, race
// mode on g0 must give bit-identical results at 1 and 8 search workers:
// verdict, failure, every deterministic counter, and the trace.
func TestRaceModeIdenticalAcrossWorkerCounts(t *testing.T) {
	target := kiss.RaceTarget{Global: "g0"}
	errors := 0
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		var results []stripped
		for _, w := range []int{1, 8} {
			p, err := kiss.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithSearchWorkers(w),
				kiss.WithRaceTarget(target)).Check(p)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			results = append(results, strip(res))
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("seed %d: workers 1 vs 8 diverge:\n  %+v\n  %+v", seed, results[0], results[1])
		}
		if results[0].Verdict == kiss.Error {
			errors++
		}
	}
	if errors == 0 {
		t.Error("no race found on any seed; trace identity tested vacuously")
	}
}

// recursiveSrc is a bounded recursion racing against an async sibling:
// work() recurses three deep over the global n while helper() may run at
// any of the translation's scheduling points.
const recursiveSrc = `
var n;
var done;
func work() {
  if (n > 0) { n = n - 1; work(); } else { skip; }
}
func helper() {
  done = 1;
}
func main() {
  n = 3;
  done = 0;
  async helper();
  work();
  assert(n == 0);
}
`

// TestRecursionCrossCheck runs the bounded recursive program in
// assertion mode through the explicit engine and through the boolcheck
// summary engine (the independent Bebop/RHS-style tabulation selected by
// Config.Summaries, which owns recursion through its own procedure
// summaries), and requires them to agree. boolcheck cannot check the
// race-instrumented program (check_r/check_w take pointer arguments), so
// race mode on the same program compares the macro-step search with the
// per-statement search: same verdict, failure and trace (the race
// monitor never fires on n; the fold re-executes steps the per-statement
// search deduplicates, so step counts differ).
func TestRecursionCrossCheck(t *testing.T) {
	parse := func() *kiss.Program {
		p, err := kiss.Parse(recursiveSrc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(opts ...kiss.Option) *kiss.Result {
		t.Helper()
		res, err := kiss.NewConfig(opts...).Check(parse())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Assertion mode: two engines, one verdict.
	ref := check(kiss.WithMaxTS(2))
	bool2 := check(kiss.WithMaxTS(2), kiss.WithSummaries())
	if ref.Verdict != kiss.Safe || bool2.Verdict != ref.Verdict {
		t.Fatalf("engines disagree on bounded recursion: explicit=%v boolcheck=%v", ref.Verdict, bool2.Verdict)
	}

	// Race mode on n: the recursive body's check calls fold.
	target := kiss.RaceTarget{Global: "n"}
	rres := check(kiss.WithMaxTS(2), kiss.WithRaceTarget(target))
	rref := check(kiss.WithMaxTS(2), kiss.WithRaceTarget(target), kiss.WithMacroSteps(false))
	if rres.Verdict != rref.Verdict || rres.Pos != rref.Pos || rres.Message != rref.Message {
		t.Errorf("race-mode divergence: macro {%v %q}, per-statement {%v %q}",
			rres.Verdict, rres.Message, rref.Verdict, rref.Message)
	}
	if got, want := traceText(rres), traceText(rref); got != want {
		t.Errorf("race-mode traces diverge\nmacro:\n%s\nper-statement:\n%s", got, want)
	}
}

// TestMacroMatchesPerStatement runs the race check of every field of four
// small Table 1 drivers (the slice TestSearchOutputDigest pins) with the
// per-statement search at 0 search workers and with macro steps at 0, 1
// and 8. Every arm must give the per-statement verdict and failure
// position. Summed over the fields both searches complete, macro steps
// must also store fewer states than per-statement search.
func TestMacroMatchesPerStatement(t *testing.T) {
	type arm struct {
		macro   bool
		workers int
	}
	ref := arm{false, 0}
	arms := []arm{ref, {true, 0}, {true, 1}, {true, 8}}
	stored := map[bool]int{}
	completed, races := 0, 0
	for _, name := range []string{"kbfiltr", "moufiltr", "diskperf", "1394diag"} {
		model := drivers.Generate(drivers.FindSpec(name))
		for _, f := range model.Spec.Fields {
			src := model.HarnessProgram(f.Name, false)
			results := map[arm]*kiss.Result{}
			for _, a := range arms {
				p, err := kiss.Parse(src)
				if err != nil {
					t.Fatalf("%s.%s: %v", name, f.Name, err)
				}
				res, err := kiss.NewConfig(kiss.WithMaxStates(40000),
					kiss.WithRaceTarget(kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: f.Name}),
					kiss.WithMacroSteps(a.macro), kiss.WithSearchWorkers(a.workers)).Check(p)
				if err != nil {
					t.Fatalf("%s.%s %+v: %v", name, f.Name, a, err)
				}
				results[a] = res
				if want := results[ref]; res.Verdict != want.Verdict || res.Pos != want.Pos {
					t.Errorf("%s.%s %+v: got %v at %v, per-statement %v at %v",
						name, f.Name, a, res.Verdict, res.Pos, want.Verdict, want.Pos)
				}
			}
			stmt, macro := results[ref], results[arm{true, 0}]
			if stmt.Verdict == kiss.Error {
				races++
			}
			if stmt.Verdict != kiss.ResourceBound && macro.Verdict != kiss.ResourceBound {
				completed++
				stored[false] += stmt.States
				stored[true] += macro.States
			}
		}
	}
	if races == 0 || completed == 0 {
		t.Fatalf("vacuous: %d races, %d fields completed in both searches", races, completed)
	}
	if stored[true] >= stored[false] {
		t.Errorf("macro steps stored %d states over %d completed fields, per-statement search %d",
			stored[true], completed, stored[false])
	}
	t.Logf("%d races; %d completed fields: per-statement stored %d states, macro steps %d", races, completed, stored[false], stored[true])
}

// TestSummariesDeterministic: the summary engine is a pure function of
// its input. Fifty checks of BenchmarkSummaryVsExplicit's program in one
// process must give identical results: verdict, failure, path edges and
// every deterministic counter.
func TestSummariesDeterministic(t *testing.T) {
	var first stripped
	for i := 0; i < 50; i++ {
		p, err := kiss.Parse(deferredForkSrc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := kiss.Check(p, kiss.WithMaxTS(4), kiss.WithSummaries())
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != kiss.Error {
			t.Fatalf("run %d: verdict %v, want error", i, res.Verdict)
		}
		got := strip(res)
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs from run 0:\n got %+v\nwant %+v", i, got, first)
		}
	}
}
