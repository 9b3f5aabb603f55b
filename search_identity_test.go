package kiss_test

import (
	"reflect"
	"testing"

	kiss "repro"
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
