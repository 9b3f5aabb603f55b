package kiss_test

import (
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

// TestFoldMemoDifferentialOnRandomPrograms: fold memoization is a pure
// wall-time optimization — on random concurrent programs, checking with
// the memo on must produce bit-identical results to the memo-off search
// at every worker count: same verdict, failure position and message,
// stored-state and step counters, and the same reconstructed trace.
func TestFoldMemoDifferentialOnRandomPrograms(t *testing.T) {
	var totalHits, totalErrors int64
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		parse := func() *kiss.Program {
			p, err := kiss.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: generated program does not parse: %v", seed, err)
			}
			return p
		}

		for _, w := range []int{0, 1, 8} {
			// The reference runs at the same worker count: the sequential
			// DFS and the parallel BFS legitimately store different state
			// counts; the memo must be invisible within each engine.
			ref, err := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithSearchWorkers(w),
				kiss.WithFoldMemo(false)).Check(parse())
			if err != nil {
				t.Fatalf("seed %d workers %d: memo-off reference: %v", seed, w, err)
			}
			if w == 0 && ref.Verdict == kiss.Error {
				totalErrors++
			}
			refTrace := traceText(ref)
			cfg := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithSearchWorkers(w), kiss.WithFoldMemo(true))
			res, err := cfg.Check(parse())
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if res.Verdict != ref.Verdict || res.Pos != ref.Pos || res.Message != ref.Message {
				t.Errorf("seed %d workers %d: memo-on verdict {%v %q %q}, memo-off {%v %q %q}\n%s",
					seed, w, res.Verdict, res.Pos, res.Message, ref.Verdict, ref.Pos, ref.Message, src)
			}
			if res.States != ref.States || res.Steps != ref.Steps ||
				res.Stats.StatesStepped != ref.Stats.StatesStepped {
				t.Errorf("seed %d workers %d: memo-on counters states=%d steps=%d stepped=%d, memo-off states=%d steps=%d stepped=%d",
					seed, w, res.States, res.Steps, res.Stats.StatesStepped,
					ref.States, ref.Steps, ref.Stats.StatesStepped)
			}
			if got := traceText(res); got != refTrace {
				t.Errorf("seed %d workers %d: traces diverge\nmemo-on:\n%s\nmemo-off:\n%s", seed, w, got, refTrace)
			}
			if m := res.Stats.Memo; m != nil {
				totalHits += m.Hits
			}
		}
	}
	if totalErrors == 0 {
		t.Error("no generated program produced an error; the identity was tested only on safe programs")
	}
	if totalHits == 0 {
		t.Error("the memo never hit across any seed; the differential property was tested vacuously")
	}
	t.Logf("compared %d error verdicts; %d memo hits exercised", totalErrors, totalHits)
}

// TestFoldMemoAuditCleanOnRandomPrograms: with audit mode on, every memo
// hit is re-executed and compared byte-for-byte; across random programs
// no replay may ever disagree with execution.
func TestFoldMemoAuditCleanOnRandomPrograms(t *testing.T) {
	var hits int64
	for seed := int64(100); seed < 120; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		prog, err := kiss.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := kiss.NewConfig(kiss.WithMaxTS(2))
		cfg.AuditFoldMemo = true
		res, err := cfg.Check(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m := res.Stats.Memo; m != nil {
			hits += m.Hits
			if m.AuditMismatches != 0 {
				t.Errorf("seed %d: %d audited replays disagreed with execution\n%s",
					seed, m.AuditMismatches, src)
			}
		}
	}
	if hits == 0 {
		t.Error("audit mode never verified a hit; the property was tested vacuously")
	}
	t.Logf("audited %d memo hits, all byte-identical to execution", hits)
}

// TestFoldMemoRaceModeOnRandomPrograms: race-checking translations fold
// through the generated check_r/check_w bodies, whose straight-line code
// dominates a race check's step count. With the memo on and audited,
// race-mode results must stay bit-identical to the memo-off search at
// every worker count, and no audited replay may disagree with execution.
func TestFoldMemoRaceModeOnRandomPrograms(t *testing.T) {
	target := kiss.RaceTarget{Global: "g0"}
	var memoHits int64
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		parse := func() *kiss.Program {
			p, err := kiss.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return p
		}
		for _, w := range []int{0, 1, 8} {
			ref, err := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithSearchWorkers(w),
				kiss.WithRaceTarget(target), kiss.WithFoldMemo(false)).Check(parse())
			if err != nil {
				t.Fatalf("seed %d workers %d: memo-off reference: %v", seed, w, err)
			}
			cfg := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithSearchWorkers(w),
				kiss.WithRaceTarget(target), kiss.WithFoldMemo(true))
			cfg.AuditFoldMemo = true
			res, err := cfg.Check(parse())
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if m := res.Stats.Memo; m != nil {
				memoHits += m.Hits
				if m.AuditMismatches != 0 {
					t.Errorf("seed %d workers %d: %d memo audit mismatches\n%s", seed, w, m.AuditMismatches, src)
				}
			}
			if res.Verdict != ref.Verdict || res.Pos != ref.Pos || res.Message != ref.Message ||
				res.States != ref.States || res.Steps != ref.Steps ||
				res.Stats.StatesStepped != ref.Stats.StatesStepped {
				t.Errorf("seed %d workers %d: memo-on {%v %q states=%d steps=%d stepped=%d}, memo-off {%v %q states=%d steps=%d stepped=%d}",
					seed, w, res.Verdict, res.Pos, res.States, res.Steps, res.Stats.StatesStepped,
					ref.Verdict, ref.Pos, ref.States, ref.Steps, ref.Stats.StatesStepped)
			}
			if got, want := traceText(res), traceText(ref); got != want {
				t.Errorf("seed %d workers %d: traces diverge\nmemo-on:\n%s\nmemo-off:\n%s", seed, w, got, want)
			}
		}
	}
	if memoHits == 0 {
		t.Error("race mode never hit the memo; the property was tested vacuously")
	}
	t.Logf("race mode exercised %d memo hits, all audit-clean", memoHits)
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

// TestRecursionCrossCheck runs the bounded recursive program three ways
// in assertion mode — the explicit engine with the fold memo on
// (audited), the explicit engine with it off, and the boolcheck summary
// engine (the independent Bebop/RHS-style tabulation selected by
// Config.Summaries, which owns recursion through its own procedure
// summaries) — and requires all three to agree, with identical
// explicit-search counters. boolcheck cannot check the
// race-instrumented program (check_r/check_w take pointer arguments),
// so race mode on the same program compares only the two explicit
// searches, bit-for-bit and audit-clean.
func TestRecursionCrossCheck(t *testing.T) {
	parse := func() *kiss.Program {
		p, err := kiss.Parse(recursiveSrc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	audited := func(opts ...kiss.Option) *kiss.Result {
		t.Helper()
		cfg := kiss.NewConfig(opts...)
		cfg.AuditFoldMemo = true
		res, err := cfg.Check(parse())
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Stats.Memo; m != nil && m.AuditMismatches != 0 {
			t.Errorf("%d audited memo replays disagreed with execution", m.AuditMismatches)
		}
		return res
	}

	// Assertion mode: three engines, one verdict.
	ref, err := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithFoldMemo(false)).Check(parse())
	if err != nil {
		t.Fatal(err)
	}
	res := audited(kiss.WithMaxTS(2))
	bool2, err := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithSummaries()).Check(parse())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Verdict != kiss.Safe || res.Verdict != ref.Verdict || bool2.Verdict != ref.Verdict {
		t.Fatalf("engines disagree on bounded recursion: explicit=%v explicit+memo=%v boolcheck=%v",
			ref.Verdict, res.Verdict, bool2.Verdict)
	}
	if res.States != ref.States || res.Steps != ref.Steps {
		t.Errorf("the memo changed the explicit search: states %d vs %d, steps %d vs %d",
			res.States, ref.States, res.Steps, ref.Steps)
	}

	// Race mode on n: the recursive body's check calls fold and replay.
	target := kiss.RaceTarget{Global: "n"}
	rref, err := kiss.NewConfig(kiss.WithMaxTS(2), kiss.WithRaceTarget(target),
		kiss.WithFoldMemo(false)).Check(parse())
	if err != nil {
		t.Fatal(err)
	}
	rres := audited(kiss.WithMaxTS(2), kiss.WithRaceTarget(target))
	if rres.Verdict != rref.Verdict || rres.Pos != rref.Pos || rres.Message != rref.Message ||
		rres.States != rref.States || rres.Steps != rref.Steps {
		t.Errorf("race-mode divergence: memo-on {%v %q states=%d steps=%d}, memo-off {%v %q states=%d steps=%d}",
			rres.Verdict, rres.Message, rres.States, rres.Steps,
			rref.Verdict, rref.Message, rref.States, rref.Steps)
	}
	if got, want := traceText(rres), traceText(rref); got != want {
		t.Errorf("race-mode traces diverge\nmemo-on:\n%s\nmemo-off:\n%s", got, want)
	}
}
