package boolcheck

import (
	"fmt"
	"testing"

	"repro/internal/concheck"
	ikiss "repro/internal/kiss"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/randprog"
	"repro/internal/sem"
)

func compile(t *testing.T, src string, maxTS int) *sem.Compiled {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p.MaxTS = maxTS
	lower.Program(p)
	c, err := sem.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestStraightLine(t *testing.T) {
	c := compile(t, `
var g;
func main() {
  g = 1;
  g = g + 2;
  assert(g == 3);
}
`, 0)
	r, err := Check(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Safe {
		t.Fatalf("want safe, got %v", r)
	}
}

func TestAssertionViolation(t *testing.T) {
	c := compile(t, `
var g;
func main() {
  choice { { g = 1; } [] { g = 2; } }
  assert(g != 2);
}
`, 0)
	r, err := Check(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Error || r.Failure == nil {
		t.Fatalf("want error, got %v", r)
	}
}

func TestInterproceduralSummaries(t *testing.T) {
	c := compile(t, `
var g;
func inc(n) { return n + 1; }
func main() {
  var a; var b;
  a = inc(1);
  b = inc(1);   // same entry valuation: summary reuse
  assert(a == 2);
  assert(b == 2);
  g = inc(a);
  assert(g == 3);
}
`, 0)
	r, err := Check(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Safe {
		t.Fatalf("want safe, got %v", r)
	}
	if r.Summaries < 2 {
		t.Errorf("expected at least 2 summaries (inc at two entries), got %d", r.Summaries)
	}
}

// TestUnboundedRecursionTerminates is boolcheck's raison d'être: a
// nondeterministically deep recursion has unboundedly many stack
// configurations (so the whole-state explorer can never finish) but only
// finitely many (proc, entry, pc, valuation) path edges.
func TestUnboundedRecursionTerminates(t *testing.T) {
	src := `
var g;
func rec() {
  choice {
    { skip; }
  []
    { rec(); }
  }
}
func main() {
  g = 0;
  rec();
  assert(g == 0);
}
`
	c := compile(t, src, 0)
	r, err := Check(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Safe {
		t.Fatalf("summary checker must verify the recursive program, got %v", r)
	}

	// The whole-configuration explorer cannot: each recursion depth is a
	// distinct state, so it exhausts any finite budget.
	sr := concheck.Check(compile(t, src, 0), concheck.Options{MaxStates: 2000})
	if sr.Verdict != concheck.ResourceBound {
		t.Fatalf("expected the explicit-state checker to hit its budget on recursion, got %v", sr)
	}
}

func TestRecursiveBugFound(t *testing.T) {
	c := compile(t, `
var depth;
func rec() {
  depth = depth + 1;
  assert(depth < 3);
  choice {
    { skip; }
  []
    { rec(); }
  }
}
func main() {
  depth = 0;
  rec();
}
`, 0)
	r, err := Check(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Error {
		t.Fatalf("recursion-depth bug not found: %v", r)
	}
}

func TestMutualRecursion(t *testing.T) {
	c := compile(t, `
var g;
func even(n) {
  if (n == 0) { return true; }
  return odd(n - 1);
}
func odd(n) {
  if (n == 0) { return false; }
  return even(n - 1);
}
func main() {
  var r;
  r = even(6);
  assert(r);
  r = odd(6);
  assert(!r);
}
`, 0)
	r, err := Check(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Safe {
		t.Fatalf("mutual recursion mis-analyzed: %v", r)
	}
}

func TestTsIntrinsicsSupported(t *testing.T) {
	c := compile(t, `
var x;
func f(v) { x = x + v; }
func main() {
  x = 0;
  __ts_put(@f, 2);
  __ts_put(@f, 3);
  __ts_dispatch();
  __ts_dispatch();
  assert(x == 5);
  assert(__ts_size() == 0);
}
`, 2)
	r, err := Check(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Safe {
		t.Fatalf("ts intrinsics mis-analyzed: %v", r)
	}
}

func TestFragmentRejection(t *testing.T) {
	cases := []string{
		`record R { f; } func main() { var p; p = new R; }`,
		`var g; func main() { var p; p = &g; }`,
		`func f() { return; } func main() { async f(); }`,
		`var g; func main() { atomic { g = 1; } }`,
	}
	for _, src := range cases {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		lower.Program(p)
		c, err := sem.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Check(c, Options{}); err == nil {
			t.Errorf("out-of-fragment program accepted:\n%s", src)
		}
	}
}

func TestPathEdgeBudget(t *testing.T) {
	c := compile(t, `
var x;
func main() {
  x = 0;
  iter { assume(x < 100000); x = x + 1; }
}
`, 0)
	r, err := Check(c, Options{MaxPathEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != ResourceBound {
		t.Fatalf("want resource-bound, got %v", r)
	}
}

// sameFailure reports whether two failures agree on everything but the
// thread: kind, message, position and function.
func sameFailure(a, b *sem.Failure) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.Msg == b.Msg && a.Pos == b.Pos && a.Fn == b.Fn
}

// TestAgreesWithSeqcheckOnKissOutputs: on KISS-transformed random
// programs (pointer-free by construction), the summary checker and the
// explicit-state checker reach the same verdict and the same failure —
// two tabulations over one semantics.
func TestAgreesWithSeqcheckOnKissOutputs(t *testing.T) {
	agreeErrors := 0
	for seed := int64(0); seed < 60; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		lower.Program(p)
		out, err := ikiss.Transform(p, ikiss.Options{MaxTS: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := sem.Compile(out)
		if err != nil {
			t.Fatal(err)
		}
		br, err := Check(c, Options{})
		if err != nil {
			t.Fatalf("seed %d: unexpectedly out of fragment: %v", seed, err)
		}
		sr := concheck.Check(c, concheck.Options{})
		if sr.Verdict == concheck.Error {
			agreeErrors++
		}
		if br.Verdict != sr.Verdict {
			t.Errorf("seed %d: boolcheck %v, explicit-state %v\n%s", seed, br.Verdict, sr.Verdict, src)
		} else if !sameFailure(br.Failure, sr.Failure) {
			t.Errorf("seed %d: boolcheck fails with %v, explicit-state with %v\n%s", seed, br.Failure, sr.Failure, src)
		}
	}
	if agreeErrors == 0 {
		t.Error("no erroring programs among seeds; agreement tested vacuously")
	}
	t.Logf("agreed on %d error verdicts", agreeErrors)
}

// TestFailuresAreSemsFailures runs programs on which a summary engine
// with its own interpreter once disagreed with sem: each must fail
// exactly as the explicit-state check at context bound 0 fails, with
// sem's message at the statement's position.
func TestFailuresAreSemsFailures(t *testing.T) {
	cases := []struct {
		name  string
		maxTS int
		src   string
	}{
		{"ts overflow", 1, `
var x;
func f() { x = 1; }
func main() {
  __ts_put(@f);
  __ts_put(@f);
}
`},
		{"ts_put of a non-function", 1, `
var x;
func main() {
  __ts_put(x, 2);
  __ts_dispatch();
}
`},
		{"boolean arithmetic", 0, `
var g;
func main() {
  g = true + 1;
}
`},
		{"wrong argument count", 0, `
var g;
func f(a) { g = a; }
func main() {
  f(1, 2);
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br, err := Check(compile(t, tc.src, tc.maxTS), Options{})
			if err != nil {
				t.Fatal(err)
			}
			sr := concheck.Check(compile(t, tc.src, tc.maxTS), concheck.Options{})
			if sr.Verdict != concheck.Error {
				t.Fatalf("explicit-state check: want error, got %v", sr)
			}
			if br.Verdict != sr.Verdict || !sameFailure(br.Failure, sr.Failure) {
				t.Errorf("boolcheck %v, failure %v; explicit-state %v, failure %v",
					br.Verdict, br.Failure, sr.Verdict, sr.Failure)
			}
		})
	}
}

// TestExitsKeyedOnReturnValue: two exits of one instance that leave the
// globals alike but return different values, of one kind or of two, are
// two summaries. A callee that picks its return value must deliver each
// to its caller, whichever order the choice lists them in.
func TestExitsKeyedOnReturnValue(t *testing.T) {
	const pick = `
var g;
func pick() {
  choice { { return %s; } [] { return %s; } }
}
func main() {
  var r;
  r = pick();
  assert(r != %s);
}
`
	for _, vals := range [][2]string{{"1", "2"}, {"1", "true"}} {
		for _, order := range [][2]string{{vals[0], vals[1]}, {vals[1], vals[0]}} {
			for _, bad := range vals {
				r, err := Check(compile(t, fmt.Sprintf(pick, order[0], order[1], bad), 0), Options{})
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict != Error {
					t.Errorf("pick returning %s or %s: %s never delivered: %v", order[0], order[1], bad, r)
				}
			}
		}
	}
	r, err := Check(compile(t, fmt.Sprintf(pick, "1", "2", "3"), 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Safe || r.Summaries != 3 {
		t.Errorf("want safe with 3 summaries (pick's two exits, main's one), got %v", r)
	}
}
