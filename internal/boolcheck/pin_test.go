package boolcheck

import (
	"crypto/sha256"
	"fmt"
	"testing"

	ikiss "repro/internal/kiss"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/randprog"
	"repro/internal/sem"
)

// pinLine is everything the tabulation reports that a change of its keys
// must leave alone: verdict, bound, path edges, summaries and failure.
func pinLine(r *Result) string {
	fail := "-"
	if f := r.Failure; f != nil {
		fail = fmt.Sprintf("%s in %s", f.Error(), f.Fn)
	}
	return fmt.Sprintf("%v reason=%v edges=%d summaries=%d fail=%s", r.Verdict, r.Reason, r.PathEdges, r.Summaries, fail)
}

// compileKiss parses src, KISS-transforms it at the given ts bound (as
// the facade's WithSummaries path does) and compiles the result.
func compileKiss(t *testing.T, src string, maxTS int) *sem.Compiled {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lower.Program(p)
	out, err := ikiss.Transform(p, ikiss.Options{MaxTS: maxTS})
	if err != nil {
		t.Fatal(err)
	}
	c, err := sem.Compile(out)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pinnedDeferredForkSrc is BenchmarkSummaryVsExplicit's program (four
// deferred forks whose fourth increment fails the assertion).
const pinnedDeferredForkSrc = `
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

// pinnedRecursionSrc is examples/recursion's program: a worker recursing
// to a nondeterministic depth.
const pinnedRecursionSrc = `
var work;
var done;
func process() {
  work = work + 1;
  if (work > 3) { work = 1; }
  choice {
    { skip; }
  []
    { process(); }
  }
}
func worker() {
  process();
  done = 1;
}
func main() {
  work = 0;
  done = 0;
  async worker();
  assume(done == 1);
  assert(work >= 1);
  assert(work <= 3);
}
`

// TestPinnedResults pins the tabulation's full report on every program
// of this package's tests, on BenchmarkSummaryVsExplicit's program at ts
// bound 4 and on examples/recursion's at ts bound 1. The figures are
// those of the string-keyed tabulation; keying path edges, instances and
// exits on fingerprints must not move any of them.
func TestPinnedResults(t *testing.T) {
	cases := []struct {
		name  string
		maxTS int
		kiss  bool // KISS-transform the source first
		opts  Options
		src   string
		want  string
	}{
		{"straight line", 0, false, Options{}, `
var g;
func main() {
  g = 1;
  g = g + 2;
  assert(g == 3);
}
`, "safe reason=none edges=4 summaries=1 fail=-"},
		{"assertion violation", 0, false, Options{}, `
var g;
func main() {
  choice { { g = 1; } [] { g = 2; } }
  assert(g != 2);
}
`, "error reason=none edges=4 summaries=0 fail=5:3: assertion failure: assertion violated: (g != 2) (thread 0) in main"},
		{"interprocedural summaries", 0, false, Options{}, `
var g;
func inc(n) { return n + 1; }
func main() {
  var a; var b;
  a = inc(1);
  b = inc(1);
  assert(a == 2);
  assert(b == 2);
  g = inc(a);
  assert(g == 3);
}
`, "safe reason=none edges=9 summaries=3 fail=-"},
		{"unbounded recursion", 0, false, Options{}, `
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
`, "safe reason=none edges=8 summaries=2 fail=-"},
		{"recursive bug", 0, false, Options{}, `
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
`, "error reason=none edges=14 summaries=0 fail=5:3: assertion failure: assertion violated: (depth < 3) (thread 0) in rec"},
		{"mutual recursion", 0, false, Options{}, `
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
`, "safe reason=none edges=85 summaries=15 fail=-"},
		{"ts intrinsics", 2, false, Options{}, `
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
`, "safe reason=none edges=18 summaries=5 fail=-"},
		{"path edge budget", 0, false, Options{MaxPathEdges: 300}, `
var x;
func main() {
  x = 0;
  iter { assume(x < 100000); x = x + 1; }
}
`, "resource-bound reason=max-states edges=301 summaries=0 fail=-"},
		{"ts overflow", 1, false, Options{}, `
var x;
func f() { x = 1; }
func main() {
  __ts_put(@f);
  __ts_put(@f);
}
`, "error reason=none edges=2 summaries=0 fail=6:3: runtime error: __ts_put on full ts (transformation invariant violated) (thread 0) in main"},
		{"ts_put of a non-function", 1, false, Options{}, `
var x;
func main() {
  __ts_put(x, 2);
  __ts_dispatch();
}
`, "error reason=none edges=1 summaries=0 fail=4:3: runtime error: __ts_put of non-function value 0 (thread 0) in main"},
		{"boolean arithmetic", 0, false, Options{}, `
var g;
func main() {
  g = true + 1;
}
`, "error reason=none edges=1 summaries=0 fail=4:12: runtime error: arithmetic \"+\" on non-integers true, 1 (thread 0) in main"},
		{"wrong argument count", 0, false, Options{}, `
var g;
func f(a) { g = a; }
func main() {
  f(1, 2);
}
`, "error reason=none edges=1 summaries=0 fail=5:3: runtime error: call of \"f\" with 2 arguments, want 1 (thread 0) in main"},
		{"deferred forks", 4, true, Options{}, pinnedDeferredForkSrc, "error reason=none edges=901 summaries=0 fail=7:3: assertion failure: assertion violated: (x < 4) (thread 0) in __kiss_f"},
		{"examples/recursion", 1, true, Options{}, pinnedRecursionSrc, "safe reason=none edges=556 summaries=75 fail=-"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c *sem.Compiled
			if tc.kiss {
				c = compileKiss(t, tc.src, tc.maxTS)
			} else {
				c = compile(t, tc.src, tc.maxTS)
			}
			r, err := Check(c, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := pinLine(r); got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestPinnedRandprogDigest pins the tabulation's report on KISS-transformed
// random programs, seeds 0-199 at ts bounds 0, 1 and 2, as one SHA-256
// over the report lines.
func TestPinnedRandprogDigest(t *testing.T) {
	h := sha256.New()
	errors := 0
	for seed := int64(0); seed < 200; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for maxTS := 0; maxTS <= 2; maxTS++ {
			r, err := Check(compileKiss(t, src, maxTS), Options{})
			if err != nil {
				t.Fatalf("seed %d ts %d: %v", seed, maxTS, err)
			}
			if r.Verdict == Error {
				errors++
			}
			fmt.Fprintf(h, "%d %d %s\n", seed, maxTS, pinLine(r))
		}
	}
	const want = "36e25ab9fe447d3056bfee8948892159233ec0361bba9ec7a2b5ed5973a42ff9"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s (%d error verdicts)", got, want, errors)
	}
}
