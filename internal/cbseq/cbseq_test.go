package cbseq

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/kiss"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/sema"
	"repro/internal/seqcheck"
)

func parseLowered(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		t.Fatalf("sema: %v", err)
	}
	lower.Program(p)
	return p
}

// checkCB transforms under CB(K) and runs seqcheck, returning the verdict.
func checkCB(t *testing.T, src string, k int) seqcheck.Verdict {
	t.Helper()
	out, err := Transform(parseLowered(t, src), Options{ContextSwitches: k})
	if err != nil {
		t.Fatalf("cb(%d) transform: %v", k, err)
	}
	c, err := sem.Compile(out)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := seqcheck.Check(c, seqcheck.Options{MaxStates: 2_000_000})
	if r.Verdict == seqcheck.ResourceBound {
		t.Fatalf("cb(%d): resource bound tripped on a test program", k)
	}
	return r.Verdict
}

// checkKISS runs the KISS pipeline (ts bound 2) on the same source.
func checkKISS(t *testing.T, src string) seqcheck.Verdict {
	t.Helper()
	out, err := kiss.Transform(parseLowered(t, src), kiss.Options{MaxTS: 2})
	if err != nil {
		t.Fatalf("kiss transform: %v", err)
	}
	c, err := sem.Compile(out)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := seqcheck.Check(c, seqcheck.Options{MaxStates: 2_000_000})
	if r.Verdict == seqcheck.ResourceBound {
		t.Fatalf("kiss: resource bound tripped on a test program")
	}
	return r.Verdict
}

const smallSrc = `
var g;
func worker(v) {
  g = v;
  return v;
}
func main() {
  var r;
  async worker(1);
  r = worker(2);
  assert(g > 0);
}
`

func TestTransformProducesSequentialProgram(t *testing.T) {
	p := parseLowered(t, smallSrc)
	out, err := Transform(p, Options{ContextSwitches: 2})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if err := sema.Check(out, sema.Transformed); err != nil {
		t.Fatalf("output ill-formed: %v", err)
	}
	if ok, why := lower.IsCore(out); !ok {
		t.Fatalf("output not core: %s", why)
	}
	if ast.UsesConcurrency(out) {
		t.Fatal("output still contains async/atomic")
	}
	if out.MaxTS != DefaultMaxPending {
		t.Errorf("MaxTS not recorded: %d", out.MaxTS)
	}
}

func TestTransformedOutputReparses(t *testing.T) {
	p := parseLowered(t, smallSrc)
	out, err := Transform(p, Options{ContextSwitches: 1})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	back, err := parser.Parse(ast.Print(out))
	if err != nil {
		t.Fatalf("printed output does not reparse: %v", err)
	}
	if err := sema.Check(back, sema.Transformed); err != nil {
		t.Fatalf("reparsed output ill-formed: %v", err)
	}
}

// resume2Src needs the forked worker to be suspended once and resumed:
// main and worker hand a phase token back and forth (M W M W). KISS's
// ts discipline kills a dispatched thread at its first yield, so the
// worker can never reach its assert; one guessed context switch (CB(1))
// is enough to simulate the handshake.
const resume2Src = `
var phase;
func worker() {
  assume(phase == 1);
  phase = 2;
  assume(phase == 3);
  assert(false);
}
func main() {
  async worker();
  phase = 1;
  assume(phase == 2);
  phase = 3;
}
`

func TestWorkerResumptionFoundAtK1MissedByKiss(t *testing.T) {
	if v := checkKISS(t, resume2Src); v != seqcheck.Safe {
		t.Fatalf("kiss verdict = %v, want Safe (ts discipline cannot resume the worker)", v)
	}
	if v := checkCB(t, resume2Src, 0); v != seqcheck.Safe {
		t.Fatalf("cb(0) verdict = %v, want Safe (no switches, handshake cannot complete)", v)
	}
	for k := 1; k <= 3; k++ {
		if v := checkCB(t, resume2Src, k); v != seqcheck.Error {
			t.Fatalf("cb(%d) verdict = %v, want Error", k, v)
		}
	}
}

// resume3Src is the three-phase variant (M W M W M): main needs three
// contexts, so two guessed switches (CB(2)) are required and CB(1) must
// still miss it — the monotone frontier in K.
const resume3Src = `
var phase;
func worker() {
  assume(phase == 1);
  phase = 2;
  assume(phase == 3);
  phase = 4;
}
func main() {
  async worker();
  phase = 1;
  assume(phase == 2);
  phase = 3;
  assume(phase == 4);
  assert(false);
}
`

func TestThreePhaseHandshakeNeedsTwoSwitches(t *testing.T) {
	if v := checkKISS(t, resume3Src); v != seqcheck.Safe {
		t.Fatalf("kiss verdict = %v, want Safe", v)
	}
	if v := checkCB(t, resume3Src, 1); v != seqcheck.Safe {
		t.Fatalf("cb(1) verdict = %v, want Safe", v)
	}
	for k := 2; k <= 4; k++ {
		if v := checkCB(t, resume3Src, k); v != seqcheck.Error {
			t.Fatalf("cb(%d) verdict = %v, want Error", k, v)
		}
	}
}

// A safe program stays safe: per-statement increments cannot be lost, so
// the assert holds under every interleaving, and no combination of
// guessed snapshots may survive linking and report it.
func TestSafeProgramStaysSafe(t *testing.T) {
	src := `
var g;
func worker() { g = g + 1; }
func main() {
  async worker();
  g = g + 1;
  assert(g <= 2);
}
`
	for k := 0; k <= 3; k++ {
		if v := checkCB(t, src, k); v != seqcheck.Safe {
			t.Fatalf("cb(%d) verdict = %v, want Safe", k, v)
		}
	}
}

// The guess domain contains a transient value (2) that no linkable
// snapshot can hold: the atomic writes 2 then 1 without an observable
// point between them. The deferred-error flag plus the linking assumes
// must prune the run where main guesses g == 2, not report it.
func TestTransientValueGuessDoesNotLink(t *testing.T) {
	src := `
var g;
func worker() {
  atomic {
    g = 2;
    g = 1;
  }
}
func main() {
  async worker();
  assert(g != 2);
}
`
	for k := 0; k <= 3; k++ {
		if v := checkCB(t, src, k); v != seqcheck.Safe {
			t.Fatalf("cb(%d) verdict = %v, want Safe (guess g=2 must not link)", k, v)
		}
	}
}

// A tight pending bound falls back to inlining forks synchronously —
// still sound, still able to find the straight write-after-fork bug.
func TestPendingOverflowInlinesForks(t *testing.T) {
	src := `
var g;
func worker() { g = g + 1; }
func main() {
  async worker();
  async worker();
  async worker();
  assert(g < 3);
}
`
	out, err := Transform(parseLowered(t, src), Options{ContextSwitches: 2, MaxPending: 1})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	c, err := sem.Compile(out)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := seqcheck.Check(c, seqcheck.Options{MaxStates: 2_000_000})
	if r.Verdict != seqcheck.Error {
		t.Fatalf("verdict = %v, want Error (three increments reach g == 3)", r.Verdict)
	}
}

// A synchronous call in checked code exercises the post-call raise
// check; the driver must have initialized the raise flag to a bool by
// then (globals start life as int 0, and negating an int is a runtime
// error the checker would report as a spurious bug).
func TestSyncCallRaiseCheckDoesNotMisfire(t *testing.T) {
	src := `
var g;
func helper() { g = g + 1; }
func main() {
  helper();
  async helper();
  assert(g <= 2);
}
`
	for k := 0; k <= 2; k++ {
		if v := checkCB(t, src, k); v != seqcheck.Safe {
			t.Fatalf("cb(%d) verdict = %v, want Safe", k, v)
		}
	}
}

func TestUnsupportedHeapProgram(t *testing.T) {
	src := `
record R { f; }
var p;
func main() {
  p = new R;
  p->f = 1;
  assert(p->f == 1);
}
`
	_, err := Transform(parseLowered(t, src), Options{ContextSwitches: 2})
	if err == nil || !IsUnsupported(err) {
		t.Fatalf("want UnsupportedError for heap program, got %v", err)
	}
}

func TestUnsupportedMixedKindSharedGlobal(t *testing.T) {
	src := `
var flag;
func worker() { flag = true; }
func main() {
  async worker();
  flag = 1;
  assert(flag == 1);
}
`
	_, err := Transform(parseLowered(t, src), Options{ContextSwitches: 2})
	if err == nil || !IsUnsupported(err) {
		t.Fatalf("want UnsupportedError for mixed-kind shared global, got %v", err)
	}
}

func TestBoolSharedGlobalSupported(t *testing.T) {
	src := `
var done;
func worker() { done = true; }
func main() {
  async worker();
  assume(done);
  assert(false);
}
`
	if v := checkCB(t, src, 1); v != seqcheck.Error {
		t.Fatalf("cb(1) verdict = %v, want Error (done can be observed true)", v)
	}
}

func TestReservedNamesRejected(t *testing.T) {
	src := `var __cb_x; func main() { __cb_x = 1; }`
	if _, err := Transform(parseLowered(t, src), Options{}); err == nil {
		t.Fatal("want error for reserved '__' prefix")
	}
}

func TestNegativeBoundRejected(t *testing.T) {
	if _, err := Transform(parseLowered(t, smallSrc), Options{ContextSwitches: -1}); err == nil {
		t.Fatal("want error for negative context-switch bound")
	}
}

func TestOriginalNameRoundTrip(t *testing.T) {
	if got, ok := OriginalName(TranslatedName("f")); !ok || got != "f" {
		t.Errorf("OriginalName(TranslatedName(f)) = %q, %v", got, ok)
	}
	if got, ok := OriginalName(WrapperName("f")); !ok || got != "f" {
		t.Errorf("OriginalName(WrapperName(f)) = %q, %v", got, ok)
	}
	if _, ok := OriginalName(YieldFn); ok {
		t.Errorf("OriginalName(%s) should not resolve", YieldFn)
	}
}
