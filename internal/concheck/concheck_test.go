package concheck

import (
	"testing"

	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
)

func compile(t *testing.T, src string) *sem.Compiled {
	t.Helper()
	return compileTS(t, src, 0)
}

// compileTS compiles src with ts bound maxTS for the __ts_* intrinsics.
func compileTS(t *testing.T, src string, maxTS int) *sem.Compiled {
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

func TestSequentialProgramStillWorks(t *testing.T) {
	c := compile(t, `var x; func main() { x = 1; assert(x == 1); }`)
	r := Check(c, Options{ContextBound: -1})
	if r.Verdict != Safe {
		t.Fatalf("want safe, got %v", r)
	}
}

func TestInterleavingBugFound(t *testing.T) {
	// Classic lost-update assertion: with two unsynchronized increments,
	// x can end at 1.
	c := compile(t, `
var x;
var done;
func inc() { var t; t = x; x = t + 1; done = done + 1; }
func check() { assume(done == 2); assert(x == 2); }
func main() {
  x = 0; done = 0;
  async inc();
  async inc();
  async check();
}
`)
	r := Check(c, Options{ContextBound: -1})
	if r.Verdict != Error {
		t.Fatalf("want lost-update assertion failure, got %v", r)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no trace")
	}
}

func TestAtomicIncrementSafe(t *testing.T) {
	c := compile(t, `
var x;
var done;
func inc() { atomic { x = x + 1; done = done + 1; } }
func check() { assume(done == 2); assert(x == 2); }
func main() {
  x = 0; done = 0;
  async inc();
  async inc();
  async check();
}
`)
	r := Check(c, Options{ContextBound: -1})
	if r.Verdict != Safe {
		t.Fatalf("want safe with atomic increments, got %v", r)
	}
}

func TestContextBoundLimitsDetection(t *testing.T) {
	// The violation needs at least 2 context switches: main -> worker
	// (seeing the half-initialized state) requires main to run, switch to
	// worker mid-main, and the assert is in the worker.
	src := `
var a;
var b;
func worker() {
  assume(a == 1);
  assert(b == 1);
}
func main() {
  async worker();
  a = 1;
  b = 1;
}
`
	// With 0 context switches only one thread runs: no error (worker
	// blocks immediately if scheduled first, or main runs alone).
	c := compile(t, src)
	r0 := Check(c, Options{ContextBound: 0})
	if r0.Verdict != Safe {
		t.Fatalf("context bound 0: want safe, got %v", r0)
	}
	// Unbounded: main sets a=1, switch to worker: a==1, b==0 -> error.
	r := Check(compile(t, src), Options{ContextBound: -1})
	if r.Verdict != Error {
		t.Fatalf("unbounded: want error, got %v", r)
	}
	// One switch suffices: run main through a=1, then switch to worker.
	r1 := Check(compile(t, src), Options{ContextBound: 1})
	if r1.Verdict != Error {
		t.Fatalf("context bound 1: want error, got %v", r1)
	}
}

func TestDeadlockIsNotAnError(t *testing.T) {
	c := compile(t, `
var x;
func main() {
  x = 0;
  assume(x == 1);
}
`)
	r := Check(c, Options{ContextBound: -1})
	if r.Verdict != Safe {
		t.Fatalf("a blocked program is not an error in this semantics, got %v", r)
	}
	if r.Deadlocks == 0 {
		t.Error("deadlock not counted")
	}
}

func TestBlockedThreadRetriedAfterUnblock(t *testing.T) {
	c := compile(t, `
var flag;
func waiter() { assume(flag == 1); assert(false); }
func main() { flag = 0; async waiter(); flag = 1; }
`)
	r := Check(c, Options{ContextBound: -1})
	if r.Verdict != Error {
		t.Fatalf("waiter must run after flag set, got %v", r)
	}
}

func TestMaxStatesBudget(t *testing.T) {
	c := compile(t, `
var x;
func inc() { var t; t = x; x = t + 1; }
func main() {
  x = 0;
  async inc(); async inc(); async inc(); async inc(); async inc();
}
`)
	r := Check(c, Options{ContextBound: -1, MaxStates: 100})
	if r.Verdict != ResourceBound {
		t.Fatalf("want resource-bound, got %v", r)
	}
}

func TestStateCountGrowsWithThreads(t *testing.T) {
	prog := func(n int) string {
		src := "var x;\nfunc inc() { var t; t = x; x = t + 1; }\nfunc main() {\n  x = 0;\n"
		for i := 0; i < n; i++ {
			src += "  async inc();\n"
		}
		return src + "}\n"
	}
	s2 := Check(compile(t, prog(2)), Options{ContextBound: -1}).States
	s4 := Check(compile(t, prog(4)), Options{ContextBound: -1}).States
	if s4 <= 4*s2 {
		t.Errorf("expected superlinear growth: 2 threads %d states, 4 threads %d", s2, s4)
	}
}
