package sem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lower"
	"repro/internal/parser"
)

// compile parses, lowers, and compiles a program.
func compile(t *testing.T, src string) *Compiled {
	t.Helper()
	return compileTS(t, src, 0)
}

// compileTS is compile with an explicit ts bound for programs that use the
// __ts_put intrinsic directly.
func compileTS(t *testing.T, src string, maxTS int) *Compiled {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p.MaxTS = maxTS
	lower.Program(p)
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// run executes the program depth-first until all paths finish, fail, or
// block, returning the first failure (if any) and the set of final global
// valuations rendered as strings.
func run(t *testing.T, c *Compiled) (*Failure, map[string]bool) {
	t.Helper()
	finals := map[string]bool{}
	stack := []*State{NewState(c)}
	seen := map[string]bool{}
	steps := 0
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if steps++; steps > 200000 {
			t.Fatal("runaway execution")
		}
		progress := false
		for ti := range s.Threads {
			if s.Threads[ti].Done() {
				continue
			}
			sr := Step(s, ti)
			if sr.Failure != nil {
				return sr.Failure, finals
			}
			for _, o := range sr.Outcomes {
				fp := o.State.FingerprintString()
				if !seen[fp] {
					seen[fp] = true
					stack = append(stack, o.State)
				}
			}
			if len(sr.Outcomes) > 0 {
				progress = true
			}
		}
		if !progress && allThreadsDone(s) {
			var b strings.Builder
			for i, g := range s.Globals {
				b.WriteString(c.Globals[i] + "=" + g.Text(c) + ";")
			}
			finals[b.String()] = true
		}
	}
	return nil, finals
}

func allThreadsDone(s *State) bool {
	for _, t := range s.Threads {
		if !t.Done() {
			return false
		}
	}
	return true
}

func TestArithmeticAndComparison(t *testing.T) {
	c := compile(t, `
var r;
func main() {
  var a; var b;
  a = 6; b = 7;
  r = a * b + 1 - 3;
  assert(r == 40);
  assert(a < b);
  assert(b >= a);
  assert(a != b);
  assert(!(a == b));
  assert(a <= 6 && b > 0 || false);
}
`)
	fail, finals := run(t, c)
	if fail != nil {
		t.Fatalf("unexpected failure: %v", fail)
	}
	if len(finals) != 1 || !finals["r=40;"] {
		t.Errorf("final globals: %v", finals)
	}
}

func TestPointersAndHeap(t *testing.T) {
	c := compile(t, `
record PAIR { a; b; }
var out;
func main() {
  var p; var q; var f;
  p = new PAIR;
  p->a = 1;
  p->b = 2;
  q = &p->a;
  *q = 10;
  f = &out;
  *f = p->a + p->b;
  assert(out == 12);
}
`)
	if fail, _ := run(t, c); fail != nil {
		t.Fatalf("unexpected failure: %v", fail)
	}
}

func TestCallsReturnValues(t *testing.T) {
	c := compile(t, `
var r;
func add(a, b) { return a + b; }
func twice(x) { var s; s = add(x, x); return s; }
func main() { r = twice(21); assert(r == 42); }
`)
	if fail, _ := run(t, c); fail != nil {
		t.Fatalf("unexpected failure: %v", fail)
	}
}

func TestImplicitReturnYieldsUnit(t *testing.T) {
	c := compile(t, `
var r;
func noret() { r = 1; }
func main() {
  var u;
  u = noret();
  assert(u == u);
}
`)
	if fail, _ := run(t, c); fail != nil {
		t.Fatalf("unexpected failure: %v", fail)
	}
}

func TestAssertFailureReported(t *testing.T) {
	c := compile(t, `func main() { assert(false); }`)
	fail, _ := run(t, c)
	if fail == nil || fail.Kind != AssertFail {
		t.Fatalf("want assertion failure, got %v", fail)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, fragment string
	}{
		{"null deref", `var p; func main() { var x; p = null; x = *p; }`, "null pointer"},
		{"null field", `record R { f; } func main() { var p; var x; p = null; x = p->f; }`, "null pointer"},
		{"non-pointer deref", `func main() { var x; var y; x = 3; y = *x; }`, "non-pointer"},
		{"bad arithmetic", `func main() { var x; x = true + 1; }`, "non-integer"},
		{"bad condition", `func main() { assert(3); }`, "non-boolean"},
		{"call non-function", `func main() { var f; f = 3; f(); }`, "non-function"},
		{"store to object", `record R { f; } func main() { var p; p = new R; *p = 1; }`, "whole object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compile(t, tc.src)
			fail, _ := run(t, c)
			if fail == nil {
				t.Fatalf("want runtime error containing %q", tc.fragment)
			}
			if fail.Kind != RuntimeFail || !strings.Contains(fail.Msg, tc.fragment) {
				t.Errorf("failure %v does not mention %q", fail, tc.fragment)
			}
		})
	}
}

func TestChoiceExploresAllBranches(t *testing.T) {
	c := compile(t, `
var r;
func main() {
  choice { { r = 1; } [] { r = 2; } [] { r = 3; } }
}
`)
	_, finals := run(t, c)
	if len(finals) != 3 {
		t.Errorf("choice produced %d final states, want 3: %v", len(finals), finals)
	}
}

func TestIterExploresAllCounts(t *testing.T) {
	c := compile(t, `
var r;
func main() {
  r = 0;
  iter { assume(r < 3); r = r + 1; }
}
`)
	_, finals := run(t, c)
	// r in {0,1,2,3}
	if len(finals) != 4 {
		t.Errorf("iter produced %d final valuations, want 4: %v", len(finals), finals)
	}
}

// TestAtomicAllOrNothing: the lock idiom — if the atomic's assume fails,
// the whole atomic does not execute, and it retries later.
func TestAtomicLockIdiom(t *testing.T) {
	c := compile(t, `
var l;
var r;
func locker() {
  atomic { assume(l == 0); l = 1; }
  r = r + 1;
  atomic { l = 0; }
}
func main() {
  l = 0; r = 0;
  async locker();
  async locker();
}
`)
	fail, finals := run(t, c)
	if fail != nil {
		t.Fatalf("unexpected failure: %v", fail)
	}
	// Both lockers complete under every interleaving: r == 2, l == 0.
	if len(finals) != 1 || !finals["l=0;r=2;"] {
		t.Errorf("final states: %v, want exactly l=0;r=2;", finals)
	}
}

// TestAtomicNoInterleaving: a non-atomic read-modify-write loses updates,
// the atomic one never does.
func TestAtomicPreventsLostUpdate(t *testing.T) {
	racy := compile(t, `
var x;
func inc() { var t; t = x; x = t + 1; }
func main() { x = 0; async inc(); async inc(); }
`)
	_, finals := run(t, racy)
	if !finals["x=1;"] || !finals["x=2;"] {
		t.Errorf("racy increments should reach both x=1 and x=2: %v", finals)
	}

	safe := compile(t, `
var x;
func inc() { atomic { x = x + 1; } }
func main() { x = 0; async inc(); async inc(); }
`)
	_, finals = run(t, safe)
	if len(finals) != 1 || !finals["x=2;"] {
		t.Errorf("atomic increments must always reach x=2: %v", finals)
	}
}

func TestAtomicWithChoice(t *testing.T) {
	c := compile(t, `
var r;
func main() {
  atomic { choice { { r = 1; } [] { r = 2; } } }
}
`)
	_, finals := run(t, c)
	if len(finals) != 2 {
		t.Errorf("atomic choice: %v, want 2 outcomes", finals)
	}
}

func TestAtomicBlockedWhenAllPathsBlock(t *testing.T) {
	c := compile(t, `
var l;
func main() {
  l = 1;
  atomic { assume(l == 0); l = 2; }
}
`)
	s := NewState(c)
	// step main: l = 1
	sr := Step(s, 0)
	if len(sr.Outcomes) != 1 {
		t.Fatalf("setup step: %+v", sr)
	}
	sr = Step(sr.Outcomes[0].State, 0)
	if !sr.Blocked {
		t.Fatalf("atomic with false assume should block, got %+v", sr)
	}
}

func TestAsyncCreatesThread(t *testing.T) {
	c := compile(t, `
func f() { return; }
func main() { async f(); }
`)
	s := NewState(c)
	sr := Step(s, 0)
	if len(sr.Outcomes) != 1 {
		t.Fatalf("async step: %+v", sr)
	}
	ns := sr.Outcomes[0].State
	if len(ns.Threads) != 2 {
		t.Fatalf("got %d threads after async, want 2", len(ns.Threads))
	}
	if ns.Threads[1].Top().CF.Fn.Name != "f" {
		t.Errorf("new thread runs %s, want f", ns.Threads[1].Top().CF.Fn.Name)
	}
}

func TestBlockedAssumeUnblocksViaOtherThread(t *testing.T) {
	c := compile(t, `
var flag;
var done;
func waiter() { assume(flag == 1); done = 1; }
func main() { flag = 0; done = 0; async waiter(); flag = 1; }
`)
	fail, finals := run(t, c)
	if fail != nil {
		t.Fatalf("failure: %v", fail)
	}
	if !finals["flag=1;done=1;"] {
		t.Errorf("waiter never completed: %v", finals)
	}
}

func TestTsIntrinsics(t *testing.T) {
	c := compileTS(t, `
var r;
func f(v) { r = r + v; }
func main() {
  r = 0;
  __ts_put(@f, 1);
  __ts_put(@f, 2);
  assert(__ts_size() == 2);
  __ts_dispatch();
  __ts_dispatch();
  assert(__ts_size() == 0);
  assert(r == 3);
}
`, 2)
	fail, _ := run(t, c)
	if fail != nil {
		t.Fatalf("ts intrinsics failed: %v", fail)
	}
}

func TestTsDispatchDeduplicatesEqualEntries(t *testing.T) {
	c := compileTS(t, `
var r;
func f() { r = r + 1; }
func main() {
  __ts_put(@f);
  __ts_put(@f);
  __ts_dispatch();
}
`, 2)
	s := NewState(c)
	// run until the dispatch instruction
	var disp *State
	stack := []*State{s}
	for len(stack) > 0 && disp == nil {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(cur.Ts) == 2 {
			fr := cur.Threads[0].Top()
			if fr != nil && fr.PC < len(fr.CF.Code) && fr.CF.Code[fr.PC].Op == OpTsDispatch {
				disp = cur
				break
			}
		}
		sr := Step(cur, 0)
		stack = append(stack, statesOf(sr)...)
	}
	if disp == nil {
		t.Fatal("never reached dispatch with full ts")
	}
	sr := Step(disp, 0)
	if len(sr.Outcomes) != 1 {
		t.Errorf("dispatch of two identical entries produced %d successors, want 1 (deduplicated)", len(sr.Outcomes))
	}
}

func statesOf(sr StepResult) []*State {
	out := make([]*State, 0, len(sr.Outcomes))
	for _, o := range sr.Outcomes {
		out = append(out, o.State)
	}
	return out
}

// TestFingerprintCanonicalHeap: states that differ only in allocation
// order of unreachable garbage or in ts entry order have equal
// fingerprints.
func TestFingerprintCanonicalization(t *testing.T) {
	c := compile(t, `
record R { f; }
var keep;
func main() {
  var a; var b;
  a = new R;
  b = new R;
  keep = 0;
}
`)
	// Two different paths to "two objects allocated": same program here,
	// so instead check ts multiset order directly.
	s1 := NewState(c)
	s1.Ts = []Pending{{Fn: "main"}, {Fn: "other"}}
	s2 := s1.Clone()
	s2.Ts = []Pending{{Fn: "other"}, {Fn: "main"}}
	if s1.FingerprintString() != s2.FingerprintString() {
		t.Error("ts multiset order affects fingerprint")
	}

	// Garbage objects are excluded: allocate an unreachable object.
	s3 := s1.Clone()
	s3.Heap = append(s3.Heap, &Object{Rec: "R", Fields: []Value{IntV(99)}})
	if s1.FingerprintString() != s3.FingerprintString() {
		t.Error("unreachable heap garbage affects fingerprint")
	}
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	c := compile(t, `var g; func main() { g = 1; }`)
	s1 := NewState(c)
	s2 := s1.Clone()
	s2.mutableGlobals()[0] = IntV(7)
	if s1.FingerprintString() == s2.FingerprintString() {
		t.Error("different global values collide")
	}
	s3 := s1.Clone()
	s3.MutableTopFrame(0).PC = 1
	if s1.FingerprintString() == s3.FingerprintString() {
		t.Error("different PCs collide")
	}
}

func TestValueEquality(t *testing.T) {
	c := compile(t, `func f() { } func g() { } func main() { }`)
	fv := c.FuncV
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{IntV(1), IntV(1), true},
		{IntV(1), IntV(2), false},
		{BoolV(true), BoolV(true), true},
		{BoolV(true), IntV(1), false},
		{fv("f"), fv("f"), true},
		{fv("f"), fv("g"), false},
		{NullV(), NullV(), true},
		{NullV(), IntV(0), false},
		{PtrV(Cell{Kind: CGlobal, Idx: 1}), PtrV(Cell{Kind: CGlobal, Idx: 1}), true},
		{PtrV(Cell{Kind: CGlobal, Idx: 1}), PtrV(Cell{Kind: CGlobal, Idx: 2}), false},
		{UnitV(), UnitV(), true},
	}
	for i, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.eq {
			t.Errorf("case %d: %s == %s is %v, want %v", i, tc.a.Text(c), tc.b.Text(c), got, tc.eq)
		}
		if got := tc.b.Equal(tc.a); got != tc.eq {
			t.Errorf("case %d: equality not symmetric", i)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	c := compile(t, `
record R { f; }
var g;
func main() { var p; p = new R; p->f = 1; g = 2; }
`)
	s := NewState(c)
	// advance two steps so there is heap content
	for i := 0; i < 2; i++ {
		sr := Step(s, 0)
		s = sr.Outcomes[0].State
	}
	clone := s.Clone()
	// Mutations go through the COW accessors (as Step's do); the clone
	// must observe none of them.
	s.mutableGlobals()[0] = IntV(99)
	if len(s.Heap) > 0 {
		s.mutableObject(0).Fields[0] = IntV(42)
	}
	s.MutableTopFrame(0).PC = 999
	if clone.Globals[0].Equal(IntV(99)) {
		t.Error("clone shares globals")
	}
	if len(clone.Heap) > 0 && clone.Heap[0].Fields[0].Equal(IntV(42)) {
		t.Error("clone shares heap objects")
	}
	if clone.Threads[0].Top().PC == 999 {
		t.Error("clone shares frames")
	}
}

func TestDotCFG(t *testing.T) {
	c := compile(t, `
var g;
func main() {
  g = 1;
  choice { { g = 2; } [] { g = 3; } }
  iter { assume(g < 5); g = g + 1; }
  atomic { g = 0; }
  return;
}
`)
	dot, err := DotCFG(c, "main")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"digraph", "entry ->", "-> exit", "choice", "atomic ("} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
	if _, err := DotCFG(c, "nosuch"); err == nil {
		t.Error("unknown function accepted")
	}
	// Every referenced node must be defined (n<i> both declared and used).
	for i := 0; ; i++ {
		ref := fmt.Sprintf("n%d", i)
		if !strings.Contains(dot, ref+" [") {
			if strings.Contains(dot, "-> "+ref+";") || strings.Contains(dot, "-> "+ref+" [") {
				t.Errorf("edge references undefined node %s", ref)
			}
			break
		}
	}
	names := FunctionNames(c)
	if len(names) != 1 || names[0] != "main" {
		t.Errorf("FunctionNames = %v", names)
	}
}
