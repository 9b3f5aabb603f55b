package kiss

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sema"
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
	out, err := Transform(p, Options{MaxTS: 1})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	// Output is in the sequential fragment and core form.
	if err := sema.Check(out, sema.Transformed); err != nil {
		t.Fatalf("output ill-formed: %v", err)
	}
	if ok, why := lower.IsCore(out); !ok {
		t.Fatalf("output not core: %s", why)
	}
	if ast.UsesConcurrency(out) {
		t.Fatal("output still contains async/atomic")
	}
	if out.MaxTS != 1 {
		t.Errorf("MaxTS not recorded: %d", out.MaxTS)
	}
}

func TestTransformAddsExpectedDeclarations(t *testing.T) {
	p := parseLowered(t, smallSrc)
	out, err := Transform(p, Options{MaxTS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.FindGlobal(RaiseVar) == nil {
		t.Errorf("missing %s global", RaiseVar)
	}
	if out.FindGlobal(AccessVar) != nil {
		t.Errorf("%s must not exist in assertion mode", AccessVar)
	}
	for _, name := range []string{"main", ScheduleFn, TranslatedName("main"), TranslatedName("worker")} {
		if out.FindFunc(name) == nil {
			t.Errorf("missing function %s", name)
		}
	}
	if out.FindFunc("worker") != nil {
		t.Error("untranslated source function leaked into the output")
	}
}

func TestRaceTransformAddsChecks(t *testing.T) {
	p := parseLowered(t, smallSrc)
	out, err := TransformRace(p, ast.RaceTarget{Global: "g"}, Options{MaxTS: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.FindGlobal(AccessVar) == nil {
		t.Errorf("missing %s global", AccessVar)
	}
	for _, name := range []string{CheckRFn, CheckWFn} {
		if out.FindFunc(name) == nil {
			t.Errorf("missing %s", name)
		}
	}
	// The worker's write g = v must be preceded by a check_w branch.
	src := ast.Print(out)
	if !strings.Contains(src, CheckWFn+"(") || !strings.Contains(src, "&g") {
		t.Errorf("no check_w call on &g in output:\n%s", src)
	}
	if !strings.Contains(src, "__race_cell(x)") {
		t.Errorf("check bodies missing the distinguished-cell test:\n%s", src)
	}
}

// TestRaiseInstrumentationShape: Figure 4 inserts
// choice{skip [] RAISE} before a statement (here a global write; see
// TestPrefixOnlyWhereVisible for which ones); RAISE is
// raise := true; return.
func TestRaiseInstrumentationShape(t *testing.T) {
	p := parseLowered(t, `var g; func main() { g = 1; }`)
	out, err := Transform(p, Options{MaxTS: 0})
	if err != nil {
		t.Fatal(err)
	}
	tm := out.FindFunc(TranslatedName("main"))
	if tm == nil {
		t.Fatal("no translated main")
	}
	src := ast.Print(out)
	if !strings.Contains(src, RaiseVar+" = true") {
		t.Error("no RAISE assignment in output")
	}
	// With MaxTS == 0 the schedule call is elided as dead code.
	callsSchedule := false
	ast.WalkStmts(tm.Body, func(s ast.Stmt) bool {
		if c, ok := s.(*ast.CallStmt); ok {
			if fl, ok := c.Fn.(*ast.FuncLit); ok && fl.Name == ScheduleFn {
				callsSchedule = true
			}
		}
		return true
	})
	if callsSchedule {
		t.Error("schedule() emitted despite MaxTS == 0")
	}
	outTS1, err := Transform(parseLowered(t, `var g; func main() { g = 1; }`), Options{MaxTS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ast.Print(outTS1), ScheduleFn) {
		t.Error("schedule() missing with MaxTS == 1")
	}
}

func TestAsyncTranslation(t *testing.T) {
	p := parseLowered(t, smallSrc)
	// MaxTS = 0: async becomes a direct synchronous call, no ts ops.
	out0, err := Transform(p, Options{MaxTS: 0})
	if err != nil {
		t.Fatal(err)
	}
	src0 := ast.Print(out0)
	if strings.Contains(src0, "__ts_put") || strings.Contains(src0, "__ts_size") {
		t.Errorf("MaxTS=0 output contains ts operations:\n%s", src0)
	}
	if !strings.Contains(src0, TranslatedName("worker")+"(") {
		t.Errorf("inlined async call missing:\n%s", src0)
	}

	// MaxTS = 1: the size test and put appear.
	out1, err := Transform(parseLowered(t, smallSrc), Options{MaxTS: 1})
	if err != nil {
		t.Fatal(err)
	}
	src1 := ast.Print(out1)
	for _, frag := range []string{"__ts_put(@" + TranslatedName("worker"), "__ts_size()", "__ts_dispatch()"} {
		if !strings.Contains(src1, frag) {
			t.Errorf("MaxTS=1 output missing %q:\n%s", frag, src1)
		}
	}
}

func TestFunctionConstantsRewritten(t *testing.T) {
	p := parseLowered(t, `
var g;
func f() { g = 1; }
func main() {
  var v;
  v = @f;
  v();
}
`)
	out, err := Transform(p, Options{MaxTS: 0})
	if err != nil {
		t.Fatal(err)
	}
	src := ast.Print(out)
	if !strings.Contains(src, "@"+TranslatedName("f")) {
		t.Errorf("function constant not rewritten:\n%s", src)
	}
	// No reference to the untranslated name may remain in expressions.
	if strings.Contains(src, "@f;") || strings.Contains(src, "@f\n") {
		t.Errorf("untranslated function constant leaked:\n%s", src)
	}
}

func TestAtomicBodyNotInstrumented(t *testing.T) {
	p := parseLowered(t, `
var l;
func main() {
  atomic { assume(l == 0); l = 1; }
}
`)
	out, err := Transform(p, Options{MaxTS: 0})
	if err != nil {
		t.Fatal(err)
	}
	tm := out.FindFunc(TranslatedName("main"))
	// Exactly one choice (the prefix); the body's two statements execute
	// with no per-statement instrumentation; the atomic wrapper is gone.
	choices := 0
	atomics := 0
	ast.WalkStmts(tm.Body, func(s ast.Stmt) bool {
		switch s.(type) {
		case *ast.ChoiceStmt:
			choices++
		case *ast.AtomicStmt:
			atomics++
		}
		return true
	})
	if atomics != 0 {
		t.Error("atomic statement survived the translation")
	}
	if choices != 1 {
		t.Errorf("got %d choice statements, want exactly the single prefix", choices)
	}
}

func TestReservedNamesRejected(t *testing.T) {
	p := parseLowered(t, `var g; func main() { g = 1; }`)
	p.Globals = append(p.Globals, &ast.VarDecl{Name: "__kiss_raise"})
	if _, err := Transform(p, Options{MaxTS: 0}); err == nil {
		t.Error("reserved global name accepted")
	}
}

func TestBadTargetsRejected(t *testing.T) {
	p := parseLowered(t, `var g; func main() { g = 1; }`)
	if _, err := TransformRace(p, ast.RaceTarget{Global: "nosuch"}, Options{}); err == nil {
		t.Error("unknown global target accepted")
	}
	if _, err := TransformRace(p, ast.RaceTarget{Record: "R", Field: "f"}, Options{}); err == nil {
		t.Error("unknown record target accepted")
	}
	if _, err := Transform(p, Options{MaxTS: -1}); err == nil {
		t.Error("negative ts bound accepted")
	}
}

func TestInputNotMutated(t *testing.T) {
	p := parseLowered(t, smallSrc)
	before := ast.Print(p)
	if _, err := Transform(p, Options{MaxTS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := TransformRace(p, ast.RaceTarget{Global: "g"}, Options{MaxTS: 1}); err != nil {
		t.Fatal(err)
	}
	after := ast.Print(p)
	if before != after {
		t.Error("transformation mutated its input program")
	}
}

func TestTranslatedNameRoundTrip(t *testing.T) {
	for _, name := range []string{"main", "f", "BCSP_PnpStop"} {
		orig, ok := OriginalName(TranslatedName(name))
		if !ok || orig != name {
			t.Errorf("round trip failed for %q: got %q, %v", name, orig, ok)
		}
	}
	for _, generated := range []string{ScheduleFn, CheckRFn, CheckWFn, "main", "plain"} {
		if _, ok := OriginalName(generated); ok {
			t.Errorf("OriginalName(%q) should not resolve", generated)
		}
	}
}

// TestTransformedOutputReparses: the printed transformed program parses
// back and checks under Transformed mode — the printer and the intrinsic
// syntax round trip.
func TestTransformedOutputReparses(t *testing.T) {
	p := parseLowered(t, smallSrc)
	out, err := TransformRace(p, ast.RaceTarget{Global: "g"}, Options{MaxTS: 2})
	if err != nil {
		t.Fatal(err)
	}
	printed := ast.Print(out)
	back, err := parser.Parse(printed)
	if err != nil {
		t.Fatalf("transformed output does not reparse: %v\n%s", err, printed)
	}
	back.MaxTS = out.MaxTS
	back.RaceTarget = out.RaceTarget
	if err := sema.Check(back, sema.Transformed); err != nil {
		t.Fatalf("reparsed output ill-formed: %v", err)
	}
}

// isPrefix reports whether s is a prefix's choice: skip, then branches
// that each end in RAISE.
func isPrefix(s ast.Stmt) bool {
	c, ok := s.(*ast.ChoiceStmt)
	if !ok || len(c.Branches) < 2 || ast.PrintStmt(c.Branches[0]) != "{\n  skip;\n}" {
		return false
	}
	for _, br := range c.Branches[1:] {
		n := len(br.Stmts)
		if n < 2 || ast.PrintStmt(br.Stmts[n-2]) != RaiseVar+" = true;" {
			return false
		}
	}
	return true
}

// prefixes maps each leaf statement of body, printed, to whether a
// prefix precedes it, and reports for each iter (in order) how many
// prefixes open its body.
func prefixes(body *ast.Block) (before map[string]bool, iterHeads []int) {
	before = map[string]bool{}
	var walk func(b *ast.Block)
	walk = func(b *ast.Block) {
		prev := false
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ast.ChoiceStmt:
				if isPrefix(s) {
					prev = true
					continue
				}
				for _, br := range s.Branches {
					walk(br)
				}
			case *ast.IterStmt:
				n := 0
				for _, c := range s.Body.Stmts {
					if !isPrefix(c) {
						if call, ok := c.(*ast.CallStmt); ok && ast.PrintExpr(call.Fn) == "@"+ScheduleFn {
							continue
						}
						break
					}
					n++
				}
				iterHeads = append(iterHeads, n)
				walk(s.Body)
			case *ast.CallStmt:
				if ast.PrintExpr(s.Fn) == "@"+ScheduleFn {
					continue
				}
				before[ast.PrintStmt(s)] = prev
			default:
				before[ast.PrintStmt(s)] = prev
			}
			prev = false
		}
	}
	walk(body)
	return before, iterHeads
}

// TestPrefixOnlyWhereVisible: statements over private locals, and skip,
// get no prefix; everything another thread can tell apart keeps one.
func TestPrefixOnlyWhereVisible(t *testing.T) {
	src := `
record R { f; }
var g;
func h() { }
func k() { }
func main() {
  var a;
  var b;
  var p;
  var q;
  var r;
  a = 1;
  b = a + 2;
  skip;
  q = &r;
  g = a;
  a = g;
  r = 1;
  b = r;
  p = new R;
  p->f = a;
  b = *q;
  assume(a == 1);
  assert(b == 1);
  h();
  atomic { a = 2; }
  iter { a = a + 1; }
  iter { g = 1; }
  async k();
  return;
}
`
	for _, ts := range []int{0, 1} {
		for _, race := range []bool{false, true} {
			p := parseLowered(t, src)
			var out *ast.Program
			var err error
			if race {
				out, err = TransformRace(p, ast.RaceTarget{Global: "g"}, Options{MaxTS: ts})
			} else {
				out, err = Transform(p, Options{MaxTS: ts})
			}
			if err != nil {
				t.Fatal(err)
			}
			before, iterHeads := prefixes(out.FindFunc(TranslatedName("main")).Body)
			want := map[string]bool{
				"a = 1;":                          false, // private locals only
				"b = (a + 2);":                    false,
				"skip;":                           false,
				"q = &r;":                         false, // takes an address, reads nothing
				"g = a;":                          true,  // global write
				"a = g;":                          true,  // global read
				"r = 1;":                          true,  // r's address is taken: shared
				"b = r;":                          true,
				"p = new R;":                      true, // allocation
				"p->f = a;":                       true, // heap
				"b = *q;":                         true, // through a pointer
				"assume((a == 1));":               true,
				"assert((b == 1));":               true,
				"@" + TranslatedName("h") + "();": true,
				"a = 2;":                          true, // the atomic's prefix
				"return;":                         false,
			}
			for stmt, w := range want {
				got, ok := before[stmt]
				if !ok {
					t.Fatalf("ts %d race %v: %q not found in\n%s", ts, race, stmt, ast.Print(out))
				}
				if got != w {
					t.Errorf("ts %d race %v: prefix before %q = %v, want %v", ts, race, stmt, got, w)
				}
			}
			// An iter over private work gains a prefix at its head; one
			// whose body starts with a prefix gets no second one.
			if len(iterHeads) != 2 || iterHeads[0] != 1 || iterHeads[1] != 1 {
				t.Errorf("ts %d race %v: prefixes at iter heads = %v, want [1 1]\n%s", ts, race, iterHeads, ast.Print(out))
			}
		}
	}
}

// TestEverywhereKeepsFigure4: the reference transform the tests compare
// against puts a prefix before every statement.
func TestEverywhereKeepsFigure4(t *testing.T) {
	p := parseLowered(t, `var g; func main() { var a; a = 1; skip; iter { a = a + 1; } g = a; }`)
	out, err := (&transformer{opts: Options{}, everywhere: true}).run(p)
	if err != nil {
		t.Fatal(err)
	}
	before, iterHeads := prefixes(out.FindFunc(TranslatedName("main")).Body)
	for stmt, got := range before {
		if !got {
			t.Errorf("no prefix before %q", stmt)
		}
	}
	if len(iterHeads) != 1 || iterHeads[0] != 1 {
		t.Errorf("iter heads %v, want [1]", iterHeads)
	}
}
