package kiss

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/drivers"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/randprog"
)

// TestConstantBlowupClaim machine-checks Section 4's complexity claim on
// the random-program population: the transformation's statement blowup is
// bounded by a constant factor (independent of program size), and the
// number of added globals is a small constant.
func TestConstantBlowupClaim(t *testing.T) {
	// The per-statement instrumentation is schedule();choice{skip[]RAISE}
	// plus call/async epilogues; each source statement maps to a bounded
	// number of output statements. The bound below is generous; the point
	// is that it does not grow with program size.
	const maxFactor = 14.0
	worst := 0.0
	for seed := int64(0); seed < 80; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		lower.Program(p)
		for _, maxTS := range []int{0, 2} {
			out, err := Transform(p, Options{MaxTS: maxTS})
			if err != nil {
				t.Fatal(err)
			}
			st := Measure(p, out)
			if f := st.StmtBlowup(); f > worst {
				worst = f
			}
			if st.StmtBlowup() > maxFactor {
				t.Errorf("seed %d ts %d: statement blowup %.1fx exceeds the constant bound %v\n%s",
					seed, maxTS, st.StmtBlowup(), maxFactor, st)
			}
			// "adds a small constant number of global variables": exactly
			// one (raise) in assertion mode.
			if st.AddedGlobals() != 1 {
				t.Errorf("seed %d: %d globals added, want 1 (raise)", seed, st.AddedGlobals())
			}
		}
	}
	t.Logf("worst statement blowup over the population: %.2fx", worst)
}

// TestRaceModeAddsTwoGlobals: raise + access.
func TestRaceModeAddsTwoGlobals(t *testing.T) {
	p := parseLowered(t, `var g; func main() { g = 1; }`)
	out, err := TransformRace(p, ast.RaceTarget{Global: "g"}, Options{MaxTS: 0})
	if err != nil {
		t.Fatal(err)
	}
	st := Measure(p, out)
	if st.AddedGlobals() != 2 {
		t.Errorf("race mode added %d globals, want 2 (raise + access)", st.AddedGlobals())
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

// TestBlowupIndependentOfSize: the factor on a large program is no worse
// than on a small one (within noise), i.e. the blowup really is constant,
// not size-dependent.
func TestBlowupIndependentOfSize(t *testing.T) {
	factor := func(n int) float64 {
		src := "var g;\n"
		src += "func main() {\n"
		for i := 0; i < n; i++ {
			src += "  g = g + 1;\n"
		}
		src += "}\n"
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		lower.Program(p)
		out, err := Transform(p, Options{MaxTS: 1})
		if err != nil {
			t.Fatal(err)
		}
		return Measure(p, out).StmtBlowup()
	}
	small := factor(5)
	large := factor(500)
	if large > small*1.2 {
		t.Errorf("blowup grows with size: %.2fx at 5 stmts, %.2fx at 500", small, large)
	}
}

// TestThinningShrinksDriverModels: on a generated driver model, whose
// dispatch routines carry runs of local bookkeeping, the thinned
// transform emits fewer statements than the prefix-everywhere one.
func TestThinningShrinksDriverModels(t *testing.T) {
	spec := drivers.FindSpec("fakemodem")
	m := drivers.Generate(spec)
	f := spec.Fields[0]
	p := parseLowered(t, m.HarnessProgram(f.Name, false))
	target := ast.RaceTarget{Record: "DEVICE_EXTENSION", Field: f.Name}
	thin, err := TransformRace(p, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (&transformer{opts: Options{}, target: &target, everywhere: true}).run(p)
	if err != nil {
		t.Fatal(err)
	}
	got, was := Measure(p, thin).StmtBlowup(), Measure(p, ref).StmtBlowup()
	if got >= was {
		t.Errorf("statement blowup %.2fx thinned, %.2fx with a prefix everywhere", got, was)
	}
	t.Logf("statement blowup %.2fx -> %.2fx", was, got)
}
