package kiss

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/concheck"
	"repro/internal/drivers"
	"repro/internal/randprog"
	"repro/internal/sem"
)

// The thinned transform against the prefix-everywhere reference of
// Figure 4/5 (transformer.everywhere): both must reach the same verdict
// on every program and report the same racing fields. The simulation
// oracle (simulation_test.go) shows P' does nothing P cannot; this
// test shows thinning loses nothing the reference finds.

// verdictOf transforms p (thinned, or with a prefix everywhere) and
// checks the result with the default sequential search.
func verdictOf(t *testing.T, p *ast.Program, opts Options, target *ast.RaceTarget, everywhere bool, maxStates int) concheck.Verdict {
	t.Helper()
	out, err := (&transformer{opts: opts, target: target, everywhere: everywhere}).run(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sem.Compile(out)
	if err != nil {
		t.Fatal(err)
	}
	return concheck.Check(c, concheck.Options{MaxStates: maxStates}).Verdict
}

func TestThinnedMatchesEverywhere(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	const maxStates = 300000
	compared, errs := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultLocals)
		p := parseLowered(t, src)
		targets := []*ast.RaceTarget{nil}
		for _, g := range p.Globals {
			targets = append(targets, &ast.RaceTarget{Global: g.Name})
		}
		for ts := 0; ts <= 2; ts++ {
			for _, target := range targets {
				opts := Options{MaxTS: ts}
				thin := verdictOf(t, p, opts, target, false, maxStates)
				ref := verdictOf(t, p, opts, target, true, maxStates)
				if thin == concheck.ResourceBound || ref == concheck.ResourceBound {
					continue
				}
				compared++
				if thin == concheck.Error {
					errs++
				}
				if thin != ref {
					t.Errorf("seed %d ts %d target %v: thinned %v, reference %v\n%s",
						seed, ts, target, thin, ref, src)
				}
			}
		}
	}
	if errs == 0 || errs == compared {
		t.Fatalf("%d errors in %d comparisons: the property was tested vacuously", errs, compared)
	}
	t.Logf("%d programs agree (%d errors)", compared, errs)
}

// TestThinnedRacesMatchOnDrivers: on a Table 1 subset the thinned
// transform reports exactly the racing fields the reference does, at the
// corpus state bound.
func TestThinnedRacesMatchOnDrivers(t *testing.T) {
	names := []string{"moufiltr", "imca", "toaster/toastmon", "diskperf"}
	if testing.Short() {
		names = names[:2]
	}
	const maxStates = 40000 // eval.DefaultMaxStates
	for _, name := range names {
		spec := drivers.FindSpec(name)
		m := drivers.Generate(spec)
		for _, f := range spec.Fields {
			p := parseLowered(t, m.HarnessProgram(f.Name, false))
			target := &ast.RaceTarget{Record: "DEVICE_EXTENSION", Field: f.Name}
			thin := verdictOf(t, p, Options{}, target, false, maxStates)
			ref := verdictOf(t, p, Options{}, target, true, maxStates)
			if thin != ref {
				t.Errorf("%s.%s: thinned %v, reference %v", name, f.Name, thin, ref)
			}
		}
	}
}
