package randprog

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/sema"
)

// TestGeneratedProgramsWellFormed: every generated program parses, passes
// semantic checking, lowers to core form, and compiles.
func TestGeneratedProgramsWellFormed(t *testing.T) {
	for _, cfg := range []Config{Default, DefaultLocals} {
		checkWellFormed(t, cfg)
	}
}

func checkWellFormed(t *testing.T, cfg Config) {
	t.Helper()
	f := func(seed int64) bool {
		src := Generate(seed, cfg)
		p, err := parser.Parse(src)
		if err != nil {
			t.Logf("seed %d parse error: %v\n%s", seed, err, src)
			return false
		}
		if err := sema.Check(p, sema.Source); err != nil {
			t.Logf("seed %d sema error: %v\n%s", seed, err, src)
			return false
		}
		lower.Program(p)
		if ok, why := lower.IsCore(p); !ok {
			t.Logf("seed %d not core: %s", seed, why)
			return false
		}
		if _, err := sem.Compile(p); err != nil {
			t.Logf("seed %d compile error: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDeterministic: same seed, same program.
func TestDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		if Generate(seed, Default) != Generate(seed, Default) {
			t.Fatalf("seed %d not deterministic", seed)
		}
	}
}

// TestSeedsDiffer: different seeds produce different programs (almost
// always; check a sample).
func TestSeedsDiffer(t *testing.T) {
	seen := map[string]int64{}
	dups := 0
	for seed := int64(0); seed < 50; seed++ {
		src := Generate(seed, Default)
		if _, ok := seen[src]; ok {
			dups++
		}
		seen[src] = seed
	}
	if dups > 5 {
		t.Errorf("%d/50 duplicate programs; generator too degenerate", dups)
	}
}

// TestTwoThreadedHasExactlyOneAsync.
func TestTwoThreadedHasExactlyOneAsync(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		src := GenerateTwoThreaded(seed, Default)
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		asyncs := 0
		for _, f := range p.Funcs {
			ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
				if _, ok := s.(*ast.AsyncStmt); ok {
					asyncs++
				}
				return true
			})
		}
		if asyncs != 1 {
			t.Errorf("seed %d: %d async calls, want 1\n%s", seed, asyncs, src)
		}
	}
}

// TestOutputPinned: the generator's output for the shapes the benchmark
// and the evaluation draw from is fixed. A change here moves their
// inputs; new features must stay behind Config fields whose zero value
// keeps this hash.
func TestOutputPinned(t *testing.T) {
	h := sha256.New()
	shapes := []Config{Default, {Globals: 2, Funcs: 2, MaxStmts: 4, MaxAsyncs: 2, Depth: 2}}
	for _, cfg := range shapes {
		for seed := int64(0); seed < 400; seed++ {
			h.Write([]byte(Generate(seed, cfg)))
			h.Write([]byte(GenerateTwoThreaded(seed, cfg)))
		}
	}
	const want = "cba47e627702fe8ee59a6bcab71965ae11dcca74792d964cfde44ed8a3f21bc6"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("generator output hash %s, want %s", got, want)
	}
}
