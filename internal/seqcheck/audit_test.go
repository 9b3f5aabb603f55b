package seqcheck

import (
	"testing"

	"repro/internal/concheck"
	"repro/internal/randprog"
)

// TestAuditFingerprints: on small programs the audit mode must find zero
// 64-bit collisions and must not perturb the search itself — verdicts and
// state counts equal the plain run, in both DFS and BFS order.
func TestAuditFingerprints(t *testing.T) {
	srcs := []string{
		`var x; func main() { x = 1; assert(x == 1); }`,
		`var x; func main() { choice { { x = 1; } [] { x = 2; } } assert(x == 1); }`,
		`var x; func main() { x = 0; iter { assume(x < 8); x = x + 1; } assert(x <= 8); }`,
	}
	for i := int64(0); i < 20; i++ {
		srcs = append(srcs, randprog.Generate(i, randprog.Default))
	}
	for i, src := range srcs {
		c := compile(t, src, 0)
		for _, bfs := range []bool{false, true} {
			// Audit mode forces macro-step compression off (its maps shadow
			// per-statement visited inserts), so compare against the
			// per-statement search.
			plain := concheck.Check(c, concheck.Options{BFS: bfs, MaxStates: 20000, DisableMacroSteps: true})
			audit := concheck.Check(c, concheck.Options{BFS: bfs, MaxStates: 20000, AuditFingerprints: true})
			if audit.HashCollisions != 0 {
				t.Errorf("program %d (bfs=%v): %d hash collisions", i, bfs, audit.HashCollisions)
			}
			if plain.Verdict != audit.Verdict || plain.States != audit.States || plain.Steps != audit.Steps {
				t.Errorf("program %d (bfs=%v): audit changed the search: %v/%d/%d vs %v/%d/%d",
					i, bfs, plain.Verdict, plain.States, plain.Steps,
					audit.Verdict, audit.States, audit.Steps)
			}
		}
	}
}
