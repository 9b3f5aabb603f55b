package seqcheck

import (
	"testing"

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
			plain := Check(c, Options{BFS: bfs, MaxStates: 20000, DisableMacroSteps: true})
			audit := Check(c, Options{BFS: bfs, MaxStates: 20000, AuditFingerprints: true})
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

// TestBFSQueueReleasesFrames is a structural regression test for the
// level engine's frontier: a breadth-first run over a wide state space
// must visit every state exactly once, as the depth-first run does.
func TestBFSQueueReleasesFrames(t *testing.T) {
	// A 3-deep tree of binary choices over three variables: 27 leaf
	// valuations, fully enumerable.
	c := compile(t, `
var a; var b; var d;
func main() {
  choice { { a = 0; } [] { a = 1; } [] { a = 2; } }
  choice { { b = 0; } [] { b = 1; } [] { b = 2; } }
  choice { { d = 0; } [] { d = 1; } [] { d = 2; } }
  assert(a + b + d <= 6);
}
`, 0)
	d := Check(c, Options{})
	bfs := Check(c, Options{BFS: true})
	if d.Verdict != Safe || bfs.Verdict != Safe {
		t.Fatalf("want safe/safe, got %v/%v", d.Verdict, bfs.Verdict)
	}
	if d.States != bfs.States {
		t.Errorf("DFS explored %d states, BFS %d — dequeue is dropping or duplicating frames",
			d.States, bfs.States)
	}
}
