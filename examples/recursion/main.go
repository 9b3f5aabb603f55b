// Recursion: the two sequential engines side by side.
//
// The paper's complexity claim (Section 4) rests on the decidability of
// sequential model checking for finite-data programs — which holds even
// with unbounded recursion, via procedure summaries (Sharir-Pnueli [37],
// Reps-Horwitz-Sagiv [34]; SLAM's Bebop engine). This example runs a
// concurrent program whose worker recurses to a nondeterministic depth:
//
//   - the summary-based engine (WithSummaries) terminates with
//     a verdict, because the number of (procedure, valuation) path edges
//     is finite even though the stack is unbounded;
//   - the explicit-state engine, which fingerprints whole configurations
//     (stack included), can only exhaust its budget.
//
// The run exits non-zero unless both engines behave so.
//
// Run:
//
//	go run ./examples/recursion
package main

import (
	"fmt"
	"log"

	kiss "repro"
)

const src = `
var work;
var done;

// A worker that processes a nondeterministically deep task tree, then
// signals completion. The recursion depth is unbounded, but the shared
// state is finite.
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

func main() {
	prog, err := kiss.Parse(src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("summary-based engine (Bebop/RHS architecture):")
	sres, err := kiss.Check(prog, kiss.WithMaxTS(1), kiss.WithSummaries())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  verdict: %v (%d path edges) — terminates despite unbounded recursion\n",
		sres.Verdict, sres.States)
	if sres.Verdict != kiss.Safe {
		log.Fatal("expected the summary engine to prove the program safe")
	}

	fmt.Println("\nexplicit-state engine (whole-configuration fingerprints):")
	eres, err := kiss.Check(prog, kiss.WithMaxTS(1), kiss.WithMaxStates(20000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  verdict: %v (%d states) — every recursion depth is a distinct configuration\n",
		eres.Verdict, eres.States)
	if eres.Verdict != kiss.ResourceBound {
		log.Fatal("expected the explicit-state engine to exhaust its budget")
	}
}
