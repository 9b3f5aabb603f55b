// The tests in this directory check the sequential checker:
// concheck.Check at the zero context bound, where only thread 0 ever
// runs, which is how kiss.Config.Check searches every KISS and CB
// translation. They drive concheck's engines through its exported API
// on one-threaded random programs; the directory holds no other code.
package seqcheck

import (
	"testing"

	"repro/internal/concheck"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
)

func compile(t *testing.T, src string, maxTS int) *sem.Compiled {
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

func TestMaxStatesBudget(t *testing.T) {
	c := compile(t, `
var x;
func main() {
  x = 0;
  iter { assume(x < 100000); x = x + 1; }
}
`, 0)
	r := concheck.Check(c, concheck.Options{MaxStates: 500})
	if r.Verdict != concheck.ResourceBound {
		t.Fatalf("want resource-bound, got %v", r)
	}
	if r.States < 500 {
		t.Errorf("stopped at %d states, budget 500", r.States)
	}
}
