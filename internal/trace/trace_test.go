package trace

import (
	"strings"
	"testing"

	"repro/internal/concheck"
	ikiss "repro/internal/kiss"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
)

// checkSeq transforms src and model-checks it, returning the sequential
// counterexample events.
func checkSeq(t *testing.T, src string, maxTS int) []sem.Event {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lower.Program(p)
	out, err := ikiss.Transform(p, ikiss.Options{MaxTS: maxTS})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	c, err := sem.Compile(out)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := concheck.Check(c, concheck.Options{})
	if r.Verdict != concheck.Error {
		t.Fatalf("expected error, got %v", r)
	}
	return r.Trace
}

const forkSrc = `
var x;
var y;
func child() {
  assume(y == 1);
  x = x + 1;
  assert(x < 2);
}
func main() {
  x = 0;
  y = 0;
  async child();
  async child();
  y = 1;
}
`

func TestReconstructAssignsThreadIDsInForkOrder(t *testing.T) {
	events := checkSeq(t, forkSrc, 2)
	tr := Reconstruct(events)
	if tr.Threads != 3 {
		t.Errorf("got %d threads, want 3 (main + 2 children)", tr.Threads)
	}
	// Fork steps must appear on thread 0 and mention child thread ids.
	var forks []Step
	for _, s := range tr.Steps {
		if strings.Contains(s.Text, "fork thread") {
			forks = append(forks, s)
		}
	}
	if len(forks) != 2 {
		t.Fatalf("got %d fork steps, want 2:\n%s", len(forks), tr.Format())
	}
	for _, f := range forks {
		if f.ThreadID != 0 {
			t.Errorf("fork attributed to thread %d, want 0", f.ThreadID)
		}
	}
}

func TestReconstructHidesInstrumentation(t *testing.T) {
	events := checkSeq(t, forkSrc, 2)
	tr := Reconstruct(events)
	for _, s := range tr.Steps {
		if strings.Contains(s.Text, "__kiss") || strings.Contains(s.Func, "__kiss") {
			t.Errorf("instrumentation leaked into the reconstructed trace: %s", s)
		}
		if strings.Contains(s.Text, "raise") {
			t.Errorf("raise bookkeeping leaked: %s", s)
		}
	}
}

func TestReconstructTracksContextSwitches(t *testing.T) {
	events := checkSeq(t, forkSrc, 2)
	tr := Reconstruct(events)
	if tr.ContextSwitches == 0 {
		t.Error("an interleaved failure needs at least one context switch")
	}
	// Recompute from the step sequence and compare.
	count := 0
	for i := 1; i < len(tr.Steps); i++ {
		if tr.Steps[i].ThreadID != tr.Steps[i-1].ThreadID {
			count++
			if !tr.Steps[i].Switch {
				t.Errorf("step %d changes thread but is not marked", i)
			}
		} else if tr.Steps[i].Switch {
			t.Errorf("step %d marked as switch without thread change", i)
		}
	}
	if count != tr.ContextSwitches {
		t.Errorf("ContextSwitches = %d, recomputed %d", tr.ContextSwitches, count)
	}
}

func TestReconstructUserPositionsPreserved(t *testing.T) {
	events := checkSeq(t, forkSrc, 2)
	tr := Reconstruct(events)
	valid := 0
	for _, s := range tr.Steps {
		if s.Pos.IsValid() {
			valid++
		}
	}
	if valid < 3 {
		t.Errorf("too few steps carry source positions: %d\n%s", valid, tr.Format())
	}
}

// TestInlinedAsyncBecomesThread: with MaxTS = 0 the async call runs
// inline; the reconstruction must still attribute its steps to a fresh
// thread.
func TestInlinedAsyncBecomesThread(t *testing.T) {
	src := `
var x;
func child() {
  x = 1;
}
func main() {
  x = 0;
  async child();
  assert(x == 0);
}
`
	events := checkSeq(t, src, 0)
	tr := Reconstruct(events)
	if tr.Threads < 2 {
		t.Fatalf("inlined async not attributed to its own thread:\n%s", tr.Format())
	}
	// The child's assignment must be on a non-zero thread.
	foundChildStep := false
	for _, s := range tr.Steps {
		if s.Func == "child" && s.ThreadID != 0 {
			foundChildStep = true
		}
		if s.Func == "child" && s.ThreadID == 0 {
			t.Errorf("child step attributed to main: %s", s)
		}
	}
	if !foundChildStep {
		t.Errorf("no child steps in trace:\n%s", tr.Format())
	}
}

func TestFormatMentionsThreadsAndSwitches(t *testing.T) {
	events := checkSeq(t, forkSrc, 2)
	tr := Reconstruct(events)
	out := tr.Format()
	if !strings.Contains(out, "threads") || !strings.Contains(out, "context switches") {
		t.Errorf("format missing summary: %s", out)
	}
}

func TestFormatColumns(t *testing.T) {
	events := checkSeq(t, forkSrc, 2)
	tr := Reconstruct(events)
	out := tr.FormatColumns()
	if !strings.Contains(out, "T0 main") {
		t.Errorf("missing main column header:\n%s", out)
	}
	if !strings.Contains(out, "T1 child") {
		t.Errorf("missing child column header:\n%s", out)
	}
	if !strings.Contains(out, "interleaving diagram") {
		t.Errorf("missing summary line:\n%s", out)
	}
	// Every body line has the same number of column separators.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	sep := strings.Count(lines[1], "| ")
	for i, line := range lines[1:] {
		if strings.HasPrefix(line, "---") || strings.Contains(line, "-+-") {
			continue
		}
		if strings.Count(line, "| ") != sep {
			t.Errorf("line %d has inconsistent columns: %q", i+1, line)
		}
	}
	empty := (&Trace{}).FormatColumns()
	if !strings.Contains(empty, "empty") {
		t.Errorf("empty trace: %q", empty)
	}
}
