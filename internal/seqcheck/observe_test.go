package seqcheck

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/concheck"
	"repro/internal/stats"
)

// ctxPollStride is how many iterations concheck's depth-first search
// runs between context polls.
const ctxPollStride = 512

// loopSrc explores a large-but-bounded state space: two nondet counters
// give ~10^4+ states, enough for budgets and cancellation to bite.
const loopSrc = `
var a;
var b;
func main() {
  a = 0; b = 0;
  iter { choice { { a = a + 1; assume(a < 200); } [] { b = b + 1; assume(b < 200); } } }
  assert(a >= 0);
}
`

// TestCanceledContextReturnsPartialResult: an already-canceled context
// stops the search immediately with ReasonCanceled and partial (near-zero)
// stats — not an error, not a hang.
func TestCanceledContextReturnsPartialResult(t *testing.T) {
	c := compile(t, loopSrc, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := concheck.Check(c, concheck.Options{Context: ctx})
	if r.Verdict != concheck.ResourceBound {
		t.Fatalf("want resource-bound, got %v", r)
	}
	if r.Reason != stats.ReasonCanceled {
		t.Fatalf("want ReasonCanceled, got %v", r.Reason)
	}
	if r.States > ctxPollStride+1 {
		t.Errorf("canceled run explored %d states (want prompt stop)", r.States)
	}
	if !strings.Contains(r.String(), "canceled") {
		t.Errorf("String() does not name the tripped bound: %q", r.String())
	}
}

// TestBudgetReasons: state and step budgets name themselves in the result.
func TestBudgetReasons(t *testing.T) {
	c := compile(t, loopSrc, 0)
	r := concheck.Check(c, concheck.Options{MaxStates: 100})
	if r.Verdict != concheck.ResourceBound || r.Reason != stats.ReasonStates {
		t.Fatalf("MaxStates trip: verdict=%v reason=%v", r.Verdict, r.Reason)
	}
	if !strings.Contains(r.String(), "max-states") {
		t.Errorf("String() does not name the state budget: %q", r.String())
	}
	r = concheck.Check(c, concheck.Options{MaxSteps: 100})
	if r.Verdict != concheck.ResourceBound || r.Reason != stats.ReasonSteps {
		t.Fatalf("MaxSteps trip: verdict=%v reason=%v", r.Verdict, r.Reason)
	}
	if !strings.Contains(r.String(), "max-steps") {
		t.Errorf("String() does not name the step budget: %q", r.String())
	}
}

// TestSearchMetrics: a completed search reports a consistent visited-set
// size and nonzero peaks, in both DFS and BFS orders.
func TestSearchMetrics(t *testing.T) {
	for _, bfs := range []bool{false, true} {
		c := compile(t, loopSrc, 0)
		r := concheck.Check(c, concheck.Options{MaxStates: 5000, BFS: bfs})
		if r.Visited == 0 || r.Visited != r.States {
			t.Errorf("bfs=%v: visited=%d states=%d (want equal, nonzero)", bfs, r.Visited, r.States)
		}
		if r.PeakFrontier <= 0 {
			t.Errorf("bfs=%v: peak frontier %d", bfs, r.PeakFrontier)
		}
		if r.PeakDepth <= 0 {
			t.Errorf("bfs=%v: peak depth %d", bfs, r.PeakDepth)
		}
	}
}

// TestCollectorSamples: a collector with a tight state cadence sees
// monotone progress events from inside the search loop.
func TestCollectorSamples(t *testing.T) {
	c := compile(t, loopSrc, 0)
	var events []stats.Event
	col := stats.NewCollector(func(e stats.Event) { events = append(events, e) }, 500, time.Hour)
	col.Start(stats.PhaseCheck)
	r := concheck.Check(c, concheck.Options{MaxStates: 5000, Collector: col})
	col.End(stats.PhaseCheck)
	if r.Verdict != concheck.ResourceBound {
		t.Fatalf("unexpected verdict %v", r.Verdict)
	}
	if len(events) < 5 {
		t.Fatalf("only %d progress events for a 5000-state search at cadence 500", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].States < events[i-1].States {
			t.Errorf("states regressed between events: %d -> %d", events[i-1].States, events[i].States)
		}
	}
	last := events[len(events)-1]
	if last.Visited == 0 {
		t.Error("events carry no visited-set size")
	}
}
