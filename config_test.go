package kiss_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	kiss "repro"
)

const racyConfigSrc = `
var x;
func worker() { x = 1; }
func main() {
  x = 0;
  async worker();
  assert(x == 0);
}
`

// bigConfigSrc explores hundreds of thousands of states — enough for
// budgets, cancellation, and the default progress cadence to trip mid-run.
const bigConfigSrc = `
var a;
var b;
func main() {
  a = 0; b = 0;
  iter { choice { { a = a + 1; assume(a < 200); } [] { b = b + 1; assume(b < 200); } } }
  assert(a >= 0);
}
`

// TestOptionsMatchStructConfig: the functional-options constructor and a
// hand-filled Config literal are the same API — same verdicts, same
// counts. This is the v1 freeze invariant that replaced the old
// Options/Budget equivalence tests when those wrappers were deleted.
func TestOptionsMatchStructConfig(t *testing.T) {
	prog, err := kiss.Parse(racyConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	structRes, err := (&kiss.Config{MaxTS: 1}).Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := kiss.Check(prog, kiss.WithMaxTS(1))
	if err != nil {
		t.Fatal(err)
	}
	if structRes.Verdict != optRes.Verdict || structRes.States != optRes.States || structRes.Steps != optRes.Steps {
		t.Errorf("options path diverges from struct Config: %+v vs %+v", optRes, structRes)
	}
	if optRes.Verdict != kiss.Error {
		t.Fatalf("expected the publish-before-write bug, got %v", optRes.Verdict)
	}

	structRace, err := (&kiss.Config{RaceTarget: &kiss.RaceTarget{Global: "x"}}).Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	optRace, err := kiss.Check(prog, kiss.WithRaceTarget(kiss.RaceTarget{Global: "x"}), kiss.WithMaxTS(0))
	if err != nil {
		t.Fatal(err)
	}
	if structRace.Verdict != optRace.Verdict || structRace.Message != optRace.Message {
		t.Errorf("race check diverges between option and struct configs: %+v vs %+v", optRace, structRace)
	}
}

// TestCheckSkipsTransformForSequentialPrograms: Transform output passed to
// Check is analyzed directly — no second sequentialization — so a config
// that differs only in transformation knobs reaches the same analysis.
func TestCheckSkipsTransformForSequentialPrograms(t *testing.T) {
	prog, err := kiss.Parse(racyConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kiss.NewConfig(kiss.WithMaxTS(1))
	seq, err := cfg.Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Sequential() {
		t.Fatal("Transform output not marked sequential")
	}
	res, err := cfg.Check(seq)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := kiss.Check(seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != plain.Verdict || res.States != plain.States {
		t.Errorf("Check on sequential program depends on transform knobs: %+v vs %+v", res, plain)
	}
	if res.Stats.Phases.Transform != 0 {
		t.Errorf("transform phase timed on an already-sequential program: %v", res.Stats.Phases.Transform)
	}
}

// TestResultStats: a pipeline run fills the full metrics record — phase
// times, rate, peaks, visited set.
func TestResultStats(t *testing.T) {
	prog, err := kiss.Parse(bigConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kiss.Check(prog, kiss.WithMaxStates(5000))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.States != res.States || st.Steps != res.Steps {
		t.Errorf("Stats counters disagree with Result: %+v vs states=%d steps=%d", st, res.States, res.Steps)
	}
	if st.Visited == 0 || st.PeakFrontier == 0 || st.PeakDepth == 0 {
		t.Errorf("search metrics missing: %+v", st)
	}
	if st.Reason != kiss.ReasonStates {
		t.Errorf("budget trip reason = %v, want ReasonStates", st.Reason)
	}
	if st.Phases.Parse <= 0 || st.Phases.Check <= 0 {
		t.Errorf("phase times missing: %+v", st.Phases)
	}
	if st.StatesPerSec <= 0 {
		t.Errorf("states/sec missing: %+v", st)
	}
	if st.Phases.Transform <= 0 {
		t.Errorf("transform phase not timed: %+v", st.Phases)
	}
}

// TestProgressHook: WithProgress receives cadence events mid-run and a
// final event; the final event carries the run's totals. 60,000 states
// span at least two of the default cadence's 25,000-state intervals.
func TestProgressHook(t *testing.T) {
	prog, err := kiss.Parse(bigConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	var events []kiss.Event
	res, err := kiss.Check(prog,
		kiss.WithMaxStates(60000),
		kiss.WithProgress(func(e kiss.Event) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("want cadence events plus a final event, got %d", len(events))
	}
	final := events[len(events)-1]
	if !final.Final {
		t.Error("last event not marked final")
	}
	if final.States != res.States || final.Steps != res.Steps {
		t.Errorf("final event totals %d/%d disagree with result %d/%d",
			final.States, final.Steps, res.States, res.Steps)
	}
	for _, e := range events[:len(events)-1] {
		if e.Final {
			t.Error("mid-run event marked final")
		}
	}
}

// TestContextCancellationPartialResult: canceling mid-run yields a
// ResourceBound verdict with ReasonCanceled and partial stats — no error —
// and a rerun to completion is unaffected.
func TestContextCancellationPartialResult(t *testing.T) {
	prog, err := kiss.Parse(bigConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	res, err := kiss.Check(prog,
		kiss.WithContext(ctx),
		kiss.WithProgress(func(e kiss.Event) {
			if !e.Final && fired.CompareAndSwap(false, true) {
				cancel()
			}
		}))
	if err != nil {
		t.Fatalf("cancellation surfaced as an error: %v", err)
	}
	if res.Verdict != kiss.ResourceBound || res.Stats.Reason != kiss.ReasonCanceled {
		t.Fatalf("want resource-bound/canceled, got %v reason=%v", res.Verdict, res.Stats.Reason)
	}
	if res.States == 0 {
		t.Error("canceled run reports no partial stats")
	}

	full1, err := kiss.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := kiss.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if full1.States != full2.States || full1.Verdict != full2.Verdict {
		t.Errorf("reruns disagree: %+v vs %+v", full1, full2)
	}
	if res.States >= full1.States {
		t.Errorf("canceled run explored %d states, full run %d — not partial", res.States, full1.States)
	}
}

// TestResultStringNamesTrippedBound: the bugfix target — a ResourceBound
// result must say WHICH bound tripped, not just that one did.
func TestResultStringNamesTrippedBound(t *testing.T) {
	prog, err := kiss.Parse(bigConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kiss.Check(prog, kiss.WithMaxStates(100))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); !strings.Contains(s, "max-states") {
		t.Errorf("Result.String() does not name the state budget: %q", s)
	}
	res, err = kiss.Check(prog, kiss.WithMaxSteps(100))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); !strings.Contains(s, "max-steps") {
		t.Errorf("Result.String() does not name the step budget: %q", s)
	}
}

// TestDeadlineReason: an expired WithContext deadline reports
// ReasonDeadline, distinct from cancellation.
func TestDeadlineReason(t *testing.T) {
	prog, err := kiss.Parse(bigConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := kiss.Check(prog, kiss.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != kiss.ResourceBound || res.Stats.Reason != kiss.ReasonDeadline {
		t.Errorf("want resource-bound/deadline, got %v reason=%v", res.Verdict, res.Stats.Reason)
	}
}

// TestExploreWithConfig: the baseline explorer honors the unified config
// (context bound + cancellation + stats).
func TestExploreWithConfig(t *testing.T) {
	prog, err := kiss.Parse(racyConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kiss.Explore(prog, kiss.WithContextBound(2))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := (&kiss.Config{ContextBound: 2}).Explore(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != direct.Verdict || res.States != direct.States {
		t.Errorf("Explore diverges between option and struct configs: %+v vs %+v", res, direct)
	}
	if res.Stats.Visited == 0 {
		t.Error("Explore fills no stats")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled, err := kiss.Explore(prog, kiss.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Verdict != kiss.ResourceBound || canceled.Stats.Reason != kiss.ReasonCanceled {
		t.Errorf("canceled explore: %v reason=%v", canceled.Verdict, canceled.Stats.Reason)
	}
}

// TestSummariesWithConfig: the summary engine path is reachable through
// the unified API and reports its path-edge budget trip.
func TestSummariesWithConfig(t *testing.T) {
	prog, err := kiss.Parse(racyConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kiss.Check(prog, kiss.WithMaxTS(1), kiss.WithSummaries())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := (&kiss.Config{MaxTS: 1, Summaries: true}).Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != direct.Verdict || res.States != direct.States {
		t.Errorf("summary path diverges: %+v vs %+v", res, direct)
	}
}

// TestCertifyAccumulatesReplayTime: Config.Certify certifies the trace and
// records the replay phase.
func TestCertifyAccumulatesReplayTime(t *testing.T) {
	prog, err := kiss.Parse(racyConfigSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kiss.NewConfig(kiss.WithMaxTS(1))
	res, err := cfg.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != kiss.Error {
		t.Fatalf("expected error verdict, got %v", res.Verdict)
	}
	ok, err := cfg.Certify(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("reconstructed trace failed to certify")
	}
	if res.Stats.Phases.Replay <= 0 {
		t.Errorf("replay phase not timed: %+v", res.Stats.Phases)
	}
}
