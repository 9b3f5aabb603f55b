package service

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	kiss "repro"
)

// parkWorkers installs a checkHook that blocks every worker until
// release is closed, making queue-occupancy deterministic.
func parkWorkers(t *testing.T) (release chan struct{}, running chan string) {
	t.Helper()
	release = make(chan struct{})
	running = make(chan string, 16)
	checkHook = func(j *job) {
		running <- j.id
		<-release
	}
	t.Cleanup(func() { checkHook = nil })
	return release, running
}

// TestQueueFullBackpressure: with one parked worker and a one-slot
// queue, the third submission must be rejected with 429 + Retry-After,
// the rejection counter must tick, and — after the worker is released —
// the accepted jobs must still complete normally.
func TestQueueFullBackpressure(t *testing.T) {
	release, running := parkWorkers(t)
	s, cl := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	ctx := context.Background()

	// Job 1 occupies the worker (blocked in the hook), job 2 the queue.
	j1, err := cl.Submit(ctx, safeSrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-running // worker holds job 1
	j2, err := cl.Submit(ctx, racySrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Job 3 finds the queue full.
	_, err = cl.Submit(ctx, bigSrc, nil, 0)
	se, ok := err.(*StatusError)
	if !ok || se.Code != 429 {
		t.Fatalf("expected 429, got %v", err)
	}
	if se.RetryAfter == "" {
		t.Error("429 without Retry-After header")
	}
	if got := s.jobsRejected.Value(); got != 1 {
		t.Errorf("rejected counter = %v, want 1", got)
	}

	// Backpressure rejected the overflow, not the accepted work.
	close(release)
	for _, id := range []string{j1.JobID, j2.JobID} {
		waitDone(t, cl, id)
	}
}

// TestDrainCompletesInFlight: SIGTERM semantics — Drain must refuse new
// work immediately but run accepted jobs (in-flight AND queued) to
// completion before returning.
func TestDrainCompletesInFlight(t *testing.T) {
	release, running := parkWorkers(t)
	s := New(Config{Workers: 1, QueueSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	inflight, err := cl.Submit(ctx, racySrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	queued, err := cl.Submit(ctx, safeSrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain must wait for the parked job, not abandon it.
	select {
	case err := <-drained:
		t.Fatalf("drain returned before in-flight job finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New submissions are refused while draining.
	if _, err := cl.Submit(ctx, bigSrc, nil, 0); !isStatus(err, 503) {
		t.Fatalf("submission during drain: got %v, want 503", err)
	}
	if h, err := cl.Health(ctx); err != nil || h.Status != "draining" {
		t.Errorf("health during drain: %+v, %v", h, err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Both accepted jobs completed with real results.
	for id, wantVerdict := range map[string]string{inflight.JobID: "error", queued.JobID: "safe"} {
		st, err := cl.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Result == nil || st.Result.Verdict != wantVerdict {
			t.Errorf("job %s after drain: %+v, want done/%s", id, st, wantVerdict)
		}
	}

	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestJobDeadlineTripsReasonDeadline: a per-job timeout must surface as
// a ResourceBound result with reason "deadline" — a verdict, not an
// HTTP error — and must NOT poison the cache with the partial result.
func TestJobDeadlineTripsReasonDeadline(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	resp, err := cl.Check(ctx, bigSrc, nil, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != StateDone || resp.Result == nil {
		t.Fatalf("deadline did not produce a done job: %+v", resp)
	}
	if resp.Result.Verdict != kiss.ResourceBound.String() {
		t.Fatalf("verdict %q, want resource-bound", resp.Result.Verdict)
	}
	if resp.Result.Stats.Reason != kiss.ReasonDeadline {
		t.Fatalf("reason %v, want deadline", resp.Result.Stats.Reason)
	}

	// The partial exploration is not the answer to the untimed problem:
	// a resubmission without the timeout must run fresh, not hit cache.
	fresh, err := cl.Check(ctx, bigSrc, kiss.NewConfig(kiss.WithMaxStates(200)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Error("budget variant unexpectedly cached")
	}
	again, err := cl.Check(ctx, bigSrc, nil, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("deadline-partial result was cached")
	}
}

// TestNoGoroutineLeakAfterShutdown: a full serve-check-drain cycle must
// leave no goroutines behind (workers, per-job timers, handlers).
// goleak is unavailable; count with a settle loop like the PR 2/PR 3
// leak tests.
func TestNoGoroutineLeakAfterShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 2, QueueSize: 8})
	ts := httptest.NewServer(s.Handler())
	cl := NewClient(ts.URL)
	ctx := context.Background()
	for _, src := range []string{safeSrc, racySrc, safeSrc} {
		if _, err := cl.Check(ctx, src, nil, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func waitDone(t *testing.T, cl *Client, id string) *CheckResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPanickingCheckFailsOnlyItsJob: a check that panics must fail its
// own job with an internal error, count in kissd_jobs_panicked_total,
// stay out of the cache, and leave the worker serving: with one worker,
// the next job — and a resubmission of the panicked program — complete.
func TestPanickingCheckFailsOnlyItsJob(t *testing.T) {
	checkHook = func(j *job) {
		if strings.Contains(j.prog.Source(), "boom") {
			panic("injected check failure")
		}
	}
	t.Cleanup(func() { checkHook = nil })
	s, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	const boomSrc = "var boom;\nfunc main() { boom = 1; }\n"

	bad, err := cl.Check(ctx, boomSrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad.State != StateFailed || !strings.HasPrefix(bad.Error, "internal error: check panicked: injected check failure") {
		t.Fatalf("panicking job: state %q error %q, want failed with an internal error", bad.State, bad.Error)
	}
	if got := s.jobsPanicked.Value(); got != 1 {
		t.Errorf("kissd_jobs_panicked_total = %v, want 1", got)
	}
	if text, err := cl.Metrics(ctx); err != nil || !strings.Contains(text, "kissd_jobs_panicked_total 1") {
		t.Errorf("/metrics lacks kissd_jobs_panicked_total 1 (err %v)", err)
	}

	good, err := cl.Check(ctx, safeSrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if good.State != StateDone || good.Result == nil || good.Result.Verdict != "safe" {
		t.Fatalf("job after the panic: %+v, want done/safe", good)
	}

	checkHook = nil
	again, err := cl.Check(ctx, boomSrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached || again.State != StateDone || again.Result == nil {
		t.Fatalf("resubmitted program: %+v, want a fresh completed check", again)
	}
}
