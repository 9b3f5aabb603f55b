package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	kiss "repro"
)

// Test programs. racySrc has a reachable assertion failure through the
// KISS reduction; safeSrc does not; bigSrc explores enough states for
// budgets and deadlines to trip mid-search.
const racySrc = `
var x;
func worker() { x = 1; }
func main() {
  x = 0;
  async worker();
  assert(x == 0);
}
`

const safeSrc = `
var x;
func main() {
  x = 1;
  assert(x == 1);
}
`

const bigSrc = `
var a;
var b;
func main() {
  a = 0; b = 0;
  iter { choice { { a = a + 1; assume(a < 400); } [] { b = b + 1; assume(b < 400); } } }
  assert(a >= 0);
}
`

// newTestServer builds a service plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, NewClient(ts.URL)
}

// TestCheckMatchesLocal: the daemon must return exactly what a local
// kiss.Check returns — verdict, message, and the deterministic search
// counters — for every verdict class.
func TestCheckMatchesLocal(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name string
		src  string
		opts []kiss.Option
	}{
		{"racy", racySrc, nil},
		{"safe", safeSrc, nil},
		{"budget-bound", bigSrc, []kiss.Option{kiss.WithMaxStates(500)}},
		{"race-target", racySrc, []kiss.Option{kiss.WithRaceTarget(kiss.RaceTarget{Global: "x"})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := kiss.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			local, err := kiss.Check(prog, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := cl.Check(context.Background(), tc.src, kiss.NewConfig(tc.opts...), 0)
			if err != nil {
				t.Fatal(err)
			}
			if resp.State != StateDone || resp.Result == nil {
				t.Fatalf("job not done: %+v", resp)
			}
			r := resp.Result
			if r.Verdict != local.Verdict.String() {
				t.Errorf("verdict: server %q, local %q", r.Verdict, local.Verdict)
			}
			if r.Message != local.Message {
				t.Errorf("message: server %q, local %q", r.Message, local.Message)
			}
			if r.States != local.States || r.Steps != local.Steps {
				t.Errorf("counters: server %d/%d, local %d/%d", r.States, r.Steps, local.States, local.Steps)
			}
			want, got := local.Stats, r.Stats
			want.StripTiming()
			got.StripTiming()
			if got.Visited != want.Visited || got.PeakDepth != want.PeakDepth ||
				got.Reason != want.Reason || got.StatesStepped != want.StatesStepped {
				t.Errorf("stats: server %+v, local %+v", got, want)
			}
			if local.Verdict == kiss.Error {
				if r.Trace == "" || len(r.Schedule) == 0 {
					t.Errorf("error result missing trace/schedule: %+v", r)
				}
				if r.Trace != local.Trace.Format() {
					t.Errorf("trace differs:\nserver:\n%s\nlocal:\n%s", r.Trace, local.Trace.Format())
				}
			}
		})
	}
}

// TestCacheHitOnResubmit: an identical second submission must be served
// from the cache — hit counter up, cached flag set, identical result,
// and not a single new state explored fleet-wide.
func TestCacheHitOnResubmit(t *testing.T) {
	s, cl := newTestServer(t, Config{Workers: 1})
	cfg := kiss.NewConfig(kiss.WithMaxStates(10000))

	first, err := cl.Check(context.Background(), racySrc, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission claims cached")
	}
	statesAfterFirst := s.statesTotal.Value()

	second, err := cl.Check(context.Background(), racySrc, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if second.Result.Verdict != first.Result.Verdict || second.Result.States != first.Result.States {
		t.Errorf("cached result differs: %+v vs %+v", second.Result, first.Result)
	}
	if got := s.statesTotal.Value(); got != statesAfterFirst {
		t.Errorf("cache hit explored states: fleet total went %v -> %v", statesAfterFirst, got)
	}
	cs := s.cache.stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache counters: %+v, want hits=1 misses=1", cs)
	}

	// Content addressing is modulo formatting: reformatted source and a
	// result-invariant config knob (search workers) still hit.
	reformatted := "\n\n" + strings.ReplaceAll(racySrc, "  ", "\t") + "\n"
	cfg2 := kiss.NewConfig(kiss.WithMaxStates(10000), kiss.WithSearchWorkers(4))
	third, err := cl.Check(context.Background(), reformatted, cfg2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Error("reformatted source + search-workers variant missed the cache")
	}

	// A different budget is a different problem.
	fourth, err := cl.Check(context.Background(), racySrc, kiss.NewConfig(kiss.WithMaxStates(9999)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cached {
		t.Error("different budget served from cache")
	}
}

// TestAsyncJobLifecycle: wait=false returns 202/queued immediately; the
// job id polls through to done.
func TestAsyncJobLifecycle(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	resp, err := cl.Submit(context.Background(), safeSrc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.JobID == "" {
		t.Fatalf("no job id: %+v", resp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Job(context.Background(), resp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			if st.Result == nil || st.Result.Verdict != "safe" {
				t.Fatalf("bad final state: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsExposition: /metrics must expose queue depth, cache hit
// ratio, and per-phase timing histograms in Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 2; i++ { // miss then hit
		if _, err := cl.Check(context.Background(), safeSrc, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE kissd_queue_depth gauge",
		"kissd_queue_depth 0",
		"kissd_cache_hits_total 1",
		"kissd_cache_misses_total 1",
		"kissd_cache_hit_ratio 0.5",
		`kissd_jobs_total{outcome="safe"} 1`,
		`kissd_phase_seconds_bucket{phase="check",le="+Inf"} 1`,
		`kissd_phase_seconds_count{phase="transform"} 1`,
		"# TYPE kissd_states_per_sec gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBadRequests: malformed JSON, empty and unparsable source, version-
// skewed configs, and unknown job ids all fail loudly with 4xx.
func TestBadRequests(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	if _, err := cl.Check(ctx, "func main( {", nil, 0); !isStatus(err, 400) {
		t.Errorf("unparsable source: got %v, want 400", err)
	}
	if _, err := cl.Check(ctx, "", nil, 0); !isStatus(err, 400) {
		t.Errorf("empty source: got %v, want 400", err)
	}
	if _, err := cl.Job(ctx, "j-nope-1"); !isStatus(err, 404) {
		t.Errorf("unknown job: got %v, want 404", err)
	}
}

func isStatus(err error, code int) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == code
}

// TestMemBudgetCeiling: the scheduler clamps each job's memory budget to
// the server ceiling before the cache key is computed, so the cache is
// always keyed on the config the check actually ran under.
func TestMemBudgetCeiling(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, MemBudgetMB: 8})
	ctx := context.Background()

	// A compact-mode job asking for 512 MiB runs under the 8 MiB ceiling:
	// half the budget sizes the visited filter.
	big := kiss.NewConfig(kiss.WithBFS(), kiss.WithMaxStates(2000),
		kiss.WithVisitedMode(kiss.VisitedCompact), kiss.WithMemBudgetMB(512))
	resp, err := cl.Check(ctx, bigSrc, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := resp.Result.Stats.Memory
	if mem == nil {
		t.Fatal("budgeted check reported no memory record")
	}
	if want := int64(8<<20) / 2; mem.VisitedBytes != want {
		t.Errorf("visited filter sized %d bytes, want %d (the clamped ceiling's half)", mem.VisitedBytes, want)
	}

	// An explicit request at the ceiling is the same effective problem —
	// it must hit the cache entry the clamped job wrote.
	atCeiling := kiss.NewConfig(kiss.WithBFS(), kiss.WithMaxStates(2000),
		kiss.WithVisitedMode(kiss.VisitedCompact), kiss.WithMemBudgetMB(8))
	again, err := cl.Check(ctx, bigSrc, atCeiling, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("compact job at the ceiling missed the cache entry the clamped job wrote")
	}

	// Exact-mode jobs: the budget only moves frontier frames between RAM
	// and disk (bit-identical results), so the clamp never splits the
	// cache — budgeted and unbudgeted submissions share one key.
	exact := kiss.NewConfig(kiss.WithBFS(), kiss.WithMaxStates(2000))
	if _, err := cl.Check(ctx, bigSrc, exact, 0); err != nil {
		t.Fatal(err)
	}
	exactBudgeted := kiss.NewConfig(kiss.WithBFS(), kiss.WithMaxStates(2000), kiss.WithMemBudgetMB(512))
	hit, err := cl.Check(ctx, bigSrc, exactBudgeted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("exact-mode budgeted submission missed the unbudgeted job's cache entry")
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.MemBudgetMB != 8 {
		t.Errorf("healthz mem_budget_mb = %d, want 8", h.MemBudgetMB)
	}
}

// TestSearchWorkersKey: the server applies its own search workers before
// the cache key is computed. At 1 worker every job runs the breadth-first
// engine, so a job submitted without BFS is cached under BFS's key and a
// BFS resubmission hits it, whatever worker count either job asked for.
func TestSearchWorkersKey(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, SearchWorkers: 1})
	ctx := context.Background()
	if _, err := cl.Check(ctx, bigSrc, kiss.NewConfig(kiss.WithMaxStates(2000)), 0); err != nil {
		t.Fatal(err)
	}
	hit, err := cl.Check(ctx, bigSrc, kiss.NewConfig(kiss.WithBFS(), kiss.WithMaxStates(2000)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("a BFS job missed the entry a job run breadth-first under the server's workers wrote")
	}
}

// TestHealthz: version and counters surface through /healthz.
func TestHealthz(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, Version: "v1.2.3-test"})
	if _, err := cl.Check(context.Background(), safeSrc, nil, 0); err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != "v1.2.3-test" {
		t.Errorf("health: %+v", h)
	}
	if h.JobsDone != 1 || h.Cache.Misses != 1 {
		t.Errorf("health counters: %+v", h)
	}
}
