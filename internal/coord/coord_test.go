package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	kiss "repro"
	"repro/internal/service"
)

// --- ring -------------------------------------------------------------

func namedBackends(names ...string) []*backend {
	var out []*backend
	for _, n := range names {
		out = append(out, &backend{name: n})
	}
	return out
}

// TestRingRouting: routing must be deterministic, reasonably balanced,
// and minimally disruptive — removing one member moves only the keys it
// owned.
func TestRingRouting(t *testing.T) {
	members := namedBackends("a", "b", "c")
	r1 := buildRing(members)
	r2 := buildRing(members)

	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		o1, o2 := r1.owner(key), r2.owner(key)
		if o1 != o2 {
			t.Fatalf("owner(%q) not deterministic across rebuilds: %s vs %s", key, o1.name, o2.name)
		}
		counts[o1.name]++
	}
	for name, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("backend %s owns %.0f%% of keys; want a rough third", name, 100*frac)
		}
	}

	// Successors: distinct, complete, led by the owner.
	succ := r1.successors("key-42")
	if len(succ) != 3 {
		t.Fatalf("successors: got %d backends, want 3", len(succ))
	}
	if succ[0] != r1.owner("key-42") {
		t.Fatalf("successors[0] != owner")
	}

	// Minimal disruption: drop b; keys owned by a or c must not move.
	shrunk := buildRing(namedBackends("a", "c"))
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r1.owner(key).name
		after := shrunk.owner(key).name
		if before != "b" && before != after {
			t.Fatalf("key %q moved %s -> %s though its owner stayed in the ring", key, before, after)
		}
		if before == "b" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by b; distribution is broken")
	}

	if buildRing(nil).owner("x") != nil || buildRing(nil).successors("x") != nil {
		t.Fatal("empty ring must route to nothing")
	}
}

// --- tenant buckets ---------------------------------------------------

func TestTenantBucket(t *testing.T) {
	tt := newTenantTable(1, 5) // 1 token/s, burst 5
	clock := time.Unix(1000, 0)
	tt.now = func() time.Time { return clock }

	if ok, _ := tt.take("acme", 5); !ok {
		t.Fatal("burst-sized batch must be admitted")
	}
	ok, retry := tt.take("acme", 1)
	if ok {
		t.Fatal("empty bucket must refuse")
	}
	if retry != time.Second {
		t.Fatalf("retry-after = %v, want 1s", retry)
	}

	// A big deficit rounds up: 3 needed at 1/s -> 3s.
	if _, retry = tt.take("acme", 3); retry != 3*time.Second {
		t.Fatalf("retry-after = %v, want 3s", retry)
	}

	// Tenants are independent.
	if ok, _ := tt.take("globex", 5); !ok {
		t.Fatal("fresh tenant must have a full bucket")
	}

	// Refill at rate: after 2s, 2 tokens.
	clock = clock.Add(2 * time.Second)
	if ok, _ := tt.take("acme", 2); !ok {
		t.Fatal("2s at 1 token/s must refill 2 tokens")
	}
	if ok, _ := tt.take("acme", 1); ok {
		t.Fatal("bucket must be empty again")
	}

	// Refill caps at burst.
	clock = clock.Add(time.Hour)
	if ok, _ := tt.take("acme", 6); ok {
		t.Fatal("refill must cap at burst (5), not admit 6")
	}
	if ok, _ := tt.take("acme", 5); !ok {
		t.Fatal("capped bucket must still hold burst tokens")
	}
}

// --- cluster fixtures -------------------------------------------------

// flakyBackend fronts one kissd, with a kill switch (connections abort,
// as if the process died) and a revive that swaps in a fresh server —
// fresh cache, as a restarted process would have.
type flakyBackend struct {
	down atomic.Bool
	h    atomic.Pointer[http.Handler]
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		panic(http.ErrAbortHandler)
	}
	(*f.h.Load()).ServeHTTP(w, r)
}

func (f *flakyBackend) serve(s *service.Server) {
	h := s.Handler()
	f.h.Store(&h)
}

type cluster struct {
	t             *testing.T
	co            *Coordinator
	cl            *service.Client
	flaky         map[string]*flakyBackend
	backends      map[string]*service.Server
	searchWorkers int // every backend's -search-workers
}

func newCluster(t *testing.T, cfg Config, names ...string) *cluster {
	t.Helper()
	return newClusterAt(t, cfg, 0, names...)
}

// newClusterAt is newCluster with every backend at searchWorkers.
func newClusterAt(t *testing.T, cfg Config, searchWorkers int, names ...string) *cluster {
	t.Helper()
	c := &cluster{t: t, flaky: map[string]*flakyBackend{}, backends: map[string]*service.Server{}, searchWorkers: searchWorkers}
	for _, name := range names {
		f := &flakyBackend{}
		c.flaky[name] = f
		c.newBackend(name)
		ts := httptest.NewServer(f)
		t.Cleanup(ts.Close)
		cfg.Backends = append(cfg.Backends, BackendSpec{Name: name, URL: ts.URL})
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	c.co = co
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	c.cl = service.NewClient(front.URL)
	return c
}

// newBackend swaps a freshly started kissd (empty cache) behind name.
func (c *cluster) newBackend(name string) {
	s := service.New(service.Config{Workers: 2, QueueSize: 64, SearchWorkers: c.searchWorkers})
	c.t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	c.backends[name] = s
	c.flaky[name].serve(s)
}

func (c *cluster) kill(name string)   { c.flaky[name].down.Store(true) }
func (c *cluster) revive(name string) { c.newBackend(name); c.flaky[name].down.Store(false) }

func (c *cluster) waitHealthy(name string, want bool) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, b := range c.co.Health().Backends {
			if b.Name == name && b.Healthy == want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatalf("backend %s never became healthy=%v", name, want)
}

// metric reads one label-free counter/gauge from the coordinator text
// exposition.
func (c *cluster) metric(name string) float64 {
	c.t.Helper()
	text, err := c.cl.Metrics(context.Background())
	if err != nil {
		c.t.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				c.t.Fatalf("parsing %s: %v", line, err)
			}
			return v
		}
	}
	c.t.Fatalf("metric %s not exposed", name)
	return 0
}

// --- corpus -----------------------------------------------------------

// chaosSrc generates distinct programs: every third has a reachable
// assertion violation through the reduction (fast to refute), the rest
// are safe with a state space big enough — tens of milliseconds — that
// a mid-batch kill lands while work is genuinely in flight.
func chaosSrc(i int) string {
	if i%3 == 0 {
		return fmt.Sprintf(`
var x;
func worker() { x = %d; }
func main() {
  x = 0;
  async worker();
  assert(x == 0);
}
`, i+1)
	}
	bound := 50 + i
	return fmt.Sprintf(`
var a;
var b;
func main() {
  a = 0; b = 0;
  iter { choice { { a = a + 1; assume(a < %d); } [] { b = b + 1; assume(b < %d); } } }
  assert(a + b >= 0);
}
`, bound, bound)
}

// localWire runs one job in-process the way kissd does (normalized
// config) and shapes the result like the wire Result.
func localWire(t *testing.T, src string) *service.Result {
	t.Helper()
	prog, err := kiss.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kiss.NewConfig().Normalized()
	res, err := cfg.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := &service.Result{
		Verdict: res.Verdict.String(),
		Message: res.Message,
		States:  res.States,
		Steps:   res.Steps,
		Stats:   res.Stats,
	}
	if res.Verdict == kiss.Error {
		out.Pos = res.Pos.String()
		if res.Trace != nil {
			out.Trace = res.Trace.Format()
			out.Schedule = res.Trace.Schedule()
		}
	}
	return out
}

// normalize renders a wire Result with timing stripped, for byte
// comparison between cluster and local runs.
func normalize(t *testing.T, r *service.Result) string {
	t.Helper()
	if r == nil {
		return "<nil>"
	}
	cp := *r
	cp.Stats.StripTiming()
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func keyOf(t *testing.T, src string) string {
	t.Helper()
	prog, err := kiss.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	key, err := service.CacheKey(prog.Source(), kiss.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// collect drains a batch stream into an index-keyed map, failing on
// duplicate or missing indices.
func collect(t *testing.T, stream *service.BatchStream, n int, onItem func(*service.BatchItem)) map[int]*service.BatchItem {
	t.Helper()
	defer stream.Close()
	items := map[int]*service.BatchItem{}
	for {
		item, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("reading batch stream: %v", err)
		}
		if items[item.Index] != nil {
			t.Fatalf("duplicate item for index %d", item.Index)
		}
		items[item.Index] = item
		if onItem != nil {
			onItem(item)
		}
	}
	if len(items) != n {
		t.Fatalf("stream delivered %d items, want %d", len(items), n)
	}
	return items
}

// --- cluster behavior -------------------------------------------------

// TestProxyCheckAndShardedCache: /v1/check is a transparent proxy, and
// resubmitting an identical job hits the owning shard's cache.
func TestProxyCheckAndShardedCache(t *testing.T) {
	c := newCluster(t, Config{HealthEvery: 50 * time.Millisecond}, "a", "b")
	ctx := context.Background()

	src := chaosSrc(1)
	first, err := c.cl.Do(ctx, service.CheckRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if first.State != service.StateDone || first.Cached {
		t.Fatalf("first check: state=%s cached=%v, want done/uncached", first.State, first.Cached)
	}
	second, err := c.cl.Do(ctx, service.CheckRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical resubmission must be served from the shard cache")
	}
	if got, want := normalize(t, second.Result), normalize(t, localWire(t, src)); got != want {
		t.Fatalf("cluster result differs from local run:\n got %s\nwant %s", got, want)
	}
	if c.metric("kiss_coord_owner_cache_hits_total") < 1 {
		t.Fatal("owner-cache hit not counted")
	}

	// Async submission has no home on a coordinator.
	wait := false
	_, err = c.cl.Do(ctx, service.CheckRequest{Source: src, Wait: &wait})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("wait=false: got %v, want 400", err)
	}
}

// TestCoordinatorKeysAtDefaultSearchWorkers: backends key a job with
// their own search workers applied (0 here), not the submitted 8, so a
// resubmission asking for 8 workers finds the entry under the owner's
// key.
func TestCoordinatorKeysAtDefaultSearchWorkers(t *testing.T) {
	c := newCluster(t, Config{HealthEvery: 50 * time.Millisecond}, "a")
	ctx := context.Background()
	src := chaosSrc(3)
	req := service.CheckRequest{Source: src, Config: kiss.NewConfig(kiss.WithSearchWorkers(8))}
	if _, err := c.cl.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	before := c.metric("kiss_coord_owner_cache_hits_total")
	again, err := c.cl.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || c.metric("kiss_coord_owner_cache_hits_total") != before+1 {
		t.Error("the resubmission missed the owner's cache under the coordinator's key")
	}
	if got, want := normalize(t, again.Result), normalize(t, localWire(t, src)); got != want {
		t.Fatalf("cluster result differs from a local depth-first run:\n got %s\nwant %s", got, want)
	}
}

// TestCoordinatorKeysPerBackendSearchWorkers: backends at
// -search-workers 1 key a job as breadth-first. The coordinator probes
// each backend under the key its reported setting gives, so a
// resubmission is an owner-cache hit, and after a ring change the
// result is found on the backend that computed it while the owner was
// out, not computed again.
func TestCoordinatorKeysPerBackendSearchWorkers(t *testing.T) {
	c := newClusterAt(t, Config{HealthEvery: 50 * time.Millisecond}, 1, "a", "b")
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for reported := 0; reported < 2; {
		if time.Now().After(deadline) {
			t.Fatal("backends never reported their search workers")
		}
		time.Sleep(10 * time.Millisecond)
		reported = 0
		for _, b := range c.co.Health().Backends {
			if b.SearchWorkers == 1 {
				reported++
			}
		}
	}

	req := service.CheckRequest{Source: chaosSrc(3)}
	if _, err := c.cl.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	again, err := c.cl.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || c.metric("kiss_coord_owner_cache_hits_total") != 1 {
		t.Fatal("the resubmission missed the owner's cache")
	}

	// A second job, computed while its home is out of the ring: when
	// the home returns with an empty cache, the lookup on the backend
	// that computed it must hit.
	req = service.CheckRequest{Source: chaosSrc(6)}
	home := c.co.fullRing.owner(keyOf(t, req.Source)).name
	c.kill(home)
	c.waitHealthy(home, false)
	if _, err := c.cl.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	c.revive(home)
	c.waitHealthy(home, true)
	again, err = c.cl.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || c.metric("kiss_coord_peer_cache_hits_total") != 1 {
		t.Fatal("after the ring change the lookup missed the cache of the backend that computed the job")
	}
	if n := c.metric("kiss_coord_computed_total"); n != 2 {
		t.Fatalf("%v jobs computed, want 2", n)
	}
}

// TestTenantAdmission: named tenants draw from their bucket and get 429
// + Retry-After when it runs dry; unnamed tenants are not charged.
func TestTenantAdmission(t *testing.T) {
	c := newCluster(t, Config{HealthEvery: 50 * time.Millisecond, TenantRate: 0.001, TenantBurst: 2}, "a")
	ctx := context.Background()
	src := chaosSrc(2)

	for i := 0; i < 2; i++ {
		if _, err := c.cl.Do(ctx, service.CheckRequest{Source: src}, service.WithTenant("acme")); err != nil {
			t.Fatalf("within-burst check %d: %v", i, err)
		}
	}
	_, err := c.cl.Do(ctx, service.CheckRequest{Source: src}, service.WithTenant("acme"))
	var se *service.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota check: got %v, want 429", err)
	}
	if d, ok := se.RetryAfterDuration(); !ok || d < time.Second {
		t.Fatalf("429 must carry Retry-After, got %q", se.RetryAfter)
	}
	if c.metric("kiss_coord_rate_limited_total") < 1 {
		t.Fatal("rate-limit rejection not counted")
	}

	// A batch is charged as a whole: 3 jobs against an empty bucket.
	_, err = c.cl.Batch(ctx, service.BatchRequest{
		Jobs: []service.BatchJob{{Source: src}, {Source: src}, {Source: src}},
	}, service.WithTenant("acme"))
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch: got %v, want 429", err)
	}

	// No tenant, no quota.
	for i := 0; i < 4; i++ {
		if _, err := c.cl.Do(ctx, service.CheckRequest{Source: src}); err != nil {
			t.Fatalf("unnamed check %d: %v", i, err)
		}
	}
}

// TestClusterChaos is the acceptance scenario: a 3-backend cluster
// works a corpus while one backend is killed mid-batch. The verdict set
// must match a local single-process run exactly (after StripTiming),
// with no lost or duplicated items; after the backend comes back empty,
// a second pass must be answered from the surviving caches — owner hits
// where the key never moved, peer hits where it did — recomputing only
// the results that died with the killed backend's cache.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("explores real state spaces across two batch passes; skipped in -short")
	}
	const jobs = 36
	// The health cadence is deliberately slower than the job dispatch
	// cadence so the kill is discovered at request time (a failed probe
	// or compute), not absorbed by a health tick before any job notices.
	c := newCluster(t, Config{HealthEvery: 250 * time.Millisecond, BatchWorkers: 4}, "a", "b", "c")
	ctx := context.Background()

	req := service.BatchRequest{}
	local := map[int]string{}
	keys := map[int]string{}
	for i := 0; i < jobs; i++ {
		src := chaosSrc(i)
		req.Jobs = append(req.Jobs, service.BatchJob{Source: src})
		local[i] = normalize(t, localWire(t, src))
		keys[i] = keyOf(t, src)
	}

	// The ring is deterministic, so b's ownership share is a property of
	// the corpus, not of the run. The kill fires after the first item,
	// with at most BatchWorkers jobs in flight, so b owning comfortably
	// more keys than that guarantees reroutes (and later peer hits).
	probeRing := buildRing(namedBackends("a", "b", "c"))
	bOwned := 0
	for i := 0; i < jobs; i++ {
		if probeRing.owner(keys[i]).name == "b" {
			bOwned++
		}
	}
	bOwnedSlow := 0
	for i := 0; i < jobs; i++ {
		if i%3 != 0 && probeRing.owner(keys[i]).name == "b" {
			bOwnedSlow++
		}
	}
	if bOwned < 7 || bOwnedSlow < 4 {
		t.Fatalf("corpus gives b %d keys (%d slow); regenerate the corpus", bOwned, bOwnedSlow)
	}

	// Pass 1: kill b as soon as the first result streams back.
	stream, err := c.cl.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	items := collect(t, stream, jobs, func(*service.BatchItem) {
		if !killed {
			killed = true
			c.kill("b")
		}
	})

	// Every verdict matches the local run; none lost, none duplicated
	// (collect enforces index uniqueness and count).
	lostWithB := map[string]bool{}
	for i := 0; i < jobs; i++ {
		item := items[i]
		if item.State != service.StateDone {
			t.Fatalf("pass 1 item %d: state=%s error=%q", i, item.State, item.Error)
		}
		if got := normalize(t, item.Result); got != local[i] {
			t.Fatalf("pass 1 item %d differs from local run:\n got %s\nwant %s", i, got, local[i])
		}
		if item.Key != keys[i] {
			t.Fatalf("pass 1 item %d routed by key %s, want %s", i, item.Key, keys[i])
		}
		if item.Backend == "b" {
			// Computed on b before (or as) it died: that cache is gone.
			lostWithB[item.Key] = true
		}
	}
	if len(lostWithB) == jobs {
		t.Fatal("every job landed on b; the kill did nothing")
	}

	c.waitHealthy("b", false)
	if c.metric("kiss_coord_reroutes_total") < 1 {
		t.Fatal("killing a backend mid-batch must force at least one reroute")
	}

	// Revive b with an empty cache and let the ring take it back.
	c.revive("b")
	c.waitHealthy("b", true)
	if epoch := c.co.Health().RingEpoch; epoch < 2 {
		t.Fatalf("ring epoch = %d after a down/up cycle, want >= 2", epoch)
	}

	// Pass 2: same corpus. Keys that stayed put hit their owner's cache;
	// keys that moved back to b are found in the peers' caches (they
	// were computed on a survivor during the failover window); only
	// results whose sole copy died with b's cache may be recomputed.
	stream, err = c.cl.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	items = collect(t, stream, jobs, nil)
	peerHits := 0
	for i := 0; i < jobs; i++ {
		item := items[i]
		if item.State != service.StateDone {
			t.Fatalf("pass 2 item %d: state=%s error=%q", i, item.State, item.Error)
		}
		if got := normalize(t, item.Result); got != local[i] {
			t.Fatalf("pass 2 item %d differs from local run:\n got %s\nwant %s", i, got, local[i])
		}
		if item.PeerCache {
			peerHits++
		}
		if !item.Cached && !item.PeerCache && !lostWithB[item.Key] {
			t.Fatalf("pass 2 item %d (key %s, backend %s) was recomputed though a live cache held it", i, item.Key, item.Backend)
		}
	}
	if peerHits == 0 {
		t.Fatal("pass 2 must see peer-cache hits for keys that failed over while b was down")
	}
	if c.metric("kiss_coord_peer_cache_hits_total") < 1 {
		t.Fatal("peer-cache hits not counted")
	}
	ownerHits := 0
	for i := 0; i < jobs; i++ {
		if items[i].Cached {
			ownerHits++
		}
	}
	t.Logf("pass 2: %d/%d owner-cache hits, %d peer-cache hits, %d recomputed (of %d results lost with b); reroutes=%v",
		ownerHits, jobs, peerHits, jobs-ownerHits-peerHits, len(lostWithB), c.metric("kiss_coord_reroutes_total"))
}
