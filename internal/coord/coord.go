// Package coord is the cluster coordinator behind cmd/kiss-coord: an
// HTTP front end that shards checking work across a fleet of kissd
// backends.
//
// The KISS reduction makes every checking problem an independent,
// deterministic (source, config) pair, so a cluster needs no consensus
// and no shared state: the coordinator consistent-hashes each job's
// content address (service.CacheKey) onto a ring of healthy backends,
// making each backend's LRU result cache a shard of one distributed
// cache. Identical work lands on the same backend and is answered from
// its cache; after a membership change (a backend died or came back)
// the coordinator probes the other members' caches before recomputing,
// so a rebalance costs lookups, not re-exploration. A backend keys a
// job on the config with its own -search-workers and -mem-budget-mb
// applied, which its /healthz reports, so each lookup uses the key that
// the probed backend stores the job under.
//
// Endpoints:
//
//	POST /v1/check  transparent single-check proxy (synchronous only)
//	POST /v1/batch  fan a corpus of jobs out; stream JSONL results back
//	GET  /healthz   coordinator + per-backend health (JSON)
//	GET  /metrics   Prometheus text exposition
//
// Admission is per tenant (X-Kiss-Tenant): each named tenant draws from
// a token bucket, one token per job, and an empty bucket rejects with
// 429 + Retry-After — the same backpressure idiom kissd uses for its
// queue, lifted to the cluster edge.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	kiss "repro"
	"repro/internal/service"
	"repro/internal/stats"
)

// BackendSpec names one kissd backend.
type BackendSpec struct {
	Name string
	URL  string
}

// Config parameterizes a Coordinator. Zero values get defaults in New.
type Config struct {
	// Version is reported by /healthz.
	Version string
	// Backends is the fleet (at least one).
	Backends []BackendSpec
	// HealthEvery is the backend health-poll cadence. Default 2s.
	HealthEvery time.Duration
	// ProbeTimeout bounds each health poll and cache probe. Default 2s.
	ProbeTimeout time.Duration
	// TenantRate and TenantBurst parameterize the per-tenant token
	// buckets: TenantRate jobs/second sustained, TenantBurst jobs of
	// burst. Defaults 50/s and 200.
	TenantRate  float64
	TenantBurst int
	// BatchWorkers bounds how many jobs of one batch run concurrently
	// across the fleet. Default 4 x len(Backends).
	BatchWorkers int
	// MaxBodyBytes bounds request bodies. Default 64 MiB (batches carry
	// whole corpora).
	MaxBodyBytes int64
}

// backend is one kissd plus its routing state. healthy is flipped by
// the health loop and by request-time failures; the last health poll's
// queue depth and jobs-done counters feed the coordinator gauges, and
// its search workers and memory ceiling give the key the backend caches
// a job under (the kissd defaults, 0 and none, until the first poll).
type backend struct {
	name string
	url  string
	cl   *service.Client

	healthy       atomic.Bool
	queueDepth    atomic.Int64
	jobsDone      atomic.Int64
	searchWorkers atomic.Int64
	memBudgetMB   atomic.Int64
}

// Coordinator routes checks across the backend fleet. Create with New,
// serve Handler(), stop with Close.
type Coordinator struct {
	cfg      Config
	backends []*backend
	ringPtr  atomic.Pointer[ring]
	// fullRing hashes over every configured backend regardless of
	// health: it defines each key's home shard, against which reroutes
	// are counted.
	fullRing *ring
	// epoch counts ring membership changes. It gates peer-cache probing:
	// at epoch 0 no key has ever moved, so a miss on the owner is a miss
	// everywhere and probing peers would only add latency.
	epoch   atomic.Int64
	tenants *tenantTable
	reg     *stats.Registry

	mu       sync.Mutex // serializes ring rebuilds
	flightMu sync.Mutex
	flights  map[string]*flight

	stop chan struct{}
	wg   sync.WaitGroup

	reroutes    *stats.Counter
	peerHits    *stats.Counter
	ownerHits   *stats.Counter
	computes    *stats.Counter
	rateLimited *stats.Counter
	batches     *stats.Counter
}

// New builds a Coordinator over the configured backends and starts the
// health loops. Backends start optimistically healthy; the first failed
// poll (or failed request) takes one out of the ring.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("coord: no backends configured")
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.TenantRate <= 0 {
		cfg.TenantRate = 50
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 200
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = 4 * len(cfg.Backends)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	c := &Coordinator{
		cfg:     cfg,
		tenants: newTenantTable(cfg.TenantRate, cfg.TenantBurst),
		reg:     stats.NewRegistry(),
		flights: map[string]*flight{},
		stop:    make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, spec := range cfg.Backends {
		if spec.Name == "" || spec.URL == "" {
			return nil, fmt.Errorf("coord: backend needs name and url, got %+v", spec)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("coord: duplicate backend name %q", spec.Name)
		}
		seen[spec.Name] = true
		b := &backend{name: spec.Name, url: spec.URL, cl: service.NewClient(spec.URL)}
		b.healthy.Store(true)
		c.backends = append(c.backends, b)
	}
	c.rebuildRing()
	c.fullRing = buildRing(c.backends)
	c.epoch.Store(0) // the initial build is not a membership *change*
	c.registerMetrics()
	for _, b := range c.backends {
		c.wg.Add(1)
		go c.healthLoop(b)
	}
	return c, nil
}

// Close stops the health loops.
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
}

// Registry exposes the metrics registry (cmd/kiss-coord adds process
// gauges).
func (c *Coordinator) Registry() *stats.Registry { return c.reg }

// Handler returns the HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", c.handleCheck)
	mux.HandleFunc("POST /v1/batch", c.handleBatch)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func (c *Coordinator) registerMetrics() {
	r := c.reg
	for _, b := range c.backends {
		b := b
		labels := map[string]string{"backend": b.name}
		r.GaugeFunc("kiss_coord_backend_queue_depth",
			"Admission-queue depth of each backend at its last health poll.", labels,
			func() float64 { return float64(b.queueDepth.Load()) })
		r.GaugeFunc("kiss_coord_backend_up",
			"Whether each backend is in the routing ring (1) or out (0).", labels,
			func() float64 {
				if b.healthy.Load() {
					return 1
				}
				return 0
			})
	}
	r.GaugeFunc("kiss_coord_ring_epoch",
		"Ring membership changes since start; >0 enables peer-cache probing.", nil,
		func() float64 { return float64(c.epoch.Load()) })
	c.reroutes = r.Counter("kiss_coord_reroutes_total",
		"Jobs computed away from their home shard because it failed or left the ring.", nil)
	c.peerHits = r.Counter("kiss_coord_peer_cache_hits_total",
		"Results found in a non-owner backend's cache after a rebalance.", nil)
	c.ownerHits = r.Counter("kiss_coord_owner_cache_hits_total",
		"Results found in the owning backend's cache by probe.", nil)
	c.computes = r.Counter("kiss_coord_computed_total",
		"Jobs dispatched to a backend for computation.", nil)
	c.rateLimited = r.Counter("kiss_coord_rate_limited_total",
		"Submissions rejected with 429 by per-tenant admission quotas.", nil)
	c.batches = r.Counter("kiss_coord_batches_total",
		"Batch submissions accepted.", nil)
}

// healthLoop polls one backend's /healthz at once and then on the
// configured cadence, updating its gauges and key settings and flipping
// it in or out of the ring on status transitions.
func (c *Coordinator) healthLoop(b *backend) {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HealthEvery)
	defer tick.Stop()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		h, err := b.cl.Health(ctx)
		cancel()
		if err != nil || h.Status != "ok" {
			c.markDown(b)
		} else {
			b.queueDepth.Store(int64(h.QueueDepth))
			b.jobsDone.Store(h.JobsDone)
			b.searchWorkers.Store(int64(h.SearchWorkers))
			b.memBudgetMB.Store(int64(h.MemBudgetMB))
			c.markUp(b)
		}
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// markDown takes a backend out of the ring (idempotent); markUp puts it
// back. Both bump the ring epoch on an actual transition, which turns
// peer-cache probing on for all later lookups.
func (c *Coordinator) markDown(b *backend) {
	if b.healthy.CompareAndSwap(true, false) {
		c.mu.Lock()
		c.rebuildRing()
		c.epoch.Add(1)
		c.mu.Unlock()
	}
}

func (c *Coordinator) markUp(b *backend) {
	if b.healthy.CompareAndSwap(false, true) {
		c.mu.Lock()
		c.rebuildRing()
		c.epoch.Add(1)
		c.mu.Unlock()
	}
}

func (c *Coordinator) rebuildRing() {
	var members []*backend
	for _, b := range c.backends {
		if b.healthy.Load() {
			members = append(members, b)
		}
	}
	c.ringPtr.Store(buildRing(members))
}

// outcome is one job's resolved result, shared between the proxy and
// batch paths. key is the job's routing key.
type outcome struct {
	key     string
	backend string
	cached  bool // served from the owner's cache (probe or backend-side hit)
	peer    bool // served from a non-owner peer's cache after a rebalance
	result  *service.Result
	errMsg  string // pipeline failure reported by the backend (state "failed")
}

// requestError marks a job the cluster cannot accept (bad source, bad
// config): a 400 on the proxy path, a failed item on the batch path —
// never a reroute.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

// errNoBackends: every backend is out of the ring.
var errNoBackends = errors.New("coord: no healthy backends")

// flight deduplicates concurrent executions of the same cache key
// (identical jobs inside one batch, or racing batches): one flight
// computes, the rest wait and share the outcome — the "zero duplicate
// executions" half of the batch contract.
type flight struct {
	done chan struct{}
	out  *outcome
	err  error
}

// execute resolves one job: parse and address it, then probe the
// owner's cache, then (after any membership change) the peers' caches,
// and only then dispatch the computation to the owner — failing over
// around dead backends as it goes.
func (c *Coordinator) execute(ctx context.Context, src string, cfg *kiss.Config, timeoutMS int64) (*outcome, error) {
	prog, err := kiss.Parse(src)
	if err != nil {
		return nil, &requestError{msg: fmt.Sprintf("parsing source: %v", err)}
	}
	if cfg == nil {
		cfg = kiss.NewConfig()
	}
	// The routing key must not depend on which backend runs the job, and
	// every backend replaces the submitted search workers with its own,
	// so it is the key of the submitted config with the count cleared.
	// Flights are deduplicated on it too.
	canon := prog.Source()
	routed := *cfg
	routed.SearchWorkers = 0
	key, err := service.CacheKey(canon, &routed)
	if err != nil {
		return nil, &requestError{msg: fmt.Sprintf("canonicalizing config: %v", err)}
	}

	c.flightMu.Lock()
	if f, ok := c.flights[key]; ok {
		c.flightMu.Unlock()
		select {
		case <-f.done:
			return f.out, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.flightMu.Unlock()

	f.out, f.err = c.resolve(ctx, key, src, canon, cfg, timeoutMS)
	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	close(f.done)
	return f.out, f.err
}

// resolve finds or computes the outcome of the job routed by key: src as
// submitted, canon its canonical form.
func (c *Coordinator) resolve(ctx context.Context, key, src, canon string, cfg *kiss.Config, timeoutMS int64) (*outcome, error) {
	succ := c.ringPtr.Load().successors(key)
	if len(succ) == 0 {
		return nil, errNoBackends
	}
	owner := succ[0]

	// 1. The owner's cache: the common warm path — same key, same shard.
	if resp, ok := c.probe(ctx, owner, canon, cfg); ok {
		c.ownerHits.Inc()
		return &outcome{key: key, backend: owner.name, cached: true, result: resp.Result}, nil
	}

	// 2. The peers' caches, but only once membership has ever changed:
	// before the first change no key has moved, so an owner miss is a
	// cluster miss. After a change, a key's previous owner (or the
	// successor that computed it during a failover window) may still
	// hold the result — a lookup there is cheap against re-exploring a
	// state space.
	if c.epoch.Load() > 0 {
		for _, p := range succ[1:] {
			if resp, ok := c.probe(ctx, p, canon, cfg); ok {
				c.peerHits.Inc()
				return &outcome{key: key, backend: p.name, peer: true, result: resp.Result}, nil
			}
		}
	}

	// 3. Compute on the owner, failing over around dead backends. The
	// successor order is recomputed each attempt (failures shrink the
	// ring). A job computed by anyone but its home shard — the owner in
	// the full-membership ring — counts as a reroute, whether the
	// compute call failed over live or the home was already out of the
	// ring when the job arrived.
	home := c.fullRing.owner(key)
	tried := map[string]bool{}
	for {
		var b *backend
		for _, s := range c.ringPtr.Load().successors(key) {
			if !tried[s.name] {
				b = s
				break
			}
		}
		if b == nil {
			return nil, errNoBackends
		}
		tried[b.name] = true
		resp, err := b.cl.Do(ctx, service.CheckRequest{Source: src, Config: cfg, TimeoutMS: timeoutMS},
			service.WithRetry(3), service.WithRetryBackoff(50*time.Millisecond))
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			var se *service.StatusError
			if errors.As(err, &se) {
				switch {
				case se.Code == http.StatusTooManyRequests:
					// Persistent backpressure with a healthy backend:
					// surface it, don't reroute (the key's shard is here).
					return nil, err
				case se.Code < 500:
					// The job itself is unacceptable (e.g. body too big).
					return nil, &requestError{msg: se.Message}
				}
			}
			// Transport failure or 5xx (draining/dying): out of the ring,
			// next successor picks the job up.
			c.markDown(b)
			continue
		}
		if b != home {
			c.reroutes.Inc()
		}
		if resp.State == service.StateFailed {
			return &outcome{key: key, backend: b.name, errMsg: resp.Error}, nil
		}
		if resp.State != service.StateDone || resp.Result == nil {
			return nil, fmt.Errorf("coord: backend %s returned state %q for a synchronous check", b.name, resp.State)
		}
		c.computes.Inc()
		return &outcome{key: key, backend: b.name, cached: resp.Cached, result: resp.Result}, nil
	}
}

// probe asks one backend's content-addressed cache for the job (canon,
// cfg), under the key that backend's settings give it. A transport
// failure takes the backend out of the ring and reads as a miss.
func (c *Coordinator) probe(ctx context.Context, b *backend, canon string, cfg *kiss.Config) (*service.CheckResponse, bool) {
	key, err := service.CacheKey(canon, service.Applied(cfg, int(b.searchWorkers.Load()), int(b.memBudgetMB.Load())))
	if err != nil {
		return nil, false
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	resp, ok, err := b.cl.CacheLookup(pctx, key)
	if err != nil {
		if ctx.Err() == nil {
			c.markDown(b)
		}
		return nil, false
	}
	return resp, ok
}

// tenantOf resolves the tenant identity: header wins over body.
func tenantOf(r *http.Request, body string) string {
	if t := r.Header.Get(service.TenantHeader); t != "" {
		return t
	}
	return body
}

// admit charges the tenant n tokens, writing the 429 itself on refusal.
func (c *Coordinator) admit(w http.ResponseWriter, tenant string, n int) bool {
	if tenant == "" {
		return true
	}
	ok, retryAfter := c.tenants.take(tenant, n)
	if !ok {
		c.rateLimited.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over admission quota; retry later", tenant))
		return false
	}
	return true
}

// handleCheck is POST /v1/check: a transparent synchronous proxy. Async
// submissions (wait=false) are refused — a polled job id would pin the
// client to one backend, which is exactly what the coordinator hides.
func (c *Coordinator) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req service.CheckRequest
	body := http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if err := kiss.CheckWireV("check request", req.V); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Wait != nil && !*req.Wait {
		writeErr(w, http.StatusBadRequest, "wait=false is not supported by the coordinator; submit to a backend directly")
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "empty source")
		return
	}
	if !c.admit(w, tenantOf(r, req.Tenant), 1) {
		return
	}
	out, err := c.execute(r.Context(), req.Source, req.Config, req.TimeoutMS)
	if err != nil {
		c.writeExecErr(w, err)
		return
	}
	resp := service.CheckResponse{V: kiss.WireV, State: service.StateDone,
		Cached: out.cached || out.peer, Result: out.result}
	if out.errMsg != "" {
		resp.State, resp.Error, resp.Result = service.StateFailed, out.errMsg, nil
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) writeExecErr(w http.ResponseWriter, err error) {
	var re *requestError
	var se *service.StatusError
	switch {
	case errors.As(err, &re):
		writeErr(w, http.StatusBadRequest, re.msg)
	case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
		if se.RetryAfter != "" {
			w.Header().Set("Retry-After", se.RetryAfter)
		}
		writeErr(w, http.StatusTooManyRequests, se.Message)
	case errors.Is(err, errNoBackends):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeErr(w, http.StatusBadGateway, err.Error())
	}
}

// handleBatch is POST /v1/batch: fan the jobs out across the fleet and
// stream one BatchItem per job back as JSON Lines in completion order.
// The whole batch is admitted (or refused) up front: one token per job.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req service.BatchRequest
	body := http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if err := kiss.CheckWireV("batch request", req.V); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	if !c.admit(w, tenantOf(r, req.Tenant), len(req.Jobs)) {
		return
	}
	c.batches.Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ctx := r.Context()
	sem := make(chan struct{}, c.cfg.BatchWorkers)
	items := make(chan service.BatchItem)
	var wg sync.WaitGroup
	for i, job := range req.Jobs {
		wg.Add(1)
		go func(i int, job service.BatchJob) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			item := service.BatchItem{V: kiss.WireV, Index: i, State: service.StateDone}
			out, err := c.execute(ctx, job.Source, job.Config, job.TimeoutMS)
			switch {
			case err != nil:
				if ctx.Err() != nil {
					return // client gone; nobody is reading
				}
				item.State, item.Error = service.StateFailed, err.Error()
			case out.errMsg != "":
				item.State, item.Error = service.StateFailed, out.errMsg
				item.Key, item.Backend = out.key, out.backend
			default:
				item.Key, item.Backend = out.key, out.backend
				item.Cached, item.PeerCache = out.cached, out.peer
				item.Result = out.result
			}
			select {
			case items <- item:
			case <-ctx.Done():
			}
		}(i, job)
	}
	go func() {
		wg.Wait()
		close(items)
	}()

	enc := json.NewEncoder(w)
	for item := range items {
		if err := enc.Encode(item); err != nil {
			return // client went away; workers drain via ctx
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// BackendHealth is one backend's row in the coordinator /healthz body.
// SearchWorkers and MemBudgetMB are the settings the backend reported at
// its last health poll.
type BackendHealth struct {
	Name          string `json:"name"`
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	QueueDepth    int64  `json:"queue_depth"`
	JobsDone      int64  `json:"jobs_done"`
	SearchWorkers int64  `json:"search_workers"`
	MemBudgetMB   int64  `json:"mem_budget_mb,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	Status    string          `json:"status"` // "ok" while >=1 backend is healthy
	Version   string          `json:"version"`
	RingEpoch int64           `json:"ring_epoch"`
	Backends  []BackendHealth `json:"backends"`
}

// Health snapshots the cluster state.
func (c *Coordinator) Health() Health {
	h := Health{Status: "degraded", Version: c.cfg.Version, RingEpoch: c.epoch.Load()}
	for _, b := range c.backends {
		healthy := b.healthy.Load()
		if healthy {
			h.Status = "ok"
		}
		h.Backends = append(h.Backends, BackendHealth{
			Name: b.name, URL: b.url, Healthy: healthy,
			QueueDepth: b.queueDepth.Load(), JobsDone: b.jobsDone.Load(),
			SearchWorkers: b.searchWorkers.Load(), MemBudgetMB: b.memBudgetMB.Load(),
		})
	}
	return h
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Health())
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.reg.WriteText(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: msg})
}
