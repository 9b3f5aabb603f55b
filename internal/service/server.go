package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	kiss "repro"
	"repro/internal/stats"
)

// Config parameterizes a Server. The zero value is usable: defaults are
// filled in by New.
type Config struct {
	// Version is reported by /healthz (ldflags-injected in cmd/kissd).
	Version string
	// QueueSize bounds the admission queue; a full queue rejects
	// submissions with 429 + Retry-After. Default 64.
	QueueSize int
	// Workers is the scheduler pool width — how many checks run
	// concurrently. 0 sizes it from the core count and SearchWorkers so
	// Workers x max(1, SearchWorkers) ~= GOMAXPROCS.
	Workers int
	// SearchWorkers is the per-check parallel-search width handed to
	// kiss.Config.SearchWorkers (0 = classic sequential search).
	// Verdicts are identical at every setting.
	SearchWorkers int
	// CacheBytes is the result-cache byte budget. Default 64 MiB.
	CacheBytes int64
	// DefaultTimeout bounds each job's wall time (from submission,
	// queue wait included) when the request doesn't set timeout_ms.
	// 0 means no default deadline.
	DefaultTimeout time.Duration
	// MemBudgetMB is the per-job memory ceiling in MiB: a submission
	// asking for more (or for no budget at all) is clamped before the
	// cache key is computed — the scheduler owns the machine's RAM the
	// same way it owns its cores, and an unbudgeted frontier on a busy
	// daemon is an OOM, not a policy. The clamp changes the key only
	// under a compact visited set (where the budget sizes the filter and
	// so shapes the result); a fleet behind one coordinator should run a
	// uniform ceiling, or peer cache lookups for compact-mode jobs miss
	// across nodes (never corrupt — keys always reflect the effective
	// config). 0 = no ceiling.
	MemBudgetMB int
	// MaxSourceBytes bounds the request body. Default 8 MiB.
	MaxSourceBytes int64
}

// Server is the checking service: admission control in front of a
// bounded queue, a worker pool running kiss.Check, a content-addressed
// result cache, and a metrics registry. Create with New, serve
// Handler(), stop with Drain.
type Server struct {
	cfg   Config
	cache *resultCache
	jobs  *jobTable
	queue chan *job
	reg   *stats.Registry

	mu       sync.Mutex // guards draining vs. queue close
	draining bool
	wg       sync.WaitGroup // worker pool

	inflight atomic.Int64
	jobsDone atomic.Int64
	idSeq    atomic.Int64
	instance string

	// metrics (populated by registerMetrics)
	outcomes       map[string]*stats.Counter
	jobsFailed     *stats.Counter
	jobsPanicked   *stats.Counter
	jobsRejected   *stats.Counter
	statesTotal    *stats.Counter
	stepsTotal     *stats.Counter
	spilledBytes   *stats.Counter
	spilledFrames  *stats.Counter
	spilledRuns    *stats.Counter
	visitedFPs     *stats.Counter
	phaseParse     *stats.Histogram
	phaseTransform *stats.Histogram
	phaseCheck     *stats.Histogram
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers(cfg.SearchWorkers)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 8 << 20
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	var inst [4]byte
	rand.Read(inst[:])
	s := &Server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheBytes),
		jobs:     newJobTable(),
		queue:    make(chan *job, cfg.QueueSize),
		reg:      stats.NewRegistry(),
		instance: hex.EncodeToString(inst[:]),
	}
	s.registerMetrics()
	s.startWorkers()
	return s
}

// Registry exposes the metrics registry (cmd/kissd adds process-level
// gauges next to the service ones).
func (s *Server) Registry() *stats.Registry { return s.reg }

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheProbe)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Health snapshots the service state.
func (s *Server) Health() Health {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	return Health{
		Status:        status,
		Version:       s.cfg.Version,
		Workers:       s.cfg.Workers,
		SearchWorkers: s.cfg.SearchWorkers,
		MemBudgetMB:   s.cfg.MemBudgetMB,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		InFlight:      int(s.inflight.Load()),
		JobsDone:      s.jobsDone.Load(),
		Cache:         s.cache.stats(),
	}
}

// Sentinel admission errors.
var (
	errQueueFull = errors.New("queue full")
	errDraining  = errors.New("server draining")
)

// submit admits a job into the bounded queue. The mutex makes admission
// atomic with respect to Drain's queue close: no send can race the
// close, and after draining starts every submission is refused.
func (s *Server) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// Drain gracefully shuts the scheduler down: admission closes (new
// submissions get 503), the queue is closed, and the workers run every
// already-accepted job — queued and in-flight — to completion. The
// context bounds the wait: when it expires, the remaining jobs are
// canceled through their own contexts instead of abandoned, so each
// returns a partial ResourceBound result through the normal completion
// path and its counters still reach the kissd_states_total and
// kissd_steps_total totals (a job cut off mid-check did real work the
// fleet metrics must not lose). Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.jobs.cancelAll()
		<-done
		return ctx.Err()
	}
}

// newJobID mints a process-unique job id.
func (s *Server) newJobID() string {
	return fmt.Sprintf("j-%s-%d", s.instance, s.idSeq.Add(1))
}

// handleCheck is POST /v1/check: parse, address, cache-probe, admit.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if err := kiss.CheckWireV("check request", req.V); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "empty source")
		return
	}
	prog, err := kiss.Parse(req.Source)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("parsing source: %v", err))
		return
	}
	cfg := req.Config
	if cfg == nil {
		cfg = kiss.NewConfig()
	}
	// Apply the server's search workers and per-job memory ceiling before
	// the key is computed, so the cache is always keyed on the config the
	// check actually ran under: the worker count picks the search engine
	// (0 depth-first, >= 1 breadth-first), which can change the result.
	cfg = Applied(cfg, s.cfg.SearchWorkers, s.cfg.MemBudgetMB)
	key, err := CacheKey(prog.Source(), cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("canonicalizing config: %v", err))
		return
	}

	// The content-addressed fast path: an identical problem — same
	// canonical source, same normalized config — was already solved;
	// answer without touching the queue or exploring a single state.
	if res, ok := s.cache.get(key); ok {
		j := doneJob(s.newJobID(), key, res, true)
		s.jobs.add(j)
		writeJSON(w, http.StatusOK, j.status())
		return
	}

	// Effective run config: the normalized request knobs (runtime
	// plumbing stripped) plus the server's execution policy — the
	// scheduler owns parallelism and deadlines, not the submitter.
	runCfg := cfg.Normalized()
	runCfg.SearchWorkers = s.cfg.SearchWorkers
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	// Always cancelable, deadline or not: Drain uses the job contexts to
	// cut off in-flight checks when its own wait expires.
	ctx, cancel := context.WithCancel(context.Background())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}
	runCfg.Context = ctx

	j := newJob(s.newJobID(), key, prog, &runCfg, ctx, cancel)
	if err := s.submit(j); err != nil {
		cancel()
		switch err {
		case errQueueFull:
			s.jobsRejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "queue full; retry later")
		default:
			writeErr(w, http.StatusServiceUnavailable, "server draining")
		}
		return
	}
	s.jobs.add(j)

	if !req.wait() {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, j.status())
	case <-r.Context().Done():
		// Client gave up; the job keeps running and stays pollable.
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleCacheProbe is GET /v1/cache/{key}: a pure content-addressed
// lookup that never computes. The coordinator uses it for peer lookup —
// after a rebalance moves a key to a backend that has not computed it,
// the peer that has answers from its LRU shard instead of the new owner
// re-exploring the state space. Probes count in the hit/miss telemetry
// like any other lookup.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	res, ok := s.cache.get(r.PathValue("key"))
	if !ok {
		writeErr(w, http.StatusNotFound, "key not cached")
		return
	}
	writeJSON(w, http.StatusOK, CheckResponse{V: kiss.WireV, State: StateDone, Cached: true, Result: res})
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleMetrics is GET /metrics (Prometheus text exposition).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
