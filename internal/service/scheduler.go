package service

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	kiss "repro"
	"repro/internal/stats"
)

// The scheduler half of the Server: a fixed pool of workers draining the
// bounded queue. Parallelism composes the same way eval.RunCorpus does
// it (PR 3): the pool width times the per-check SearchWorkers is held at
// the machine's core count, so concurrent jobs multiplex the hardware
// instead of oversubscribing it. Workers run jobs to completion — drain
// closes the queue and waits, so SIGTERM never abandons an accepted job.

// defaultWorkers sizes the pool for a per-check search width: enough
// workers to cover the cores once searchWorkers-wide checks are running.
func defaultWorkers(searchWorkers int) int {
	cores := runtime.GOMAXPROCS(0)
	if searchWorkers > 1 {
		return max(1, cores/searchWorkers)
	}
	return max(1, cores)
}

// checkHook, when non-nil, runs in the worker just before kiss.Check.
// Test instrumentation: lifecycle tests park a worker here to make
// queue-full and drain timing deterministic.
var checkHook func(*job)

// startWorkers launches the pool; each worker exits when the queue is
// closed and empty (Drain).
func (s *Server) startWorkers() {
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.inflight.Add(1)
				s.runJob(j)
				s.inflight.Add(-1)
			}
		}()
	}
}

// InternalError is the outcome of a job whose check panicked: a defect
// in the checker, not a property of the submission. The job fails with
// this error, the panic is counted in kissd_jobs_panicked_total, and the
// worker goes on to the next job. It is never cached, so a resubmission
// runs the check again.
type InternalError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking worker's stack
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error: check panicked: %v", e.Value)
}

// runJob executes one check and publishes the outcome: result into the
// job (waking sync waiters), wire form into the cache, counters and
// phase timings into the metrics registry. A panic anywhere in the check
// fails only this job, as an InternalError.
func (s *Server) runJob(j *job) {
	j.setRunning()
	defer j.cancel() // release the deadline timer
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		ie := &InternalError{Value: v, Stack: debug.Stack()}
		s.jobsPanicked.Inc()
		fmt.Fprintf(os.Stderr, "kissd: job %s: %v\n%s", j.id, ie, ie.Stack)
		select {
		case <-j.done: // the panic came after the job was published
		default:
			j.finish(nil, ie.Error())
		}
	}()
	if hook := checkHook; hook != nil {
		hook(j)
	}

	res, err := j.cfg.Check(j.prog)
	if err != nil {
		// A pipeline error (the transformation rejecting the program,
		// compilation failing) — a property of the submission, reported
		// on the job, not a server failure.
		s.jobsFailed.Inc()
		j.finish(nil, err.Error())
		return
	}

	wres := wireResult(res)
	// Deadline/cancellation trims the explored space, so a partial
	// result is NOT the answer to the (source, config) problem — only
	// completed verdicts are cacheable. Budget-tripped results (states/
	// steps) ARE deterministic for the config and cache fine.
	reason := res.Stats.Reason
	if reason != kiss.ReasonDeadline && reason != kiss.ReasonCanceled {
		s.cache.put(j.key, wres)
	}

	s.observe(res)
	j.finish(wres, "")
	s.jobsDone.Add(1)
}

// observe folds one completed check into the fleet metrics.
func (s *Server) observe(res *kiss.Result) {
	if c, ok := s.outcomes[res.Verdict.String()]; ok {
		c.Inc()
	}
	s.statesTotal.Add(float64(res.States))
	s.stepsTotal.Add(float64(res.Steps))
	if mem := res.Stats.Memory; mem != nil {
		s.spilledBytes.Add(float64(mem.SpilledBytes))
		s.spilledFrames.Add(float64(mem.SpilledFrames))
		s.spilledRuns.Add(float64(mem.SpilledRuns))
		s.mergePasses.Add(float64(mem.MergePasses))
		s.visitedFPs.Add(float64(mem.VisitedFalsePositives))
	}
	s.phaseParse.Observe(res.Stats.Phases.Parse.Seconds())
	s.phaseTransform.Observe(res.Stats.Phases.Transform.Seconds())
	s.phaseCheck.Observe(res.Stats.Phases.Check.Seconds())
}

// registerMetrics populates the registry with the service fleet metrics:
// queue and worker gauges, job outcome counters, cache counters and hit
// ratio, per-phase wall-time histograms, and fleet-wide states/sec.
func (s *Server) registerMetrics() {
	r := s.reg
	r.GaugeFunc("kissd_queue_depth", "Jobs waiting in the admission queue.", nil,
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("kissd_queue_capacity", "Admission queue capacity.", nil,
		func() float64 { return float64(cap(s.queue)) })
	r.GaugeFunc("kissd_inflight_jobs", "Jobs currently being checked.", nil,
		func() float64 { return float64(s.inflight.Load()) })
	r.GaugeFunc("kissd_workers", "Scheduler worker-pool size.", nil,
		func() float64 { return float64(s.cfg.Workers) })

	s.outcomes = map[string]*stats.Counter{}
	for _, outcome := range []string{"safe", "error", "resource-bound"} {
		s.outcomes[outcome] = r.Counter("kissd_jobs_total",
			"Completed jobs by verdict.", map[string]string{"outcome": outcome})
	}
	s.jobsFailed = r.Counter("kissd_jobs_total",
		"Completed jobs by verdict.", map[string]string{"outcome": "failed"})
	s.jobsPanicked = r.Counter("kissd_jobs_panicked_total",
		"Jobs whose check panicked, failed with an internal error.", nil)
	s.jobsRejected = r.Counter("kissd_rejected_total",
		"Submissions rejected with 429 because the queue was full.", nil)

	r.CounterFunc("kissd_cache_hits_total", "Result-cache hits.", nil,
		func() float64 { return float64(s.cache.hits.Load()) })
	r.CounterFunc("kissd_cache_misses_total", "Result-cache misses.", nil,
		func() float64 { return float64(s.cache.misses.Load()) })
	r.CounterFunc("kissd_cache_evictions_total", "Result-cache LRU evictions.", nil,
		func() float64 { return float64(s.cache.evictions.Load()) })
	r.GaugeFunc("kissd_cache_bytes", "Bytes held by the result cache.", nil,
		func() float64 { return float64(s.cache.stats().Bytes) })
	r.GaugeFunc("kissd_cache_entries", "Entries in the result cache.", nil,
		func() float64 { return float64(s.cache.stats().Entries) })
	r.GaugeFunc("kissd_cache_hit_ratio", "Lifetime cache hits / lookups.", nil,
		s.cache.hitRatio)

	s.statesTotal = r.Counter("kissd_states_total",
		"States stored across all completed checks.", nil)
	s.stepsTotal = r.Counter("kissd_steps_total",
		"Transitions executed across all completed checks.", nil)
	s.spilledBytes = r.Counter("kissd_spilled_bytes_total",
		"Frontier frame bytes spilled to sorted disk runs under the memory budget.", nil)
	s.spilledFrames = r.Counter("kissd_spilled_frames_total",
		"Frontier frames spilled to disk under the memory budget.", nil)
	s.spilledRuns = r.Counter("kissd_spilled_runs_total",
		"Sorted on-disk runs written by budgeted frontiers.", nil)
	s.mergePasses = r.Counter("kissd_merge_passes_total",
		"K-way merge passes streaming spilled runs back into dequeue order.", nil)
	s.visitedFPs = r.Counter("kissd_visited_false_positives_total",
		"Compact visited-set false positives observed by audited checks.", nil)
	s.phaseParse = r.Histogram("kissd_phase_seconds", "Per-phase wall time of completed checks.",
		map[string]string{"phase": "parse"}, nil)
	s.phaseTransform = r.Histogram("kissd_phase_seconds", "Per-phase wall time of completed checks.",
		map[string]string{"phase": "transform"}, nil)
	s.phaseCheck = r.Histogram("kissd_phase_seconds", "Per-phase wall time of completed checks.",
		map[string]string{"phase": "check"}, nil)
	r.GaugeFunc("kissd_states_per_sec", "Fleet-wide average states/sec (states total / check seconds total).", nil,
		func() float64 {
			if secs := s.phaseCheck.Sum(); secs > 0 {
				return s.statesTotal.Value() / secs
			}
			return 0
		})
}
