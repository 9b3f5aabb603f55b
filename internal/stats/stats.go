// Package stats is the observability layer of the checker core: per-phase
// wall-clock timing, search-loop metrics (states/sec, peak frontier and
// depth, visited-set size, fingerprint-audit collisions), the Reason enum
// naming which resource bound ended a search early, and a pluggable
// progress-event hook fired on a state-count or time cadence so long
// corpus runs stream liveness instead of going silent.
//
// The package sits below the public facade: the explicit-state model
// checker (internal/concheck) and the summary engine (internal/boolcheck)
// accept a *Collector and sample into it from their search loops; the facade assembles the final Stats record carried on
// kiss.Result, and cmd/kissbench serializes it per corpus entry under
// -json. A nil *Collector is valid everywhere and costs one predictable
// branch per sample, so the hot paths need no conditional plumbing.
package stats

import (
	"encoding/json"
	"fmt"
	"time"
)

// Phase identifies one stage of the KISS pipeline for wall-time accounting.
type Phase int

const (
	// PhaseParse: source text -> checked, lowered core form.
	PhaseParse Phase = iota
	// PhaseTransform: the Figure 4/5 sequentializing translation.
	PhaseTransform
	// PhaseCheck: compilation + model checking of the sequential program.
	PhaseCheck
	// PhaseReplay: guided replay of a reconstructed schedule (CertifyTrace).
	PhaseReplay
	// NumPhases is the number of distinct phases.
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseParse:
		return "parse"
	case PhaseTransform:
		return "transform"
	case PhaseCheck:
		return "check"
	case PhaseReplay:
		return "replay"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// MarshalJSON renders the phase by name.
func (p Phase) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// Reason names the specific resource bound that ended a search early. It
// refines the checkers' ResourceBound verdict: the paper's Table 1 lumps
// every early stop into "timeout", but tuning the budget/coverage trade-off
// requires knowing *which* budget tripped.
type Reason int

const (
	// ReasonNone: the search ran to completion (Safe or Error verdict).
	ReasonNone Reason = iota
	// ReasonStates: the distinct-state budget (MaxStates) was exhausted.
	ReasonStates
	// ReasonSteps: the transition budget (MaxSteps) was exhausted.
	ReasonSteps
	// ReasonDeadline: the context's deadline expired mid-search.
	ReasonDeadline
	// ReasonCanceled: the context was canceled mid-search; the result is a
	// consistent partial result, not an error.
	ReasonCanceled
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonStates:
		return "max-states"
	case ReasonSteps:
		return "max-steps"
	case ReasonDeadline:
		return "deadline"
	case ReasonCanceled:
		return "canceled"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// MarshalJSON renders the reason by name; ReasonNone renders as "".
func (r Reason) MarshalJSON() ([]byte, error) {
	if r == ReasonNone {
		return json.Marshal("")
	}
	return json.Marshal(r.String())
}

// UnmarshalJSON parses the name form back (the inverse of MarshalJSON),
// so Stats records round-trip over the kissd wire protocol. "" and
// "none" both decode to ReasonNone.
func (r *Reason) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "", "none":
		*r = ReasonNone
	case "max-states":
		*r = ReasonStates
	case "max-steps":
		*r = ReasonSteps
	case "deadline":
		*r = ReasonDeadline
	case "canceled":
		*r = ReasonCanceled
	default:
		return fmt.Errorf("stats: unknown reason %q", s)
	}
	return nil
}

// PhaseTimes records wall-clock duration per pipeline phase.
type PhaseTimes struct {
	Parse     time.Duration
	Transform time.Duration
	Check     time.Duration
	Replay    time.Duration
}

// Total is the summed wall time across phases.
func (pt PhaseTimes) Total() time.Duration {
	return pt.Parse + pt.Transform + pt.Check + pt.Replay
}

// of returns the addressable slot for phase p (nil for out-of-range).
func (pt *PhaseTimes) of(p Phase) *time.Duration {
	switch p {
	case PhaseParse:
		return &pt.Parse
	case PhaseTransform:
		return &pt.Transform
	case PhaseCheck:
		return &pt.Check
	case PhaseReplay:
		return &pt.Replay
	}
	return nil
}

// MarshalJSON renders phase times as seconds, which is the unit the
// paper's tables report ("Time(s)").
func (pt PhaseTimes) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Parse     float64 `json:"parse_s"`
		Transform float64 `json:"transform_s"`
		Check     float64 `json:"check_s"`
		Replay    float64 `json:"replay_s"`
		Total     float64 `json:"total_s"`
	}{
		Parse:     pt.Parse.Seconds(),
		Transform: pt.Transform.Seconds(),
		Check:     pt.Check.Seconds(),
		Replay:    pt.Replay.Seconds(),
		Total:     pt.Total().Seconds(),
	})
}

// UnmarshalJSON parses the seconds form back into durations (the
// inverse of MarshalJSON, modulo sub-nanosecond float rounding), so
// Stats records survive the kissd wire protocol and cached results
// report the phase times of the run that produced them.
func (pt *PhaseTimes) UnmarshalJSON(data []byte) error {
	var w struct {
		Parse     float64 `json:"parse_s"`
		Transform float64 `json:"transform_s"`
		Check     float64 `json:"check_s"`
		Replay    float64 `json:"replay_s"`
		Total     float64 `json:"total_s"` // derived; ignored on decode
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	pt.Parse = secs(w.Parse)
	pt.Transform = secs(w.Transform)
	pt.Check = secs(w.Check)
	pt.Replay = secs(w.Replay)
	return nil
}

// Stats is the unified metrics record for one check run. The search
// metrics (states, steps, peaks, visited, collisions, reason) are
// deterministic for a given program and budget; the timing metrics
// (Phases, StatesPerSec) are wall-clock-dependent — determinism tests
// compare records after StripTiming.
type Stats struct {
	// States and Steps are distinct-state and executed-transition counts.
	// States counts *stored* states: under macro-step compression the
	// search keeps only decision-point states.
	States int `json:"states"`
	Steps  int `json:"steps"`
	// StatesStepped counts the states the search traversed, including the
	// intermediate states of folded deterministic runs that macro-step
	// compression never stored. Equal to States when compression is off.
	StatesStepped int `json:"states_stepped"`
	// CompressionRatio is StatesStepped / States — how many traversed
	// states each stored state stands for (1 with compression off). Both
	// inputs are deterministic, so StripTiming keeps it.
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	// Visited is the final visited-set size (hash-distinct states).
	Visited int `json:"visited"`
	// PeakFrontier is the high-water mark of the search frontier (DFS
	// stack or BFS queue length).
	PeakFrontier int `json:"peak_frontier"`
	// PeakDepth is the deepest trace length reached.
	PeakDepth int `json:"peak_depth"`
	// HashCollisions counts audited fingerprint collisions
	// (AuditFingerprints runs only).
	HashCollisions int `json:"hash_collisions,omitempty"`
	// Reason names the bound that ended the search early (ReasonNone when
	// the verdict is Safe or Error).
	Reason Reason `json:"reason,omitempty"`
	// Phases is per-phase wall time; StatesPerSec is States over the
	// check-phase wall time.
	Phases       PhaseTimes `json:"phases"`
	StatesPerSec float64    `json:"states_per_sec"`
	// Parallel carries the parallel-search diagnostics (nil for
	// sequential searches).
	Parallel *Parallel `json:"parallel,omitempty"`
	// Memory carries the memory-bounded search diagnostics (nil when
	// neither the spilling frontier nor the compact visited set engaged).
	Memory *Memory `json:"memory,omitempty"`
}

// Memory reports the memory-bounded search layer: the compact visited
// set's load and the spilling frontier's disk traffic. Every field is
// deterministic for a fixed configuration — spill decisions and filter
// inserts happen on the searches' single-threaded commit paths in commit
// order — but the record describes a *memory policy*, not the verdict,
// so StripTiming drops it along with the other diagnostics when results
// are compared across configurations.
type Memory struct {
	// VisitedMode is "exact" or "compact".
	VisitedMode string `json:"visited_mode"`
	// VisitedBytes is the compact filter's allocated size (0 in exact
	// mode); VisitedOccupancy the fraction of its bits set; VisitedFPRate
	// the estimated false-positive probability of the next lookup at that
	// occupancy.
	VisitedBytes     int64   `json:"visited_bytes,omitempty"`
	VisitedOccupancy float64 `json:"visited_occupancy,omitempty"`
	VisitedFPRate    float64 `json:"visited_fp_rate,omitempty"`
	// VisitedFalsePositives counts measured false positives against the
	// shadow exact set (runs with concheck's AuditVisited test hook only).
	VisitedFalsePositives int64 `json:"visited_false_positives,omitempty"`
	// SpillBudgetBytes is the frontier's configured in-RAM budget (0 when
	// spilling is disabled); the remaining fields are the frontier's
	// cumulative disk traffic and resident high-water mark.
	SpillBudgetBytes int64 `json:"spill_budget_bytes,omitempty"`
	SpilledBytes     int64 `json:"spilled_bytes,omitempty"`
	SpilledFrames    int64 `json:"spilled_frames,omitempty"`
	SpilledRuns      int64 `json:"spilled_runs,omitempty"`
	FrontierPeakRAM  int64 `json:"frontier_peak_ram,omitempty"`
}

// Parallel reports the diagnostics of a multi-worker frontier search:
// how the work spread over the workers and how hard they fought over the
// sharded visited set. The verdict and the search metrics above are
// deterministic across worker counts; the per-worker attribution and the
// contention counter are scheduling-dependent, so StripTiming drops the
// whole record.
type Parallel struct {
	// Workers is the worker-pool size the search ran with.
	Workers int `json:"workers"`
	// Shards is the visited-set shard count.
	Shards int `json:"shards"`
	// PerWorkerStates counts the fresh states each worker discovered —
	// a load-balance diagnostic (scheduling-dependent).
	PerWorkerStates []int `json:"per_worker_states"`
	// ShardContention counts visited-set probes that found their shard
	// lock held by another worker.
	ShardContention int64 `json:"shard_contention"`
}

// StripTiming zeroes the wall-clock-dependent fields, leaving only the
// deterministic search metrics. Determinism tests (same corpus, different
// worker counts or a rerun after cancellation) compare stripped records.
func (s *Stats) StripTiming() {
	s.Phases = PhaseTimes{}
	s.StatesPerSec = 0
	s.Parallel = nil
	s.Memory = nil
}

// BoundName renders the tripped bound for human-readable results; a zero
// Reason (results built before the bound tracking, or by hand) falls back
// to the generic word. Both checkers and the facade share this spelling.
func BoundName(r Reason) string {
	if r == ReasonNone {
		return "budget"
	}
	return r.String()
}

// Event is one progress sample delivered to a registered hook. Events
// stream from inside the search loop on the configured cadence; a final
// event (Final=true) fires when the check phase completes, so a hook is
// guaranteed at least one event per run.
type Event struct {
	// Phase is the pipeline stage the sample was taken in (always
	// PhaseCheck for cadence events).
	Phase Phase
	// Elapsed is wall time since the check phase began.
	Elapsed time.Duration
	// Search counters at sample time.
	States   int
	Steps    int
	Frontier int
	Depth    int
	Visited  int
	// StatesPerSec is the average rate since the check phase began.
	StatesPerSec float64
	// Final marks the event fired at phase completion.
	Final bool
}

// Default progress cadence: whichever of the two thresholds trips first.
const (
	DefaultEveryStates = 25000
	DefaultEvery       = 250 * time.Millisecond
)

// timeCheckStride bounds how often Sample consults the wall clock: the
// time-based cadence is only evaluated every this many samples, keeping
// time.Now out of the per-state hot path.
const timeCheckStride = 4096

// Collector accumulates per-phase wall times and streams progress events.
// A nil *Collector is valid: every method is a no-op, so checkers sample
// unconditionally. A Collector instruments a single run and is not safe
// for concurrent use; corpus runners create one per field check.
type Collector struct {
	progress    func(Event)
	everyStates int
	every       time.Duration

	phases  PhaseTimes
	started [NumPhases]time.Time

	checkStart time.Time
	nextStates int
	sinceTime  int
	nextTime   time.Time
}

// NewCollector builds a collector delivering progress events to hook (nil
// for timing-only collection) on the given cadence: an event fires when
// the state count grows by everyStates or when every elapses, whichever
// comes first. Non-positive cadence values fall back to DefaultEveryStates
// and DefaultEvery, which is all kiss.Config uses; the tests of the
// searches pass a tighter cadence to see events on small state spaces.
func NewCollector(hook func(Event), everyStates int, every time.Duration) *Collector {
	if everyStates <= 0 {
		everyStates = DefaultEveryStates
	}
	if every <= 0 {
		every = DefaultEvery
	}
	return &Collector{progress: hook, everyStates: everyStates, every: every}
}

// Start begins timing phase p. Starting PhaseCheck also resets the
// progress cadence.
func (c *Collector) Start(p Phase) {
	if c == nil {
		return
	}
	now := time.Now()
	c.started[p] = now
	if p == PhaseCheck {
		c.checkStart = now
		c.nextStates = c.everyStates
		c.sinceTime = 0
		c.nextTime = now.Add(c.every)
	}
}

// End records the elapsed wall time for phase p (accumulating across
// repeated Start/End pairs).
func (c *Collector) End(p Phase) {
	if c == nil {
		return
	}
	if slot := c.phases.of(p); slot != nil && !c.started[p].IsZero() {
		*slot += time.Since(c.started[p])
		c.started[p] = time.Time{}
	}
}

// AddPhase accumulates an externally measured duration into phase p (used
// when the phase ran outside the collector's lifetime, e.g. parse time
// recorded on the Program before a Config was built).
func (c *Collector) AddPhase(p Phase, d time.Duration) {
	if c == nil {
		return
	}
	if slot := c.phases.of(p); slot != nil {
		*slot += d
	}
}

// Sample is the search loop's per-iteration probe. It fires a progress
// event when the state-count or time cadence has been reached. The fast
// path (no event due) is a few integer compares.
func (c *Collector) Sample(states, steps, frontier, depth, visited int) {
	if c == nil || c.progress == nil {
		return
	}
	due := states >= c.nextStates
	if !due {
		if c.sinceTime++; c.sinceTime < timeCheckStride {
			return
		}
		c.sinceTime = 0
		due = time.Now().After(c.nextTime)
		if !due {
			return
		}
	}
	c.emit(states, steps, frontier, depth, visited, false)
}

// emit fires one progress event and advances both cadences.
func (c *Collector) emit(states, steps, frontier, depth, visited int, final bool) {
	now := time.Now()
	elapsed := now.Sub(c.checkStart)
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(states) / secs
	}
	c.nextStates = states + c.everyStates
	c.sinceTime = 0
	c.nextTime = now.Add(c.every)
	c.progress(Event{
		Phase:        PhaseCheck,
		Elapsed:      elapsed,
		States:       states,
		Steps:        steps,
		Frontier:     frontier,
		Depth:        depth,
		Visited:      visited,
		StatesPerSec: rate,
		Final:        final,
	})
}

// Finalize copies the collector's phase times into s, derives
// StatesPerSec from the check-phase wall time, and — when a progress hook
// is registered — fires the final event carrying s's counters. Call it
// after End(PhaseCheck) with the search counters already filled in.
func (c *Collector) Finalize(s *Stats) {
	if c == nil {
		return
	}
	s.Phases = c.phases
	if secs := c.phases.Check.Seconds(); secs > 0 {
		s.StatesPerSec = float64(s.States) / secs
	}
	if c.progress != nil {
		c.progress(Event{
			Phase:        PhaseCheck,
			Elapsed:      c.phases.Check,
			States:       s.States,
			Steps:        s.Steps,
			Visited:      s.Visited,
			Depth:        s.PeakDepth,
			StatesPerSec: s.StatesPerSec,
			Final:        true,
		})
	}
}
