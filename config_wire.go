package kiss

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// This file gives Config a stable JSON wire format, the single encoding
// shared by the kissd HTTP API (internal/service wire requests) and the
// content-addressed result cache (the config half of the cache key). The
// format is defined once, here, next to the functional options it
// mirrors, so the two can't drift: every serializable Config knob appears
// in wireConfig with a fixed snake_case name, and the golden test in
// config_wire_test.go pins the rendered bytes.
//
// The runtime-only fields — Context and Progress — are deliberately
// absent: they parameterize *how* a check runs (who is watching, when it
// may be interrupted), never *what* it computes, so they have no business
// in a wire request or a cache key.
//
// Every payload leads with an explicit version field "v". The format was
// frozen as v1 together with the service envelope (internal/service) and
// the Go API (DESIGN.md, "the v1 API freeze"): a payload without a
// version, or with one this build does not speak, fails fast with a
// *WireVersionError instead of being half-understood.

// WireV is the wire-format version this build speaks, carried in the "v"
// field of every Config payload and service envelope. Distributed result
// reuse (kissd's cache, kiss-coord's peer lookup) is only sound when both
// sides agree byte-for-byte on what a payload means, so version skew is a
// hard decode error, never a best-effort parse.
const WireV = 1

// WireVersionError reports a wire payload whose "v" field is missing
// (Got == 0) or names a version this build does not speak. It is the
// typed form callers match with errors.As to distinguish version skew
// from malformed JSON.
type WireVersionError struct {
	What string // which payload failed: "config", "check request", ...
	Got  int
}

func (e *WireVersionError) Error() string {
	if e.Got == 0 {
		return fmt.Sprintf("kiss: %s is missing the wire version field \"v\" (this build speaks v%d)", e.What, WireV)
	}
	return fmt.Sprintf("kiss: %s wire version %d is not supported (this build speaks v%d)", e.What, e.Got, WireV)
}

// CheckWireV validates a decoded "v" field, returning a *WireVersionError
// naming the payload on mismatch. internal/service uses it for the
// request/response envelopes; Config.UnmarshalJSON uses it for configs.
func CheckWireV(what string, v int) error {
	if v != WireV {
		return &WireVersionError{What: what, Got: v}
	}
	return nil
}

// wireConfig is the serialized shape of Config. Field order is the
// canonical order; tags are the canonical names.
type wireConfig struct {
	V     int `json:"v"`
	MaxTS int `json:"max_ts"`
	// The Retired* fields are the knobs of deleted mechanisms: the
	// alias-elision ablation switch (disable_alias_elision, now only an
	// internal/kiss transform option), the fold memo (disable_fold_memo,
	// memo_mb), the call-summary table (disable_call_summaries,
	// summary_mb) and the visited-set shard count (num_shards). Decoding
	// accepts and ignores them and encoding always renders false/0, so
	// older payloads still decode and every cache key keeps its bytes.
	RetiredAliasElision bool            `json:"disable_alias_elision"`
	Scheduler           string          `json:"scheduler"`
	RaceTarget          *wireRaceTarget `json:"race_target,omitempty"`
	Summaries           bool            `json:"summaries"`
	MaxStates           int             `json:"max_states"`
	MaxSteps            int             `json:"max_steps"`
	MaxDepth            int             `json:"max_depth"`
	BFS                 bool            `json:"bfs"`
	DisableMacroSteps   bool            `json:"disable_macro_steps"`
	RetiredFoldMemo     bool            `json:"disable_fold_memo"`
	RetiredMemoMB       int             `json:"memo_mb"`
	RetiredCallSum      bool            `json:"disable_call_summaries"`
	RetiredSummaryMB    int             `json:"summary_mb"`
	SearchWorkers       int             `json:"search_workers"`
	RetiredShards       int             `json:"num_shards"`
	ContextBound        int             `json:"context_bound"`
	// The memory-budget knobs are omitempty: payloads and cache keys
	// written before they existed decode and re-render byte-identically,
	// so the v1 freeze holds without a version bump.
	VisitedMode string `json:"visited_mode,omitempty"`
	MemBudgetMB int    `json:"mem_budget_mb,omitempty"`
	// The sequentialization knobs follow the same omitempty tail-field
	// discipline: the default mode ("", meaning kiss) renders no bytes,
	// so pre-CB payloads and cache keys are untouched, while cb-mode
	// configs — which compute a different result — render distinct bytes
	// and get distinct cache keys.
	Sequentialization string `json:"sequentialization,omitempty"`
	ContextSwitches   int    `json:"context_switches,omitempty"`
}

type wireRaceTarget struct {
	Global string `json:"global,omitempty"`
	Record string `json:"record,omitempty"`
	Field  string `json:"field,omitempty"`
}

// schedulerNames maps the Scheduler enum to its stable wire spelling
// (the same strings Scheduler.String renders).
var schedulerNames = map[Scheduler]string{
	SchedulerNondet:      "nondet",
	SchedulerDrainAll:    "drain-all",
	SchedulerAtCallsOnly: "at-calls-only",
}

func parseScheduler(s string) (Scheduler, error) {
	for sched, name := range schedulerNames {
		if name == s {
			return sched, nil
		}
	}
	return 0, fmt.Errorf("kiss: unknown scheduler %q", s)
}

// MarshalJSON renders the serializable Config knobs in the stable wire
// format. The runtime-only fields (Context, Progress) are dropped;
// schedulers render by name.
func (c *Config) MarshalJSON() ([]byte, error) {
	name, ok := schedulerNames[c.Scheduler]
	if !ok {
		return nil, fmt.Errorf("kiss: cannot marshal unknown scheduler %d", int(c.Scheduler))
	}
	w := wireConfig{
		V:                 WireV,
		MaxTS:             c.MaxTS,
		Scheduler:         name,
		Summaries:         c.Summaries,
		MaxStates:         c.MaxStates,
		MaxSteps:          c.MaxSteps,
		MaxDepth:          c.MaxDepth,
		BFS:               c.BFS,
		DisableMacroSteps: c.DisableMacroSteps,
		SearchWorkers:     c.SearchWorkers,
		ContextBound:      c.ContextBound,
		VisitedMode:       c.VisitedMode,
		MemBudgetMB:       c.MemBudgetMB,
		Sequentialization: c.Sequentialization,
		ContextSwitches:   c.ContextSwitches,
	}
	if c.RaceTarget != nil {
		w.RaceTarget = &wireRaceTarget{
			Global: c.RaceTarget.Global,
			Record: c.RaceTarget.Record,
			Field:  c.RaceTarget.Field,
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire format back into a Config. Unknown
// fields are rejected — a wire request naming a knob this build doesn't
// know about is a version skew the caller must hear about, not a silent
// no-op — and the "v" field must name a version this build speaks: a
// missing or unknown version fails with a *WireVersionError before any
// knob is interpreted. An absent scheduler means the paper's
// nondeterministic default.
func (c *Config) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wireConfig
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("kiss: decoding config: %w", err)
	}
	if err := CheckWireV("config", w.V); err != nil {
		return err
	}
	sched := SchedulerNondet
	if w.Scheduler != "" {
		var err error
		if sched, err = parseScheduler(w.Scheduler); err != nil {
			return err
		}
	}
	switch w.VisitedMode {
	case "", VisitedExact, VisitedCompact:
	default:
		return fmt.Errorf("kiss: unknown visited mode %q", w.VisitedMode)
	}
	switch w.Sequentialization {
	case "", SeqKISS, SeqCB:
	default:
		return fmt.Errorf("kiss: unknown sequentialization %q", w.Sequentialization)
	}
	if w.ContextSwitches < 0 {
		return fmt.Errorf("kiss: negative context-switch bound %d", w.ContextSwitches)
	}
	*c = Config{
		MaxTS:             w.MaxTS,
		Scheduler:         sched,
		Summaries:         w.Summaries,
		MaxStates:         w.MaxStates,
		MaxSteps:          w.MaxSteps,
		MaxDepth:          w.MaxDepth,
		BFS:               w.BFS,
		DisableMacroSteps: w.DisableMacroSteps,
		SearchWorkers:     w.SearchWorkers,
		ContextBound:      w.ContextBound,
		VisitedMode:       w.VisitedMode,
		MemBudgetMB:       w.MemBudgetMB,
		Sequentialization: w.Sequentialization,
		ContextSwitches:   w.ContextSwitches,
	}
	if w.RaceTarget != nil {
		c.RaceTarget = &RaceTarget{
			Global: w.RaceTarget.Global,
			Record: w.RaceTarget.Record,
			Field:  w.RaceTarget.Field,
		}
	}
	return nil
}

// Normalized returns a copy of the Config reduced to the knobs that
// determine a Check result. Two configs with equal Normalized forms are
// guaranteed to produce identical Check outcomes on the same program, so
// the normalized form is what a result cache may key on. Dropped fields:
//
//   - Context, Progress: runtime plumbing, invisible to the verdict.
//   - SearchWorkers, folded into BFS: 0 runs the depth-first search and
//     every count >= 1 the breadth-first level engine, whose results are
//     identical at every worker count and to BFS at 0 workers
//     (property-tested in internal/concheck, at context bound 0 too), so
//     a count >= 1 is kept as BFS set and the count itself only moves
//     wall clock and the scheduling-dependent Stats.Parallel diagnostics.
//   - ContextBound: consulted only by Explore, ignored by Check.
//   - MemBudgetMB, except under VisitedCompact: frontier spilling is
//     bit-identical (eviction only, property-tested in internal/concheck),
//     but the budget also sizes the compact filter, whose false positives
//     are part of the result.
//
// Everything else — the transformation knobs, the engine selection, the
// budgets, BFS, and macro-step compression (which changes the stored-state
// counters a Result reports) — is kept. The sequentialization mode is
// verdict-affecting and is kept, in canonical spelling: "kiss" reduces to
// "" (they select the same transform), ContextSwitches is zeroed under
// KISS (ignored there) and defaulted under cb, and the KISS-only
// transform knobs (MaxTS, Scheduler) are zeroed under cb, which never
// consults them — so configs that must compute the same result render the
// same bytes.
func (c *Config) Normalized() Config {
	n := *c
	if n.Sequentialization == SeqKISS {
		n.Sequentialization = ""
	}
	if n.Sequentialization == SeqCB {
		n.ContextSwitches = n.EffectiveContextSwitches()
		n.MaxTS = 0
		n.Scheduler = SchedulerNondet
	} else {
		n.ContextSwitches = 0
	}
	n.Context = nil
	n.Progress = nil
	if n.SearchWorkers >= 1 {
		n.BFS = true
	}
	n.SearchWorkers = 0
	n.ContextBound = 0
	if n.VisitedMode != VisitedCompact {
		n.MemBudgetMB = 0
	}
	if n.RaceTarget != nil {
		// Detach the pointer so the normalized copy shares no storage.
		t := *n.RaceTarget
		n.RaceTarget = &t
	}
	return n
}

// CanonicalJSON renders the normalized config as the canonical byte
// sequence used in cache keys: fixed field order, fixed names, runtime
// and result-invariant knobs stripped. Configs that must produce the
// same Check result render to the same bytes.
func (c *Config) CanonicalJSON() ([]byte, error) {
	n := c.Normalized()
	return n.MarshalJSON()
}
