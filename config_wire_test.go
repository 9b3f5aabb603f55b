package kiss_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	kiss "repro"
)

// TestConfigWireGolden pins the canonical wire rendering byte-for-byte.
// The kissd wire protocol and the content-addressed cache key both hang
// off this encoding: if this golden changes, every cached result keyed
// under the old bytes is invalidated and old clients speak a different
// dialect — so changing it must be a deliberate act, not a drive-by.
func TestConfigWireGolden(t *testing.T) {
	cfg := kiss.NewConfig(
		kiss.WithMaxTS(2),
		kiss.WithRaceTarget(kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: "stoppingFlag"}),
		kiss.WithMaxStates(40000),
		kiss.WithBFS(),
	)
	const golden = `{"v":1,"max_ts":2,"disable_alias_elision":false,"scheduler":"nondet",` +
		`"race_target":{"record":"DEVICE_EXTENSION","field":"stoppingFlag"},` +
		`"summaries":false,"max_states":40000,"max_steps":0,"max_depth":0,` +
		`"bfs":true,"disable_macro_steps":false,"disable_fold_memo":false,` +
		`"memo_mb":0,"disable_call_summaries":false,"summary_mb":0,` +
		`"search_workers":0,"num_shards":0,"context_bound":-1}`
	got, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Errorf("wire format drifted:\n got: %s\nwant: %s", got, golden)
	}
}

// TestConfigWireGoldenMemoryKnobs: the memory-budget knobs are omitempty
// tail fields — absent from the bytes when unset (so pre-existing cache
// keys survive their introduction), pinned here when set.
func TestConfigWireGoldenMemoryKnobs(t *testing.T) {
	cfg := kiss.NewConfig(
		kiss.WithVisitedMode(kiss.VisitedCompact),
		kiss.WithMemBudgetMB(256),
	)
	const golden = `{"v":1,"max_ts":0,"disable_alias_elision":false,"scheduler":"nondet",` +
		`"summaries":false,"max_states":0,"max_steps":0,"max_depth":0,` +
		`"bfs":false,"disable_macro_steps":false,"disable_fold_memo":false,` +
		`"memo_mb":0,"disable_call_summaries":false,"summary_mb":0,` +
		`"search_workers":0,"num_shards":0,"context_bound":-1,` +
		`"visited_mode":"compact","mem_budget_mb":256}`
	got, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Errorf("wire format drifted:\n got: %s\nwant: %s", got, golden)
	}
}

// TestConfigWireRoundTrip: marshal → unmarshal must reproduce every
// serializable knob, for both default and fully-populated configs.
func TestConfigWireRoundTrip(t *testing.T) {
	cases := []*kiss.Config{
		kiss.NewConfig(),
		kiss.NewConfig(
			kiss.WithMaxTS(3),
			kiss.WithScheduler(kiss.SchedulerDrainAll),
			kiss.WithoutAliasElision(),
			kiss.WithRaceTarget(kiss.RaceTarget{Global: "stopped"}),
			kiss.WithMaxStates(1000),
			kiss.WithMaxSteps(2000),
			kiss.WithMaxDepth(64),
			kiss.WithBFS(),
			kiss.WithMacroSteps(false),
			kiss.WithFoldMemo(false),
			kiss.WithMemoMB(16),
			kiss.WithSearchWorkers(8),
			kiss.WithContextBound(2),
		),
		kiss.NewConfig(kiss.WithSummaries(), kiss.WithScheduler(kiss.SchedulerAtCallsOnly)),
		kiss.NewConfig(kiss.WithVisitedMode(kiss.VisitedCompact), kiss.WithMemBudgetMB(128)),
	}
	for i, cfg := range cases {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var back kiss.Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		redata, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("case %d: re-marshal: %v", i, err)
		}
		if string(data) != string(redata) {
			t.Errorf("case %d: round trip drifted:\n first: %s\nsecond: %s", i, data, redata)
		}
	}
}

// TestConfigWireRetiredCallSummaryFields: the call-summary knobs are
// gone from Config, but v1 payloads written while they existed still
// carry them. They decode as no-ops and change neither the canonical
// form nor the rendered bytes, which always hold false/0.
func TestConfigWireRetiredCallSummaryFields(t *testing.T) {
	const with = `{"v":1,"max_states":500,"disable_call_summaries":true,"summary_mb":64}`
	const without = `{"v":1,"max_states":500}`
	var a, b kiss.Config
	if err := json.Unmarshal([]byte(with), &a); err != nil {
		t.Fatalf("payload with the retired fields rejected: %v", err)
	}
	if err := json.Unmarshal([]byte(without), &b); err != nil {
		t.Fatal(err)
	}
	ca, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Errorf("retired fields moved the canonical form:\n%s\n%s", ca, cb)
	}
	data, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"disable_call_summaries":false,"summary_mb":0`) {
		t.Errorf("retired fields not rendered as false/0: %s", data)
	}
}

// TestConfigWireRejectsUnknownFields: version skew must be loud.
func TestConfigWireRejectsUnknownFields(t *testing.T) {
	var cfg kiss.Config
	if err := json.Unmarshal([]byte(`{"v":1,"max_ts":1,"definitely_not_a_knob":true}`), &cfg); err == nil {
		t.Error("unknown wire field accepted silently")
	}
	if err := json.Unmarshal([]byte(`{"v":1,"scheduler":"round-robin"}`), &cfg); err == nil {
		t.Error("unknown scheduler name accepted silently")
	}
	if err := json.Unmarshal([]byte(`{"v":1,"visited_mode":"lossy"}`), &cfg); err == nil {
		t.Error("unknown visited mode accepted silently")
	}
}

// TestConfigWireVersion: the "v" field is mandatory and must name a
// version this build speaks; failures are the typed *WireVersionError so
// callers can tell version skew from plain JSON garbage.
func TestConfigWireVersion(t *testing.T) {
	var cfg kiss.Config
	var verr *kiss.WireVersionError

	err := json.Unmarshal([]byte(`{"max_ts":1}`), &cfg)
	if err == nil {
		t.Fatal("config without a version field accepted silently")
	}
	if !errors.As(err, &verr) || verr.Got != 0 {
		t.Errorf("missing version: got %v, want *WireVersionError{Got: 0}", err)
	}

	err = json.Unmarshal([]byte(`{"v":2,"max_ts":1}`), &cfg)
	if err == nil {
		t.Fatal("config with an unknown version accepted silently")
	}
	if !errors.As(err, &verr) || verr.Got != 2 {
		t.Errorf("unknown version: got %v, want *WireVersionError{Got: 2}", err)
	}

	// The happy path: an explicit v1 payload decodes.
	if err := json.Unmarshal([]byte(`{"v":1,"max_ts":1}`), &cfg); err != nil {
		t.Errorf("v1 payload rejected: %v", err)
	}
	if cfg.MaxTS != 1 {
		t.Errorf("v1 payload decoded MaxTS=%d, want 1", cfg.MaxTS)
	}
}

// TestConfigCanonicalJSONCarriesVersion: the cache key's config half is
// version-stamped, so a future v2 format can never collide with v1
// entries in a shared cache.
func TestConfigCanonicalJSONCarriesVersion(t *testing.T) {
	cj, err := kiss.NewConfig().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cj), `{"v":1,`) {
		t.Errorf("canonical form does not lead with the version: %s", cj)
	}
}

// TestConfigCanonicalJSONInvariance: configs differing only in
// result-invariant knobs (search workers, shards, runtime context,
// progress plumbing, Explore-only context bound) must share one
// canonical form — that is what lets a warm cache serve a -search-workers 8
// resubmission of a -search-workers 0 run.
func TestConfigCanonicalJSONInvariance(t *testing.T) {
	base := kiss.NewConfig(kiss.WithMaxStates(500))
	variant := kiss.NewConfig(
		kiss.WithMaxStates(500),
		kiss.WithSearchWorkers(8),
		kiss.WithContextBound(3),
		kiss.WithFoldMemo(false),
		kiss.WithMemoMB(16),
		kiss.WithProgress(func(kiss.Event) {}),
		kiss.WithProgressCadence(10, 0),
	)
	a, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := variant.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("result-invariant knobs leaked into the canonical form:\n%s\n%s", a, b)
	}

	// And a knob that does change the result must change the bytes.
	c, err := kiss.NewConfig(kiss.WithMaxStates(501)).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(c) {
		t.Error("different budgets share a canonical form")
	}
}

// TestConfigCanonicalJSONMemoryKnobs: under an exact visited set the
// memory budget only moves frontier frames between RAM and disk
// (bit-identical results), so it must not leak into the cache key; under
// a compact visited set it sizes the filter, whose false positives are
// part of the result, so it must.
func TestConfigCanonicalJSONMemoryKnobs(t *testing.T) {
	exact, err := kiss.NewConfig().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := kiss.NewConfig(
		kiss.WithMemBudgetMB(64),
		kiss.WithAuditVisited(),
	).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(exact) != string(budgeted) {
		t.Errorf("exact-mode budget or audit leaked into the canonical form:\n%s\n%s", exact, budgeted)
	}

	small, err := kiss.NewConfig(kiss.WithVisitedMode(kiss.VisitedCompact), kiss.WithMemBudgetMB(64)).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	large, err := kiss.NewConfig(kiss.WithVisitedMode(kiss.VisitedCompact), kiss.WithMemBudgetMB(128)).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(small) == string(large) {
		t.Error("compact-mode filter sizes share a canonical form")
	}
	if string(small) == string(exact) {
		t.Error("compact and exact visited modes share a canonical form")
	}
}

// TestConfigWireGoldenSequentialization: the sequentialization knobs are
// omitempty tail fields like the memory knobs — absent for the default
// (KISS) mode so every pre-CB payload and cache key survives their
// introduction byte-for-byte, pinned here when cb is selected.
func TestConfigWireGoldenSequentialization(t *testing.T) {
	cfg := kiss.NewConfig(
		kiss.WithSequentialization(kiss.SeqCB),
		kiss.WithContextSwitches(3),
	)
	const golden = `{"v":1,"max_ts":0,"disable_alias_elision":false,"scheduler":"nondet",` +
		`"summaries":false,"max_states":0,"max_steps":0,"max_depth":0,` +
		`"bfs":false,"disable_macro_steps":false,"disable_fold_memo":false,` +
		`"memo_mb":0,"disable_call_summaries":false,"summary_mb":0,` +
		`"search_workers":0,"num_shards":0,"context_bound":-1,` +
		`"sequentialization":"cb","context_switches":3}`
	got, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Errorf("wire format drifted:\n got: %s\nwant: %s", got, golden)
	}

	// Cache-key stability: a default-mode config must render the exact
	// bytes it rendered before the sequentialization knobs existed.
	const preCB = `{"v":1,"max_ts":0,"disable_alias_elision":false,"scheduler":"nondet",` +
		`"summaries":false,"max_states":0,"max_steps":0,"max_depth":0,` +
		`"bfs":false,"disable_macro_steps":false,"disable_fold_memo":false,` +
		`"memo_mb":0,"disable_call_summaries":false,"summary_mb":0,` +
		`"search_workers":0,"num_shards":0,"context_bound":-1}`
	got, err = json.Marshal(kiss.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != preCB {
		t.Errorf("default-mode bytes drifted from the pre-CB payload:\n got: %s\nwant: %s", got, preCB)
	}
}

// TestConfigWireSequentializationRoundTrip: the new knobs survive a
// marshal/unmarshal cycle, and a v1 payload carrying them decodes on
// this build (DisallowUnknownFields peers reject it only when the
// version is wrong, not because the field is new).
func TestConfigWireSequentializationRoundTrip(t *testing.T) {
	cfg := kiss.NewConfig(
		kiss.WithSequentialization(kiss.SeqCB),
		kiss.WithContextSwitches(4),
		kiss.WithMaxStates(500),
	)
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back kiss.Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Sequentialization != kiss.SeqCB || back.ContextSwitches != 4 {
		t.Errorf("round trip lost the sequentialization knobs: %+v", back)
	}

	// Same payload with a wrong version: rejected as version skew, not
	// as an unknown field.
	skew := []byte(`{"v":2,"sequentialization":"cb","context_switches":4}`)
	var verr *kiss.WireVersionError
	if err := json.Unmarshal(skew, &back); !errors.As(err, &verr) || verr.Got != 2 {
		t.Errorf("versioned-wrong cb payload: got %v, want *WireVersionError{Got: 2}", err)
	}

	// Invalid values are rejected with knob-specific errors.
	if err := json.Unmarshal([]byte(`{"v":1,"sequentialization":"rr"}`), &back); err == nil {
		t.Error("unknown sequentialization accepted silently")
	}
	if err := json.Unmarshal([]byte(`{"v":1,"context_switches":-1}`), &back); err == nil {
		t.Error("negative context-switch bound accepted silently")
	}
}

// TestConfigCanonicalJSONSequentialization: the mode is verdict-affecting
// and must split cache keys; its spelling and ignored side knobs must
// not.
func TestConfigCanonicalJSONSequentialization(t *testing.T) {
	canon := func(c *kiss.Config) string {
		t.Helper()
		b, err := c.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	def := canon(kiss.NewConfig())
	explicitKiss := canon(kiss.NewConfig(kiss.WithSequentialization(kiss.SeqKISS)))
	if def != explicitKiss {
		t.Error("explicit kiss mode and default mode render different canonical forms")
	}
	kissWithK := canon(kiss.NewConfig(kiss.WithContextSwitches(3)))
	if def != kissWithK {
		t.Error("ContextSwitches split the canonical form under KISS, which ignores it")
	}

	cb := canon(kiss.NewConfig(kiss.WithSequentialization(kiss.SeqCB)))
	if cb == def {
		t.Error("cb mode shares the default's canonical form; its verdicts differ")
	}
	cbDefaultK := canon(kiss.NewConfig(
		kiss.WithSequentialization(kiss.SeqCB),
		kiss.WithContextSwitches(kiss.DefaultContextSwitches)))
	if cb != cbDefaultK {
		t.Error("cb with explicit default K and cb with K=0 render different canonical forms")
	}
	cbK3 := canon(kiss.NewConfig(kiss.WithSequentialization(kiss.SeqCB), kiss.WithContextSwitches(3)))
	if cbK3 == cb {
		t.Error("different context-switch bounds share a canonical form")
	}
	cbMaxTS := canon(kiss.NewConfig(kiss.WithSequentialization(kiss.SeqCB), kiss.WithMaxTS(5)))
	if cbMaxTS != cb {
		t.Error("MaxTS split the canonical form under cb, which ignores it")
	}
}

// FuzzConfigWire: the config wire decoder never panics; a payload it
// accepts re-encodes into one it accepts again; and the canonical form
// is a fixed point of decode-then-canonicalize, so a cache key computed
// from a decoded key's config is the key itself. Seeded with the
// configs the golden tests pin and a payload carrying the retired
// call-summary fields.
func FuzzConfigWire(f *testing.F) {
	for _, cfg := range []*kiss.Config{
		kiss.NewConfig(),
		kiss.NewConfig(
			kiss.WithMaxTS(2),
			kiss.WithRaceTarget(kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: "stoppingFlag"}),
			kiss.WithMaxStates(40000),
			kiss.WithBFS(),
		),
		kiss.NewConfig(kiss.WithVisitedMode(kiss.VisitedCompact), kiss.WithMemBudgetMB(256)),
		kiss.NewConfig(kiss.WithSequentialization(kiss.SeqCB), kiss.WithContextSwitches(3)),
	} {
		data, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"v":1,"max_states":500,"disable_call_summaries":true,"summary_mb":64}`))
	f.Add([]byte(`{"v":1,"scheduler":"at-calls-only","summaries":true,"race_target":{"global":"g"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c kiss.Config
		if err := c.UnmarshalJSON(data); err != nil {
			return
		}
		enc, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		var back kiss.Config
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-encoded payload %s rejected: %v", enc, err)
		}
		canon, err := c.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical form: %v", err)
		}
		var d kiss.Config
		if err := d.UnmarshalJSON(canon); err != nil {
			t.Fatalf("canonical form %s rejected: %v", canon, err)
		}
		again, err := d.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(canon) {
			t.Fatalf("canonical form is not a fixed point:\n first: %s\nsecond: %s", canon, again)
		}
	})
}
