package kiss_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	kiss "repro"
	"repro/internal/randprog"
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
			kiss.WithRaceTarget(kiss.RaceTarget{Global: "stopped"}),
			kiss.WithMaxStates(1000),
			kiss.WithMaxSteps(2000),
			kiss.WithMaxDepth(64),
			kiss.WithBFS(),
			kiss.WithMacroSteps(false),
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

// checkRetiredWireFields: the knobs of deleted mechanisms are gone from
// Config, but v1 payloads written while they existed still carry them.
// Such a payload, with the retired fields set, must decode as a no-op:
// its canonical form and rendered bytes equal the zero-valued
// payload's, and the rendered bytes hold each of rendered (the retired
// fields at false/0).
func checkRetiredWireFields(t *testing.T, with string, rendered ...string) {
	t.Helper()
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
	for _, want := range rendered {
		if !strings.Contains(string(data), want) {
			t.Errorf("retired fields not rendered as false/0 (want %s): %s", want, data)
		}
	}
	bdata, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(bdata) {
		t.Errorf("retired fields moved the rendered bytes:\n%s\n%s", data, bdata)
	}
}

// TestConfigWireRetiredCallSummaryFields: the call-summary knobs decode
// as no-ops.
func TestConfigWireRetiredCallSummaryFields(t *testing.T) {
	checkRetiredWireFields(t, `{"v":1,"max_states":500,"disable_call_summaries":true,"summary_mb":64}`,
		`"disable_call_summaries":false,"summary_mb":0`)
}

// TestConfigWireRetiredFoldMemoFields: the fold-memo knobs and the
// visited-set shard count decode as no-ops.
func TestConfigWireRetiredFoldMemoFields(t *testing.T) {
	checkRetiredWireFields(t, `{"v":1,"max_states":500,"disable_fold_memo":true,"memo_mb":64,"num_shards":8}`,
		`"disable_fold_memo":false,"memo_mb":0`, `"num_shards":0`)
}

// TestConfigWireRetiredAliasElisionField: the alias-elision ablation
// knob decodes as a no-op.
func TestConfigWireRetiredAliasElisionField(t *testing.T) {
	checkRetiredWireFields(t, `{"v":1,"max_states":500,"disable_alias_elision":true}`,
		`"disable_alias_elision":false`)
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
// result-invariant knobs (the count of search workers >= 1, runtime
// context, progress plumbing, Explore-only context bound) must share one
// canonical form — that is what lets a warm cache serve a
// -search-workers 8 resubmission of a -search-workers 1 or -bfs run. The
// count's step from 0 to 1 is not invariant: it switches the depth-first
// search for the breadth-first one.
func TestConfigCanonicalJSONInvariance(t *testing.T) {
	canon := func(opts ...kiss.Option) string {
		t.Helper()
		b, err := kiss.NewConfig(append([]kiss.Option{kiss.WithMaxStates(500)}, opts...)...).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	bfs := canon(kiss.WithBFS())
	for _, variant := range []string{
		canon(kiss.WithSearchWorkers(1)),
		canon(kiss.WithSearchWorkers(8),
			kiss.WithContextBound(3),
			kiss.WithProgress(func(kiss.Event) {})),
		canon(kiss.WithBFS(), kiss.WithSearchWorkers(8)),
	} {
		if variant != bfs {
			t.Errorf("result-invariant knobs leaked into the canonical form:\n%s\n%s", bfs, variant)
		}
	}
	dfs := canon()
	if dfs != canon(kiss.WithContextBound(3)) {
		t.Error("the context bound leaked into the depth-first canonical form")
	}
	if dfs == canon(kiss.WithSearchWorkers(1)) {
		t.Error("search workers 0 (depth-first) and 1 (breadth-first) share a canonical form")
	}

	// And a knob that does change the result must change the bytes.
	if dfs == canon(kiss.WithMaxStates(501)) {
		t.Error("different budgets share a canonical form")
	}
}

// TestCanonicalFormSeparatesSearchEngines is the regression case of the
// result cache keying two search engines as one: on this program the
// depth-first search (search workers 0) and the breadth-first one (1)
// report different traces and state counts, so their canonical forms
// must differ, while the breadth-first configs that share a form report
// one result.
func TestCanonicalFormSeparatesSearchEngines(t *testing.T) {
	prog, err := kiss.Parse(randprog.Generate(6, randprog.Default))
	if err != nil {
		t.Fatal(err)
	}
	base := []kiss.Option{kiss.WithMaxTS(1), kiss.WithRaceTarget(kiss.RaceTarget{Global: "g0"})}
	run := func(opts ...kiss.Option) (string, string) {
		t.Helper()
		cfg := kiss.NewConfig(append(append([]kiss.Option(nil), base...), opts...)...)
		cj, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		res, err := cfg.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != kiss.Error {
			t.Fatalf("verdict %s, want an error", res.Verdict)
		}
		return string(cj), fmt.Sprintf("%d events, %d states, %s", len(res.SeqEvents), res.States, res.Message)
	}
	dfsKey, dfsRes := run()
	bfsKey, bfsRes := run(kiss.WithBFS())
	if dfsRes == bfsRes {
		t.Fatalf("the engines agree (%s); the case no longer separates them", dfsRes)
	}
	if dfsKey == bfsKey {
		t.Error("depth-first and breadth-first configs share a canonical form")
	}
	for _, w := range []int{1, 8} {
		key, res := run(kiss.WithSearchWorkers(w))
		if key != bfsKey {
			t.Errorf("search workers %d: canonical form differs from BFS's", w)
		}
		if res != bfsRes {
			t.Errorf("search workers %d reports %s under BFS's key, which holds %s", w, res, bfsRes)
		}
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
	).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(exact) != string(budgeted) {
		t.Errorf("exact-mode budget leaked into the canonical form:\n%s\n%s", exact, budgeted)
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
// configs the golden tests pin and payloads carrying the retired
// call-summary, fold-memo and shard-count fields.
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
	f.Add([]byte(`{"v":1,"max_states":500,"disable_fold_memo":true,"memo_mb":64,"num_shards":8}`))
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
