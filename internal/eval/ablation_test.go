package eval

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestMacroAblationSmallCorpus: the ablation harness on two small
// drivers — verdicts and failure positions identical across arms at
// every worker count, stored states strictly compressed, and the JSON
// payload carrying the documented keys.
func TestMacroAblationSmallCorpus(t *testing.T) {
	rep, err := RunMacroAblation(AblationOptions{
		Drivers:      map[string]bool{"kbfiltr": true, "moufiltr": true},
		WorkerCounts: []int{0, 1, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatalf("arms disagree: %v", rep.Mismatches)
	}
	if rep.On.Races != rep.Off.Races || rep.On.NoRaces != rep.Off.NoRaces || rep.On.Timeouts != rep.Off.Timeouts {
		t.Errorf("verdict counts diverged: on %+v, off %+v", rep.On, rep.Off)
	}
	if rep.On.StatesStored >= rep.Off.StatesStored {
		t.Errorf("no compression: stored on=%d off=%d", rep.On.StatesStored, rep.Off.StatesStored)
	}
	if rep.CompressionRatio <= 1 {
		t.Errorf("compression ratio %.2f not > 1", rep.CompressionRatio)
	}
	if rep.On.StatesStepped < rep.On.StatesStored {
		t.Errorf("stepped %d < stored %d in the compressed arm", rep.On.StatesStepped, rep.On.StatesStored)
	}
	// The memo arm replays bit-identically: same stored/stepped counts as
	// the plain macro arm, and the replay cache must actually engage.
	if rep.Memo.StatesStored != rep.On.StatesStored || rep.Memo.StatesStepped != rep.On.StatesStepped {
		t.Errorf("memo arm counters diverged from macro arm: memo %+v, on %+v", rep.Memo, rep.On)
	}
	if rep.Memo.MemoHits == 0 {
		t.Error("memo arm recorded zero hits on a corpus with repeated folds")
	}
	if rep.Memo.MemoStepsSaved == 0 {
		t.Error("memo arm saved zero steps despite hits")
	}
	t.Logf("compression ratio on kbfiltr+moufiltr: %.2fx, memo hit ratio %.1f%%",
		rep.CompressionRatio, rep.Memo.MemoHitRatio*100)

	var buf bytes.Buffer
	if err := WriteMacroAblation(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if rep.CompletedFields == 0 {
		t.Error("no completed fields on drivers without hard fields")
	}
	for _, key := range []string{`"states_stored"`, `"states_stepped"`, `"compression_ratio"`, `"aggregate_ratio"`, `"search_workers"`, `"identical": true`, `"memo_hit_ratio"`, `"memo_steps_saved"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON payload missing %s:\n%s", key, buf.String())
		}
	}
	var round MacroAblation
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("payload does not round-trip: %v", err)
	}
	if round.CompressionRatio != rep.CompressionRatio {
		t.Errorf("round-trip ratio %v != %v", round.CompressionRatio, rep.CompressionRatio)
	}

	out := FormatMacroAblation(rep)
	for _, want := range []string{"macro-steps", "macro+memo", "per-statement", "compression ratio", "hit ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}
