package kiss_test

import (
	"testing"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/randprog"
)

// TestMacroStepsCertifyOnDriver: the full pipeline with macro-step
// compression — transform, check the Bluetooth race of Section 2.2,
// reconstruct the concurrent trace, and certify it by guided replay on
// the original program. The compressed search must find the same race at
// the same position as the per-statement search at every worker count,
// with strictly fewer stored states, and its reconstructed schedule must
// replay.
func TestMacroStepsCertifyOnDriver(t *testing.T) {
	prog, err := kiss.Parse(drivers.BluetoothSource)
	if err != nil {
		t.Fatal(err)
	}
	target := kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: "stoppingFlag"}

	refCfg := kiss.NewConfig(kiss.WithMaxTS(0), kiss.WithRaceTarget(target), kiss.WithMacroSteps(false))
	ref, err := refCfg.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Verdict != kiss.Error {
		t.Fatalf("per-statement search missed the stoppingFlag race: %v", ref.Verdict)
	}

	for _, w := range []int{0, 1, 8} {
		cfg := kiss.NewConfig(kiss.WithMaxTS(0), kiss.WithRaceTarget(target),
			kiss.WithSearchWorkers(w), kiss.WithMacroSteps(true))
		res, err := cfg.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != kiss.Error {
			t.Fatalf("workers=%d: compressed search missed the race: %v", w, res.Verdict)
		}
		if res.Pos != ref.Pos {
			t.Errorf("workers=%d: race position %v, per-statement search reports %v", w, res.Pos, ref.Pos)
		}
		if res.States >= ref.States {
			t.Errorf("workers=%d: compression stored %d states, per-statement stored %d",
				w, res.States, ref.States)
		}
		if res.Stats.StatesStepped < res.States {
			t.Errorf("workers=%d: StatesStepped %d < stored %d", w, res.Stats.StatesStepped, res.States)
		}
		if res.Stats.CompressionRatio <= 1 {
			t.Errorf("workers=%d: compression ratio %.2f not > 1", w, res.Stats.CompressionRatio)
		}
		ok, err := cfg.Certify(prog, res)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("workers=%d: compressed search's reconstructed trace failed to certify", w)
		}
	}
}

// TestMacroStepsOffReproducesSeedCounters: WithMacroSteps(false) restores
// the per-statement search: StatesStepped equals stored states and the
// compression ratio reports 1.
func TestMacroStepsOffReproducesSeedCounters(t *testing.T) {
	prog, err := kiss.Parse(drivers.BluetoothSource)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kiss.NewConfig(kiss.WithMaxTS(0),
		kiss.WithRaceTarget(kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: "stoppingFlag"}),
		kiss.WithMacroSteps(false))
	res, err := cfg.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StatesStepped != res.States {
		t.Errorf("uncompressed StatesStepped %d != States %d", res.Stats.StatesStepped, res.States)
	}
	if res.Stats.CompressionRatio != 1 {
		t.Errorf("uncompressed compression ratio %v != 1", res.Stats.CompressionRatio)
	}
}

// TestMacroStepsDecideMoreUnderStateBound: MaxStates counts stored
// states, and macro-step compression stores only decision points, so
// under the same bound the per-statement search runs out sooner. Over
// the assert-seq benchmark population (the assertion scenarios and
// random programs 0-399 in the sequentialization ablation's shape), each
// program goes through the workload's three arms — KISS at ts 2, CB(2),
// and the interleaving explorer — at MaxStates 20000, with compression
// on and off. Off must leave strictly more checks resource-bound; the
// log reports the counts per arm and the decided share.
func TestMacroStepsDecideMoreUnderStateBound(t *testing.T) {
	if testing.Short() {
		t.Skip("checks the 407-program population twice")
	}
	var srcs []string
	for _, sc := range drivers.Scenarios() {
		srcs = append(srcs, sc.Source)
	}
	shape := randprog.Config{Globals: 2, Funcs: 2, MaxStmts: 4, MaxAsyncs: 2, Depth: 2}
	for seed := int64(0); seed < 400; seed++ {
		srcs = append(srcs, randprog.Generate(seed, shape))
	}
	arms := []struct {
		name    string
		cfg     kiss.Config
		explore bool
	}{
		{"kiss", kiss.Config{MaxTS: 2, MaxStates: 20000}, false},
		{"cb2", kiss.Config{Sequentialization: kiss.SeqCB, ContextSwitches: 2, MaxStates: 20000}, false},
		{"explore", kiss.Config{ContextBound: -1, MaxStates: 20000}, true},
	}
	var bound [2][3]int // [compression off][arm]
	for _, src := range srcs {
		prog, err := kiss.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < 2; off++ {
			for ai, arm := range arms {
				cfg := arm.cfg
				cfg.DisableMacroSteps = off == 1
				check := cfg.Check
				if arm.explore {
					check = cfg.Explore
				}
				res, err := check(prog)
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict == kiss.ResourceBound {
					bound[off][ai]++
				}
			}
		}
	}
	checks := len(srcs) * len(arms)
	for off, mode := range []string{"on", "off"} {
		b := bound[off]
		t.Logf("compression %-3s: resource-bound kiss %d, cb2 %d, explore %d; decided %.4f of %d checks",
			mode, b[0], b[1], b[2], 1-float64(b[0]+b[1]+b[2])/float64(checks), checks)
	}
	for ai, arm := range arms {
		if bound[1][ai] < bound[0][ai] {
			t.Errorf("%s: per-statement search left fewer checks resource-bound (%d) than macro steps (%d)",
				arm.name, bound[1][ai], bound[0][ai])
		}
	}
	if bound[1][1] <= bound[0][1] {
		t.Errorf("cb2: per-statement search left no more checks resource-bound (%d) than macro steps (%d)",
			bound[1][1], bound[0][1])
	}
}
