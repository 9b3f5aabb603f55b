package kiss_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/randprog"
)

// searchDigests pins what the sequential checker reports on a fixed
// slice of inputs: the race checks of every field of four small Table 1
// drivers, and 30 random programs in assertion mode and in race mode on
// g0. Each runs depth- and breadth-first, with and without macro steps,
// at 0 and 1 search workers (an arm is named by its flags; at 1 worker
// the search is breadth-first whatever the flag says). Verdict, message,
// position, every deterministic counter (the stats after StripTiming),
// the raw sequential trace and the reconstructed trace feed one sha256
// digest per arm, so any change to what a search explores or reports
// changes the digest of every arm it touches, and only those.
var searchDigests = map[string]string{
	"dfs-macro-w0": "84544ee118d8486464c9d1169e54d1eea791b79648323c7d0c48b2c3e9ed855e",
	"dfs-macro-w1": "0670e6f2ecb03a0acb14e84bf038614120988bc4bcd277562e7c451184081383",
	"dfs-stmt-w0":  "a97fcca8176e00e2100491d5f1cc17a219c8141f8a73db5da4bc44f09eee9f8a",
	"dfs-stmt-w1":  "c6af37d0974e8ec9df71dbec2a3bab29bdd9ef4043ab7ba2ba84246191a5eeec",
	"bfs-macro-w0": "cefe32f4b87de3e185d8b0dc34a752ea016e281c3e633270bbe73d48745316de",
	"bfs-macro-w1": "82c7a0a34324c277026a5bd05ebab5d74d34362f612cf63d449ec9147e390a5e",
	"bfs-stmt-w0":  "5d0a4c4377c8ae93afe452f0a66fe02fe239b58e17c36f26044a3da9dec44ec6",
	"bfs-stmt-w1":  "65de75cc775ef19a35b47ea7761480cd79e054ba866cabf4b2256355a3ba2ca1",
}

func TestSearchOutputDigest(t *testing.T) {
	type subject struct {
		name string
		src  string
		opts []kiss.Option
	}
	var subs []subject
	for _, name := range []string{"kbfiltr", "moufiltr", "diskperf", "1394diag"} {
		model := drivers.Generate(drivers.FindSpec(name))
		for _, f := range model.Spec.Fields {
			subs = append(subs, subject{name + "." + f.Name, model.HarnessProgram(f.Name, false),
				[]kiss.Option{kiss.WithMaxStates(40000),
					kiss.WithRaceTarget(kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: f.Name})}})
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		subs = append(subs,
			subject{fmt.Sprintf("rand%d", seed), src, []kiss.Option{kiss.WithMaxTS(1)}},
			subject{fmt.Sprintf("rand%d-race", seed), src,
				[]kiss.Option{kiss.WithMaxTS(1), kiss.WithRaceTarget(kiss.RaceTarget{Global: "g0"})}})
	}

	type arm struct {
		bfs, macro bool
		workers    int
	}
	var arms []arm
	for _, bfs := range []bool{false, true} {
		for _, macro := range []bool{true, false} {
			for _, w := range []int{0, 1} {
				arms = append(arms, arm{bfs, macro, w})
			}
		}
	}
	armName := func(a arm) string {
		order, mode := "dfs", "macro"
		if a.bfs {
			order = "bfs"
		}
		if !a.macro {
			mode = "stmt"
		}
		return fmt.Sprintf("%s-%s-w%d", order, mode, a.workers)
	}

	hs := map[string]hash.Hash{}
	for _, a := range arms {
		hs[armName(a)] = sha256.New()
	}
	verdicts := map[kiss.Verdict]int{}
	for _, sub := range subs {
		for _, a := range arms {
			p, err := kiss.Parse(sub.src)
			if err != nil {
				t.Fatalf("%s: %v", sub.name, err)
			}
			opts := append([]kiss.Option{kiss.WithMacroSteps(a.macro), kiss.WithSearchWorkers(a.workers)}, sub.opts...)
			if a.bfs {
				opts = append(opts, kiss.WithBFS())
			}
			res, err := kiss.NewConfig(opts...).Check(p)
			if err != nil {
				t.Fatalf("%s %+v: %v", sub.name, a, err)
			}
			rec, err := json.Marshal(strip(res))
			if err != nil {
				t.Fatalf("%s %+v: %v", sub.name, a, err)
			}
			fmt.Fprintf(hs[armName(a)], "%s %+v %s\n", sub.name, a, rec)
			verdicts[res.Verdict]++
		}
	}
	if verdicts[kiss.Error] == 0 || verdicts[kiss.Safe] == 0 {
		t.Errorf("vacuous: verdict counts %v", verdicts)
	}
	for _, a := range arms {
		name := armName(a)
		if got := hex.EncodeToString(hs[name].Sum(nil)); got != searchDigests[name] {
			t.Errorf("arm %s: search output digest over %d checks is %s, pinned %s",
				name, len(subs), got, searchDigests[name])
		}
	}
}
