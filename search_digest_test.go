package kiss_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/randprog"
)

// searchDigest pins what the sequential checker reports on a fixed slice
// of inputs: the race checks of every field of four small Table 1
// drivers, and 30 random programs in assertion mode and in race mode on
// g0. Each runs depth- and breadth-first, with and without macro steps,
// at 0 and 1 search workers. Verdict, message, position, every
// deterministic counter (the stats after StripTiming), the raw sequential
// trace and the reconstructed trace all feed one sha256 digest, so any
// change to what a search explores or reports changes it.
const searchDigest = "b285d7ce30c04e39b02927ed3ecdb96b519fd397feca1890d0e43341cd880852"

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

	h := sha256.New()
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
			fmt.Fprintf(h, "%s %+v %s\n", sub.name, a, rec)
			verdicts[res.Verdict]++
		}
	}
	if verdicts[kiss.Error] == 0 || verdicts[kiss.Safe] == 0 {
		t.Errorf("vacuous: verdict counts %v", verdicts)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchDigest {
		t.Errorf("search output digest over %d checks is %s, pinned %s",
			len(subs)*len(arms), got, searchDigest)
	}
}
