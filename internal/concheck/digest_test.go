package concheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/randprog"
)

// exploreDigest pins what the interleaving explorer reports on a fixed
// slice of inputs: 30 two-threaded and 30 default random programs, each
// run at context bounds -1, 0 and 2, depth- and breadth-first, with and
// without macro steps, at 0 and 1 search workers, plus budget trips in
// both orders, a spilling and a compact-visited breadth-first search, and
// the fingerprint audit in both orders. The whole Result (verdict,
// failure, trace, every counter, the memory record) except the
// scheduling-dependent Parallel record feeds one sha256 digest, so any
// change to what a search explores or reports changes it.
const exploreDigest = "638feb0cf3bce9a4eee2a79768387761f0cf4f4eb93fd74557e84268193241a5"

func TestExploreOutputDigest(t *testing.T) {
	type subject struct {
		name string
		src  string
	}
	var subs []subject
	for seed := int64(0); seed < 30; seed++ {
		subs = append(subs,
			subject{fmt.Sprintf("two%d", seed), randprog.GenerateTwoThreaded(seed, randprog.Default)},
			subject{fmt.Sprintf("rand%d", seed), randprog.Generate(seed, randprog.Default)})
	}

	type arm struct {
		name string
		opts Options
	}
	var arms []arm
	for _, bound := range []int{-1, 0, 2} {
		for _, bfs := range []bool{false, true} {
			for _, perStmt := range []bool{false, true} {
				for _, w := range []int{0, 1} {
					arms = append(arms, arm{
						fmt.Sprintf("cb%d-bfs%v-stmt%v-w%d", bound, bfs, perStmt, w),
						Options{ContextBound: bound, BFS: bfs, DisableMacroSteps: perStmt,
							SearchWorkers: w, MaxStates: 20000},
					})
				}
			}
		}
	}
	for _, bfs := range []bool{false, true} {
		for _, perStmt := range []bool{false, true} {
			base := Options{ContextBound: 2, BFS: bfs, DisableMacroSteps: perStmt}
			for _, trip := range []struct {
				name string
				set  func(*Options)
			}{
				{"states", func(o *Options) { o.MaxStates = 60 }},
				{"steps", func(o *Options) { o.MaxSteps = 150 }},
				{"depth", func(o *Options) { o.MaxDepth = 9; o.MaxStates = 5000 }},
			} {
				o := base
				trip.set(&o)
				arms = append(arms, arm{fmt.Sprintf("trip-%s-bfs%v-stmt%v", trip.name, bfs, perStmt), o})
			}
		}
	}
	for _, perStmt := range []bool{false, true} {
		arms = append(arms,
			arm{fmt.Sprintf("spill-stmt%v", perStmt),
				Options{ContextBound: -1, BFS: true, DisableMacroSteps: perStmt, MaxStates: 20000,
					FrontierBudget: 2048, SpillDir: t.TempDir()}},
			arm{fmt.Sprintf("compact-stmt%v", perStmt),
				Options{ContextBound: -1, BFS: true, DisableMacroSteps: perStmt, MaxStates: 20000,
					VisitedCompact: true, VisitedBytes: 1 << 12}})
	}
	for _, bfs := range []bool{false, true} {
		arms = append(arms, arm{fmt.Sprintf("audit-bfs%v", bfs),
			Options{ContextBound: 2, BFS: bfs, AuditFingerprints: true, MaxStates: 20000}})
	}

	h := sha256.New()
	verdicts := map[Verdict]int{}
	var spilled int64
	for _, sub := range subs {
		c := compile(t, sub.src)
		for _, a := range arms {
			res := *Check(c, a.opts)
			res.Parallel = nil
			rec, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s %s: %v", sub.name, a.name, err)
			}
			fmt.Fprintf(h, "%s %s %s\n", sub.name, a.name, rec)
			verdicts[res.Verdict]++
			if res.Memory != nil {
				spilled += res.Memory.SpilledFrames
			}
		}
	}
	for _, v := range []Verdict{Safe, Error, ResourceBound} {
		if verdicts[v] == 0 {
			t.Errorf("vacuous: verdict counts %v", verdicts)
		}
	}
	if spilled == 0 {
		t.Error("vacuous: no frame ever spilled")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exploreDigest {
		t.Errorf("explore output digest over %d checks is %s, pinned %s",
			len(subs)*len(arms), got, exploreDigest)
	}
}
