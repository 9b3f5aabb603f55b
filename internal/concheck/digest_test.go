package concheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"repro/internal/randprog"
)

// exploreDigests pins what the interleaving explorer reports on a fixed
// slice of inputs: 30 two-threaded and 30 default random programs, each
// run at context bounds -1, 0 and 2, depth- and breadth-first, with and
// without macro steps, at 0 and 1 search workers (an arm is named by its
// options; at 1 worker the search is breadth-first whatever BFS says),
// plus budget trips in both orders, a spilling and a compact-visited
// breadth-first search, and the fingerprint audit in both orders. The
// whole Result (verdict,
// failure, trace, every counter, the memory record) except the
// scheduling-dependent Parallel record feeds one sha256 digest per arm,
// so any change to what a search explores or reports changes the digest
// of every arm it touches, and only those.
var exploreDigests = map[string]string{
	"cb-1-bfsfalse-stmtfalse-w0":     "c2b412d412c29ed3605ef90f6420dcc3f3753473873a07b846ef8a31839af7e6",
	"cb-1-bfsfalse-stmtfalse-w1":     "8f8deda8742c43a2babbef2e6290f6aa262e000f7be752557fbf0046dd507f93",
	"cb-1-bfsfalse-stmttrue-w0":      "6cafa44d054bcf51fa8f1a1f823143eb1eeefb584454a22133f262a96edb7ad0",
	"cb-1-bfsfalse-stmttrue-w1":      "bcf1f2d3ad0a40fac2ca8f276378007cb220584a5d5a901ec85928bef76c71e7",
	"cb-1-bfstrue-stmtfalse-w0":      "eacace074c13ee95d12a6ed045c27879f5c98c16218330e1bf28936570a47f1f",
	"cb-1-bfstrue-stmtfalse-w1":      "714ecf4aa5763f7b5218c76a45a97c64deb197d657f6564ba7a6863e76f0f5a5",
	"cb-1-bfstrue-stmttrue-w0":       "a97e6242352bcfb68be31a6d14d46da5d9f77f7a36fc9d34397e4ed9f6f2d3d7",
	"cb-1-bfstrue-stmttrue-w1":       "5223c8fad1643c982eb8be857dae845177781f20e3967d2c779e5bcc4a5a358f",
	"cb0-bfsfalse-stmtfalse-w0":      "be5121b014330933e22764b729d73fceefb88bc5d821ebf67516aab6b5a1dbfa",
	"cb0-bfsfalse-stmtfalse-w1":      "836c64bae40d2eb8c748f67fe970894a070bc3078a26d2e1b54748aa7405829d",
	"cb0-bfsfalse-stmttrue-w0":       "6695fe379ef420970b0b6d03faac916e6e55c9f509212f62089513d706411a4a",
	"cb0-bfsfalse-stmttrue-w1":       "c3aa15b9ff328259d2a2fd234ee2062b7a86de1c70f3009a4e7e788e45bd721b",
	"cb0-bfstrue-stmtfalse-w0":       "4c13ff1f826252f78732992afd042595d688cd958c4ddb485d0f0ff379e4a03c",
	"cb0-bfstrue-stmtfalse-w1":       "af390a51175109bf54420840b74a590b11090728f7b2ebc579f083e3cdba7f1d",
	"cb0-bfstrue-stmttrue-w0":        "45b6b66dd90d251467b3676800ac5b72b85f5c0271b961f8918462cb71867fbe",
	"cb0-bfstrue-stmttrue-w1":        "1cf2731ace883bfd5659a414b29513f542f7abe1693392eb32bb9a240c456af4",
	"cb2-bfsfalse-stmtfalse-w0":      "de0d491d856509a06764efafc4ac5401ac8640ace2751cf833cff4ea43c9c261",
	"cb2-bfsfalse-stmtfalse-w1":      "7afb13b3cd55f9927c13dde40286cb176c271506475cf67df820bcad9d0357c6",
	"cb2-bfsfalse-stmttrue-w0":       "5e743d899f516623e51d15fb0c83656d4d4a03b9e8aa1ff984cc1ff414baa7f1",
	"cb2-bfsfalse-stmttrue-w1":       "307f4e09eb40414b9adc9266e69e2aa275dffa5cb7582277e392e6a29b0ebd57",
	"cb2-bfstrue-stmtfalse-w0":       "5a10de82546d921d72a2dbbef90033ebe894e1b6ad619b501dcf00efcc4236a4",
	"cb2-bfstrue-stmtfalse-w1":       "68bfefe8cbbc7ec30fbaa4e8de677341e6c41db17b72d9451a9e16a844e58424",
	"cb2-bfstrue-stmttrue-w0":        "8a9e7a4b984a3894dcb8f6623721a56c415ed91c6f30803317569c7c4e0cb8f3",
	"cb2-bfstrue-stmttrue-w1":        "00a035c8ec38eacedce6139226cfc2833c508789bddc0787aa27f4775363c2c2",
	"trip-states-bfsfalse-stmtfalse": "52e74dc8fffe86b6e41e7b93a1b5a8c4a7dc8d3c0631dbb6bf1fcb0d876ee84b",
	"trip-steps-bfsfalse-stmtfalse":  "56245ddf67f328ab742696ca971b1c5fc95f6fa112d8065223f2bb25d1207403",
	"trip-depth-bfsfalse-stmtfalse":  "94c727835c069f1b6c21ab3e99c00d9551ba4ed3e99a1571bab7669c30f1ec26",
	"trip-states-bfsfalse-stmttrue":  "630034c32451f56920e8c309bac8016a5073f139c2b197e8dc62f03da79decd3",
	"trip-steps-bfsfalse-stmttrue":   "f16e173c435b701c21c85e2945ed4fb9ce4f1409be8c35234356f0f636ace636",
	"trip-depth-bfsfalse-stmttrue":   "b2ef2de70bb1d7c1069c303dbea1919976dac0eadb931bbe6adf56dc0d5fc510",
	"trip-states-bfstrue-stmtfalse":  "28fad0c037c9ea264423a76a22f1f9f4fae5f9dc68a29f8d334acb9367ad0f79",
	"trip-steps-bfstrue-stmtfalse":   "0eb476af56024da61efee7441cbbb69324eb37fe12aa5c77183a066847c26be1",
	"trip-depth-bfstrue-stmtfalse":   "a46c81bf5b38fd3155ca8420a2997b666cc38aa22775acf977a87a4cc5af46af",
	"trip-states-bfstrue-stmttrue":   "7b654f243828af884b1404cb54f3d87ed5f1a8e44676538bc25e809f5bdcfe54",
	"trip-steps-bfstrue-stmttrue":    "37a8936bd906c6ca9f5fff088636c5ee8bed01acbcd20af44cef95de440a03ed",
	"trip-depth-bfstrue-stmttrue":    "2a0fd1dc1a29d995acfa37bdf5f29dacd1de7f92f3c0be22750a750aead6608d",
	"spill-stmtfalse":                "5a537704eeab6f291f79df1a1bf97bf41f1f558d9234eb139ec4972ac70606ad",
	"compact-stmtfalse":              "3e61add7011d02165776fdd6fba00b25d60146c576830724f0f9ab89a15f69ce",
	"spill-stmttrue":                 "13e75e2143f923bb5092ef439f12ad41a642569aaf18347b7564be31d0813cea",
	"compact-stmttrue":               "1f7d9d81b7caf3972d656312a8de24fbb1122b50999196c7e128182f2a001db2",
	"audit-bfsfalse":                 "ed7d64d0b0e706c672d145f00b9e9d0bf01f9facecbf4deb02c6d518c94451d4",
	"audit-bfstrue":                  "1288035f0ba221ec3d456995b1d46dc7fbbdc2345244fddc1e9d72d12d057c98",
}

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

	hs := map[string]hash.Hash{}
	for _, a := range arms {
		hs[a.name] = sha256.New()
	}
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
			fmt.Fprintf(hs[a.name], "%s %s %s\n", sub.name, a.name, rec)
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
	for _, a := range arms {
		if got := hex.EncodeToString(hs[a.name].Sum(nil)); got != exploreDigests[a.name] {
			t.Errorf("arm %s: explore output digest over %d checks is %s, pinned %s",
				a.name, len(subs), got, exploreDigests[a.name])
		}
	}
}
