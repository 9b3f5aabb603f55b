package seqcheck

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/randprog"
)

// stripMemory drops the memory diagnostics — present only when spilling
// or the compact visited set is on, and therefore necessarily different
// between a spilled arm and a resident arm of the same search.
func stripMemory(r Result) Result {
	r.Memory = nil
	return r
}

// TestSpillIdenticalToResident: the disk-spilling frontier is eviction
// only. With a budget tiny enough to spill every bucket, the whole
// Result — verdict, trace, and every deterministic counter — is
// bit-identical to the fully resident search, for every BFS engine
// (macro bucket and per-statement level), sequential and parallel,
// including runs that trip a budget mid-level.
func TestSpillIdenticalToResident(t *testing.T) {
	engines := []Options{
		{BFS: true}, // sequential macro bucket BFS (workers 0)
		{SearchWorkers: 1},
		{SearchWorkers: 8},
		{SearchWorkers: 1, DisableMacroSteps: true},
		{SearchWorkers: 8, DisableMacroSteps: true},
		{SearchWorkers: 8, MaxStates: 150},
		{SearchWorkers: 8, MaxSteps: 300, DisableMacroSteps: true},
	}
	var spilled int64
	errors, spilledErrors := 0, 0
	replayed := 0
	replayHook = func([]int32) { replayed++ }
	defer func() { replayHook = nil }()
	for seed := int64(0); seed < 12; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for ei, eng := range engines {
			resident := stripMemory(stripParallel(Check(compile(t, src, 0), eng)))
			on := eng
			on.FrontierBudget = 2048
			on.SpillDir = t.TempDir()
			got := Check(compile(t, src, 0), on)
			if got.Memory != nil {
				spilled += got.Memory.SpilledFrames
				if got.Memory.SpilledFrames > 0 && got.Verdict == Error {
					spilledErrors++
				}
			}
			if spilledRes := stripMemory(stripParallel(got)); !reflect.DeepEqual(resident, spilledRes) {
				t.Errorf("seed %d engine %d: resident vs spilled:\n  %+v\n  %+v",
					seed, ei, resident, spilledRes)
			}
			if resident.Verdict == Error {
				errors++
			}
		}
	}
	if spilled == 0 {
		t.Error("no frames ever spilled; identity vacuous")
	}
	if errors == 0 {
		t.Error("no erroring programs; trace identity vacuous")
	}
	if spilledErrors == 0 {
		t.Error("no error found by a run that spilled; replay from restored frames vacuous")
	}
	// Every trace is rebuilt by exactly one replay, resident or spilled.
	if replayed != 2*errors {
		t.Errorf("%d replays for %d erroring runs; want one per reported failure", replayed, 2*errors)
	}
}

// TestHopKeyOrderMatchesPaddedPaths: the macro bucket BFS sorts each
// micro-depth bucket by hop key, one entry per stored-node hop. Over
// random programs, resident and spilled, every drained chunk must come
// out in pathLess order on its frames' padded paths (the per-statement
// BFS's within-level order), and every padded path must be as long as
// the bucket is deep.
func TestHopKeyOrderMatchesPaddedPaths(t *testing.T) {
	pairs, folded := 0, 0
	drainHook = func(depth int, chunk []pframe, keys [][]byte) {
		var prev []int32
		for i, f := range chunk {
			buf, _ := appendPaddedPath(nil, nil, f.nd)
			path, rest := decodePaddedPath(buf)
			if len(path) != depth || len(rest) != 0 {
				t.Fatalf("depth %d: padded path %v (%d bytes left over)", depth, path, len(rest))
			}
			if len(keys[i]) < 4*len(path) {
				folded++
			}
			if i > 0 {
				pairs++
				if !pathLess(prev, path) {
					t.Fatalf("depth %d: hop keys %x < %x, but padded paths %v then %v",
						depth, keys[i-1], keys[i], prev, path)
				}
			}
			prev = path
		}
	}
	defer func() { drainHook = nil }()
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for _, opts := range []Options{
			{BFS: true},
			{SearchWorkers: 8, MaxStates: 150},
			{BFS: true, FrontierBudget: 2048, SpillDir: t.TempDir()},
		} {
			Check(compile(t, src, 0), opts)
		}
	}
	if pairs == 0 || folded == 0 {
		t.Errorf("vacuous: %d ordered pairs, %d frames whose hop key is shorter than their padded path", pairs, folded)
	}
}

// TestPathKeyEncodingMatchesSpec: bytes.Compare on the frontier's key
// encoding is exactly pathLess on the entry slices — including the
// shorter-prefix-first tiebreak and multi-byte entry values.
func TestPathKeyEncodingMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randPath := func() []int32 {
		p := make([]int32, rng.Intn(6))
		for i := range p {
			if rng.Intn(8) == 0 {
				p[i] = rng.Int31() // exercise high bytes
			} else {
				p[i] = int32(rng.Intn(5))
			}
		}
		return p
	}
	encode := func(p []int32) []byte {
		var buf []byte
		for _, idx := range p {
			buf = appendPathIdx(buf, idx)
		}
		return buf
	}
	for trial := 0; trial < 5000; trial++ {
		a, b := randPath(), randPath()
		cmp := bytes.Compare(encode(a), encode(b))
		want := 0
		if pathLess(a, b) {
			want = -1
		} else if pathLess(b, a) {
			want = 1
		}
		if cmp != want {
			t.Fatalf("trial %d: bytes.Compare=%d, pathLess spec says %d\n  a=%v\n  b=%v",
				trial, cmp, want, a, b)
		}
	}
}

// TestPathKeyRoundTrip: decodePathKey inverts the encoding, so a node
// restored from disk carries the exact padded path of the frame that was
// spilled.
func TestPathKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		p := make([]int32, rng.Intn(10))
		for i := range p {
			p[i] = rng.Int31()
		}
		var buf []byte
		for _, idx := range p {
			buf = appendPathIdx(buf, idx)
		}
		got := decodePathKey(buf)
		if len(got) == 0 && len(p) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("trial %d: round trip %v -> %v", trial, p, got)
		}
	}
}

// TestCompactVisitedShrinkOnly: a Bloom false positive marks a fresh
// state as already seen, so the compact visited set can only ever
// *shrink* the explored set — never flip a reachable failure into a
// fabricated one. On the randprog differential corpus: compact States ≤
// exact States at every filter size; a healthily sized filter reproduces
// the exact verdict (in particular never unsafe→safe); a deliberately
// starved one may miss failures but must never invent one.
func TestCompactVisitedShrinkOnly(t *testing.T) {
	errors := 0
	for seed := int64(0); seed < 25; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for _, w := range []int{0, 1, 8} {
			base := Options{SearchWorkers: w, MaxStates: 100000}
			exact := Check(compile(t, src, 0), base)
			healthyOpts := base
			healthyOpts.VisitedCompact = true
			healthyOpts.VisitedBytes = 1 << 20
			healthy := Check(compile(t, src, 0), healthyOpts)
			tinyOpts := base
			tinyOpts.VisitedCompact = true
			tinyOpts.VisitedBytes = 64
			tiny := Check(compile(t, src, 0), tinyOpts)

			if healthy.States > exact.States {
				t.Errorf("seed %d workers %d: healthy compact explored more states (%d) than exact (%d)",
					seed, w, healthy.States, exact.States)
			}
			if tiny.States > exact.States {
				t.Errorf("seed %d workers %d: starved compact explored more states (%d) than exact (%d)",
					seed, w, tiny.States, exact.States)
			}
			if exact.Verdict == ResourceBound {
				continue
			}
			// ~2^20 filter bits for a few thousand states: the chance of
			// any false positive is negligible, so the verdicts must match.
			if healthy.Verdict != exact.Verdict {
				t.Errorf("seed %d workers %d: healthy compact verdict %v, exact %v\n%s",
					seed, w, healthy.Verdict, exact.Verdict, src)
			}
			if exact.Verdict == Error {
				errors++
			}
			// Pruning cannot fabricate a trace: a failure the starved
			// filter reports must exist in the exact search too.
			if tiny.Verdict == Error && exact.Verdict != Error {
				t.Errorf("seed %d workers %d: starved compact invented a failure\n%s", seed, w, src)
			}
			if healthy.Memory == nil || healthy.Memory.VisitedMode != "compact" {
				t.Errorf("seed %d workers %d: compact run missing memory diagnostics: %+v",
					seed, w, healthy.Memory)
			}
		}
	}
	if errors == 0 {
		t.Error("no erroring programs; verdict preservation vacuous")
	}
}

// TestAuditVisitedCountsFalsePositives: AuditVisited shadows the filter
// with an exact set and counts measured false positives without changing
// the search. A single-block filter fed 2^12 states must saturate and
// register misses.
func TestAuditVisitedCountsFalsePositives(t *testing.T) {
	src := wideChoiceSrc(12)
	base := Options{SearchWorkers: 1, VisitedCompact: true, VisitedBytes: 64}
	bare := stripParallel(Check(compile(t, src, 0), base))
	audit := base
	audit.AuditVisited = true
	audited := Check(compile(t, src, 0), audit)

	if audited.Memory == nil || audited.Memory.VisitedMode != "compact" {
		t.Fatalf("audited run missing memory diagnostics: %+v", audited.Memory)
	}
	if audited.Memory.VisitedFalsePositives == 0 {
		t.Error("2^12 states through a 512-bit filter produced no measured false positives")
	}
	exact := Check(compile(t, src, 0), Options{SearchWorkers: 1})
	if audited.States >= exact.States {
		t.Errorf("starved filter did not shrink the search: compact %d states, exact %d",
			audited.States, exact.States)
	}
	// The audit is observation only: same search as the bare filter.
	got := stripMemory(stripParallel(audited))
	want := stripMemory(bare)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("audit changed the search:\n  bare    %+v\n  audited %+v", want, got)
	}
}
