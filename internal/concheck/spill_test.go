package concheck

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
// only. With a budget tiny enough to spill every level, the whole
// Result is bit-identical to the fully resident search for both
// interleaving BFS engines, across scheduling shapes (unbounded,
// context-bounded, POR) and across budget trips mid-level.
func TestSpillIdenticalToResident(t *testing.T) {
	engines := []Options{
		{ContextBound: -1, SearchWorkers: 1},
		{ContextBound: -1, SearchWorkers: 8},
		{ContextBound: 2, SearchWorkers: 8},
		{ContextBound: -1, POR: true, SearchWorkers: 8},
		{ContextBound: -1, SearchWorkers: 1, DisableMacroSteps: true},
		{ContextBound: -1, SearchWorkers: 8, DisableMacroSteps: true},
		{ContextBound: -1, SearchWorkers: 8, MaxStates: 150},
		{ContextBound: 2, SearchWorkers: 8, MaxSteps: 300, DisableMacroSteps: true},
	}
	var spilled int64
	errors, spilledErrors := 0, 0
	replayed := 0
	cReplayHook = func([]int32) { replayed++ }
	defer func() { cReplayHook = nil }()
	for seed := int64(0); seed < 10; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for ei, eng := range engines {
			resident := stripMemory(stripParallel(Check(compile(t, src), eng)))
			on := eng
			on.FrontierBudget = 2048
			on.SpillDir = t.TempDir()
			got := Check(compile(t, src), on)
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
// micro-depth bucket by hop key, one pathEntry(thread, index) per
// stored-node hop. Over random two-threaded programs, across scheduling
// shapes, resident and spilled, every drained chunk must come out in
// cPathLess order on its frames' padded (thread, index) paths (the
// per-statement BFS's within-level order), and every padded path must
// be as long as the bucket is deep.
func TestHopKeyOrderMatchesPaddedPaths(t *testing.T) {
	pairs, folded := 0, 0
	cDrainHook = func(depth int, chunk []searchState, keys [][]byte) {
		var prev []int32
		for i, s := range chunk {
			buf, _ := cAppendPaddedPath(nil, nil, s.nd)
			path, rest := cDecodePaddedPath(buf)
			if len(path) != depth || len(rest) != 0 {
				t.Fatalf("depth %d: padded path %v (%d bytes left over)", depth, path, len(rest))
			}
			if len(keys[i]) < 4*len(path) {
				folded++
			}
			if i > 0 {
				pairs++
				if !cPathLess(prev, path) {
					t.Fatalf("depth %d: hop keys %x < %x, but padded paths %v then %v",
						depth, keys[i-1], keys[i], prev, path)
				}
			}
			prev = path
		}
	}
	defer func() { cDrainHook = nil }()
	for seed := int64(0); seed < 25; seed++ {
		src := randprog.GenerateTwoThreaded(seed, randprog.Default)
		for _, opts := range []Options{
			{ContextBound: -1, SearchWorkers: 1},
			{ContextBound: 2, SearchWorkers: 8},
			{ContextBound: -1, POR: true, SearchWorkers: 1},
			{ContextBound: -1, SearchWorkers: 1, FrontierBudget: 2048, SpillDir: t.TempDir()},
		} {
			opts.MaxStates = 100000
			Check(compile(t, src), opts)
		}
	}
	if pairs == 0 || folded == 0 {
		t.Errorf("vacuous: %d ordered pairs, %d frames whose hop key is shorter than their padded path", pairs, folded)
	}
}

// TestPathKeyEncodingMatchesSpec: bytes.Compare on the frontier's key
// encoding is exactly cPathLess on pathEntry-packed (thread, index)
// slices — including the shorter-prefix-first tiebreak.
func TestPathKeyEncodingMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randPath := func() []int32 {
		p := make([]int32, rng.Intn(6))
		for i := range p {
			p[i] = pathEntry(int32(rng.Intn(8)), int32(rng.Intn(1<<12)))
		}
		return p
	}
	encode := func(p []int32) []byte {
		var buf []byte
		for _, entry := range p {
			buf = cAppendPathEntry(buf, entry)
		}
		return buf
	}
	for trial := 0; trial < 5000; trial++ {
		a, b := randPath(), randPath()
		cmp := bytes.Compare(encode(a), encode(b))
		want := 0
		if cPathLess(a, b) {
			want = -1
		} else if cPathLess(b, a) {
			want = 1
		}
		if cmp != want {
			t.Fatalf("trial %d: bytes.Compare=%d, cPathLess spec says %d\n  a=%v\n  b=%v",
				trial, cmp, want, a, b)
		}
	}
}

// TestPathKeyRoundTrip: cDecodePathKey inverts the encoding.
func TestPathKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		p := make([]int32, rng.Intn(10))
		for i := range p {
			p[i] = pathEntry(int32(rng.Intn(1<<14)), int32(rng.Intn(1<<16)))
		}
		var buf []byte
		for _, entry := range p {
			buf = cAppendPathEntry(buf, entry)
		}
		got := cDecodePathKey(buf)
		if len(got) == 0 && len(p) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("trial %d: round trip %v -> %v", trial, p, got)
		}
	}
}

// TestCompactVisitedShrinkOnly: Bloom false positives only ever prune,
// so the compact visited set explores a subset of the exact search's
// states, never flips a reachable failure to Safe at healthy filter
// sizes, and never fabricates a failure even when starved. Bounded mode
// mixes the scheduling context into the fingerprint before the filter
// sees it, so the property must hold there too.
func TestCompactVisitedShrinkOnly(t *testing.T) {
	errors := 0
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for _, shape := range []Options{
			{ContextBound: -1},
			{ContextBound: 2},
		} {
			for _, w := range []int{0, 8} {
				base := shape
				base.SearchWorkers = w
				base.MaxStates = 100000
				exact := Check(compile(t, src), base)
				healthyOpts := base
				healthyOpts.VisitedCompact = true
				healthyOpts.VisitedBytes = 1 << 20
				healthy := Check(compile(t, src), healthyOpts)
				tinyOpts := base
				tinyOpts.VisitedCompact = true
				tinyOpts.VisitedBytes = 64
				tiny := Check(compile(t, src), tinyOpts)

				if healthy.States > exact.States {
					t.Errorf("seed %d bound %d workers %d: healthy compact explored more states (%d) than exact (%d)",
						seed, shape.ContextBound, w, healthy.States, exact.States)
				}
				if tiny.States > exact.States {
					t.Errorf("seed %d bound %d workers %d: starved compact explored more states (%d) than exact (%d)",
						seed, shape.ContextBound, w, tiny.States, exact.States)
				}
				if exact.Verdict == ResourceBound {
					continue
				}
				if healthy.Verdict != exact.Verdict {
					t.Errorf("seed %d bound %d workers %d: healthy compact verdict %v, exact %v\n%s",
						seed, shape.ContextBound, w, healthy.Verdict, exact.Verdict, src)
				}
				if exact.Verdict == Error {
					errors++
				}
				if tiny.Verdict == Error && exact.Verdict != Error {
					t.Errorf("seed %d bound %d workers %d: starved compact invented a failure\n%s",
						seed, shape.ContextBound, w, src)
				}
				if healthy.Memory == nil || healthy.Memory.VisitedMode != "compact" {
					t.Errorf("seed %d bound %d workers %d: compact run missing memory diagnostics: %+v",
						seed, shape.ContextBound, w, healthy.Memory)
				}
			}
		}
	}
	if errors == 0 {
		t.Error("no erroring programs; verdict preservation vacuous")
	}
}
