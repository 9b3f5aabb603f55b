package visited

import (
	"math/rand"
	"testing"
)

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestTableMatchesMap checks Table against a map[uint64]struct{} over
// random fingerprints mixed with 0 and with keys equal in their low 32
// bits, through growth from empty past several doublings: Seen and
// Contains answer as the map does and Len agrees after every insert.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table
	ref := map[uint64]struct{}{}
	var keys []uint64
	key := func() uint64 {
		switch r := rng.Intn(10); {
		case r == 0:
			return 0
		case r < 3 && len(keys) > 0:
			return keys[rng.Intn(len(keys))] // a repeat
		case r < 6:
			return uint64(rng.Intn(64))<<32 | 0x5bd1e995 // same low bits
		default:
			return rng.Uint64()
		}
	}
	const inserts = 20000 // about eleven doublings past minTableSlots
	for i := 0; i < inserts; i++ {
		fp := key()
		probe := rng.Uint64()
		if got, want := tab.Contains(probe), has(ref, probe); got != want {
			t.Fatalf("Contains(%#x) before insert %d = %v, want %v", probe, i, got, want)
		}
		_, want := ref[fp]
		if got := tab.Seen(fp); got != want {
			t.Fatalf("Seen(%#x) at insert %d = %v, want %v", fp, i, got, want)
		}
		ref[fp] = struct{}{}
		keys = append(keys, fp)
		if !tab.Contains(fp) {
			t.Fatalf("Contains(%#x) false right after its insert", fp)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("Len = %d after insert %d, want %d", tab.Len(), i, len(ref))
		}
	}
	if len(tab.slots) < 8*minTableSlots {
		t.Fatalf("table has %d slots: fewer doublings than the test means to cover", len(tab.slots))
	}
	for fp := range ref {
		if !tab.Contains(fp) || !tab.Seen(fp) {
			t.Fatalf("fingerprint %#x lost", fp)
		}
	}
}

func has(m map[uint64]struct{}, fp uint64) bool {
	_, ok := m[fp]
	return ok
}

// TestTableZeroValue: the zero Table is an empty set, and the
// fingerprint 0 (the empty-slot marker) is a member like any other.
func TestTableZeroValue(t *testing.T) {
	var tab Table
	if tab.Len() != 0 || tab.Contains(0) || tab.Contains(1) {
		t.Fatal("zero Table is not empty")
	}
	if tab.Seen(0) || !tab.Seen(0) || !tab.Contains(0) || tab.Len() != 1 {
		t.Fatal("fingerprint 0 not kept exactly once")
	}
	if tab.slots != nil {
		t.Error("inserting 0 allocated slots")
	}
}

// TestTableSeenAllocatesNothing: once sized, Seen and Contains
// allocate nothing, for fresh and repeated fingerprints alike.
func TestTableSeenAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var tab Table
	fps := make([]uint64, 1024)
	for i := range fps {
		fps[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	for _, fp := range fps[:512] {
		tab.Seen(fp)
	}
	// The 501 calls (one warms up) see fps[256:757]: 256 repeats, then
	// fresh inserts that stay below the 3/4 growth threshold of the
	// 1024 slots.
	i := 256
	allocs := testing.AllocsPerRun(500, func() {
		tab.Seen(fps[i])
		tab.Contains(fps[(i+7)%1024])
		i++
	})
	if len(tab.slots) != 1024 {
		t.Fatalf("table grew to %d slots during the count", len(tab.slots))
	}
	if allocs != 0 {
		t.Errorf("steady-state Seen allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkSeen compares a Table with the map[uint64]struct{} it
// replaces in the depth-first search, on the search's pattern: a stream
// of fingerprints, about one in four already seen, into a set that grows
// from empty to a million entries.
func BenchmarkSeen(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	fps := make([]uint64, n)
	for i := range fps {
		if i > 0 && rng.Intn(4) == 0 {
			fps[i] = fps[rng.Intn(i)]
		} else {
			fps[i] = rng.Uint64()
		}
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		var tab Table
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				tab = Table{}
			}
			tab.Seen(fps[i%n])
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		m := map[uint64]struct{}{}
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				m = map[uint64]struct{}{}
			}
			fp := fps[i%n]
			if _, ok := m[fp]; !ok {
				m[fp] = struct{}{}
			}
		}
	})
}
