package visited

import (
	"math/rand"
	"testing"
)

// TestCompactNoFalseNegatives: everything inserted is found again — the
// filter can only err in the "seen" direction.
func TestCompactNoFalseNegatives(t *testing.T) {
	c := NewCompact(1 << 20)
	rng := rand.New(rand.NewSource(1))
	fps := make([]uint64, 20000)
	for i := range fps {
		fps[i] = rng.Uint64()
		c.Seen(fps[i])
	}
	for _, fp := range fps {
		if !c.Contains(fp) {
			t.Fatalf("false negative for %x", fp)
		}
		if !c.Seen(fp) {
			t.Fatalf("Seen(%x) false after insert", fp)
		}
	}
}

// TestCompactLenAndOccupancy: Len counts admitted fingerprints, and at
// reasonable load the false-positive estimate stays small.
func TestCompactLenAndOccupancy(t *testing.T) {
	c := NewCompact(1 << 20) // 8 Mbit for 100k states ≈ 84 bits/state
	rng := rand.New(rand.NewSource(2))
	n := 100000
	for i := 0; i < n; i++ {
		c.Seen(rng.Uint64())
	}
	if c.Len() > n || c.Len() < n*99/100 {
		t.Fatalf("Len = %d, want ≈ %d", c.Len(), n)
	}
	if occ := c.Occupancy(); occ <= 0 || occ >= 0.5 {
		t.Fatalf("occupancy = %v, want (0, 0.5)", occ)
	}
	if fp := c.EstFPRate(); fp > 0.01 {
		t.Fatalf("estimated FP rate %v too high for this load", fp)
	}
	if c.SizeBytes() > 1<<20 || c.SizeBytes() < 1<<19 {
		t.Fatalf("SizeBytes = %d, want within (512KiB, 1MiB]", c.SizeBytes())
	}
}

// TestCompactTinyFilterSaturates: a deliberately undersized filter
// reports high occupancy and a nonzero measured false-positive count
// under audit — the failure mode is visible, not silent.
func TestAuditedCountsFalsePositives(t *testing.T) {
	a := NewAudited(1 << 8) // one or two blocks: saturates immediately
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a.Seen(rng.Uint64())
	}
	if a.FalsePositives() == 0 {
		t.Fatal("saturated filter reported zero false positives under audit")
	}
	if a.Len() >= 5000 {
		t.Fatalf("Len = %d: saturated filter cannot have admitted everything", a.Len())
	}
	// And a healthy filter on the same stream has (almost surely) none.
	h := NewAudited(1 << 20)
	rng = rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Seen(rng.Uint64())
	}
	if h.FalsePositives() != 0 {
		t.Fatalf("healthy filter reported %d false positives on 5000 inserts", h.FalsePositives())
	}
}

// TestStoreInterface: all three variants satisfy Store.
func TestStoreInterface(t *testing.T) {
	for _, s := range []Store{New(0), NewCompact(1 << 16), NewAudited(1 << 16)} {
		if s.Seen(42) {
			t.Fatalf("%T: fresh fingerprint reported seen", s)
		}
		if !s.Contains(42) || !s.Seen(42) {
			t.Fatalf("%T: inserted fingerprint not found", s)
		}
		if s.Len() != 1 {
			t.Fatalf("%T: Len = %d, want 1", s, s.Len())
		}
	}
}

// TestCompactMeasuredFPRateMatchesEstimate inserts random fingerprints at
// a load where false positives are frequent enough to count (about 16 per
// block, occupancy ≈ 0.22) and probes with fresh ones: the measured rate
// must sit within a small factor of EstFPRate. Probe patterns that depend
// on only a few fingerprint bits fail this by an order of magnitude, since
// two fingerprints sharing a block and a pattern collide outright.
func TestCompactMeasuredFPRateMatchesEstimate(t *testing.T) {
	c := NewCompact(1 << 16) // 1024 blocks
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 16*1024; i++ {
		c.Seen(rng.Uint64())
	}
	const queries = 4_000_000
	fps := 0
	for i := 0; i < queries; i++ {
		if c.Contains(rng.Uint64()) {
			fps++
		}
	}
	got, est := float64(fps)/queries, c.EstFPRate()
	t.Logf("occupancy %.3f, measured FP rate %.3g, estimate %.3g", c.Occupancy(), got, est)
	if got > 2*est || got < est/2 {
		t.Fatalf("measured FP rate %.3g, EstFPRate %.3g: not within 2x", got, est)
	}
}
