package sem

import (
	"testing"
	"testing/quick"
)

// TestQuickSnapshotRoundTrip: a decoded snapshot is indistinguishable
// from the original state — same canonical fingerprint, and stepping both
// yields outcome-for-outcome fingerprint-identical successors (so a
// search that spills and restores a frame explores exactly the subtree it
// would have explored in RAM).
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64, walk uint16) bool {
		c, ok := compileSeed(t, seed)
		if !ok {
			return true
		}
		s := NewState(c)
		steps := int(walk % 64)
		x := uint64(seed)
		for i := 0; i < steps; i++ {
			if s.Threads[0].Done() {
				break
			}
			sr := Step(s, 0)
			if sr.Failure != nil || sr.Blocked || len(sr.Outcomes) == 0 {
				break
			}
			x = x*6364136223846793005 + 1442695040888963407
			s = sr.Outcomes[int(x>>33)%len(sr.Outcomes)]
		}

		enc := AppendSnapshot(nil, s)
		d, err := DecodeSnapshot(c, enc)
		if err != nil {
			t.Logf("seed %d: decode failed: %v", seed, err)
			return false
		}
		if d.FingerprintString() != s.FingerprintString() {
			t.Logf("seed %d: fingerprint mismatch after round trip", seed)
			return false
		}
		if s.Threads[0].Done() {
			return true
		}
		// Successor-for-successor identity, including failure/block shape.
		srA, evsA := StepEvents(s.Clone(), 0)
		srB, evsB := StepEvents(d, 0)
		if (srA.Failure == nil) != (srB.Failure == nil) ||
			srA.Blocked != srB.Blocked ||
			len(srA.Outcomes) != len(srB.Outcomes) {
			t.Logf("seed %d: step shape mismatch after round trip", seed)
			return false
		}
		for i := range srA.Outcomes {
			if srA.Outcomes[i].FingerprintString() != srB.Outcomes[i].FingerprintString() {
				t.Logf("seed %d: successor %d fingerprint mismatch", seed, i)
				return false
			}
			if evsA[i] != evsB[i] {
				t.Logf("seed %d: successor %d event mismatch", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotRejectsCorrupt: truncated or trailing-garbage snapshots
// fail loudly instead of yielding a half-built state.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	c, ok := compileSeed(t, 7)
	if !ok {
		t.Skip("seed 7 does not compile")
	}
	s := NewState(c)
	enc := AppendSnapshot(nil, s)
	if _, err := DecodeSnapshot(c, enc[:len(enc)/2]); err == nil {
		t.Error("truncated snapshot decoded without error")
	}
	if _, err := DecodeSnapshot(c, append(append([]byte{}, enc...), 0, 1, 2)); err == nil {
		t.Error("snapshot with trailing bytes decoded without error")
	}
}
