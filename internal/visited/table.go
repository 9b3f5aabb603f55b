package visited

import "math/bits"

// Table is an exact set of 64-bit fingerprints in one flat array: open
// addressing with linear probing over a power-of-two []uint64, where 0
// marks an empty slot and the fingerprint 0 itself is kept in a flag
// beside the array. Against a map[uint64]struct{} it saves the hashing of
// each key (a fingerprint is already a hash; one multiply spreads it over
// the slots) and holds no pointer for the garbage collector to scan. The
// zero Table is an empty set. A Table is not safe for concurrent use:
// the depth-first search owns one outright, and each shard of Set holds
// one behind its lock.
type Table struct {
	slots []uint64
	n     int   // nonzero fingerprints in slots
	shift uint8 // 64 - log2(len(slots))
	zero  bool  // whether the fingerprint 0 is in the set
}

// minTableSlots is the slot count of a Table's first allocation.
const minTableSlots = 16

// Seen tests-and-inserts fp, reporting whether it was already present.
func (t *Table) Seen(fp uint64) bool {
	if fp == 0 {
		seen := t.zero
		t.zero = true
		return seen
	}
	// Grow at a load of 3/4, which keeps linear probes short.
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	i, mask := t.home(fp), uint64(len(t.slots)-1)
	for {
		switch t.slots[i] {
		case fp:
			return true
		case 0:
			t.slots[i] = fp
			t.n++
			return false
		}
		i = (i + 1) & mask
	}
}

// Contains reports whether fp is in the set without inserting it.
func (t *Table) Contains(fp uint64) bool {
	if fp == 0 {
		return t.zero
	}
	if t.n == 0 {
		return false
	}
	i, mask := t.home(fp), uint64(len(t.slots)-1)
	for {
		switch t.slots[i] {
		case fp:
			return true
		case 0:
			return false
		}
		i = (i + 1) & mask
	}
}

// Len returns the number of fingerprints in the set.
func (t *Table) Len() int {
	if t.zero {
		return t.n + 1
	}
	return t.n
}

// home returns the first slot probed for the nonzero fingerprint fp: the
// top bits of fp times a 64-bit odd constant (Fibonacci hashing), so
// every bit of fp takes part, and fingerprints that agree in their low
// bits, such as those a shard of Set receives, still spread.
func (t *Table) home(fp uint64) uint64 {
	return (fp * 0x9e3779b97f4a7c15) >> t.shift
}

// grow doubles the slot array (or makes the first one) and reinserts
// every fingerprint.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]uint64, max(2*len(old), minTableSlots))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	mask := uint64(len(t.slots) - 1)
	for _, fp := range old {
		if fp == 0 {
			continue
		}
		i := t.home(fp)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = fp
	}
}
