package visited

import (
	"math/bits"
	"sync/atomic"
)

// The compact visited set: a blocked Bloom filter over the 64-bit state
// fingerprints, ~8–16 bits per state instead of the exact set's 64-bit
// key plus map overhead. Its only failure mode is a false "seen" — a
// fresh state mistaken for a visited one and pruned. That is the same
// direction of unsoundness as 64-bit fingerprint hashing and as the KISS
// reduction itself (missed states, never false alarms), and the Audited
// wrapper quantifies it against a shadow exact set on small runs.
//
// Layout: the filter is an array of 512-bit (cache-line) blocks. A
// fingerprint selects one block with its high bits and sets compactProbes
// bits inside that block, so one lookup touches one cache line. The
// in-block positions are independent 9-bit fields of a re-mixed
// fingerprint (see probe), so every position bit varies independently of
// the others and of the block index. (Double hashing — probe i at
// h1 + i·h2 mod 512 — lets only the low 9 bits of h1 and of h2 choose the
// whole pattern, about 2^17 patterns per block; at the hard fields' load
// that made the measured false-positive rate ~10^6× the estimate.)
// Inserts happen only on the searches' single-threaded commit paths and
// lookups either there or during frozen-set expansion rounds, exactly
// like the exact Set's usage — the rounds' start/finish barriers order
// every write before every read, so the plain (non-atomic) word
// operations are race-free.

// Store is the visited-set interface the search engines program against;
// *Set (exact), *Compact, and *Audited implement it.
type Store interface {
	// Seen tests-and-inserts fp, reporting whether it was already present.
	Seen(fp uint64) bool
	// Contains reports membership without inserting (the frozen-round
	// prefilter).
	Contains(fp uint64) bool
	// Len returns the number of distinct fingerprints admitted.
	Len() int
	// Shards returns the shard count (1 for the unsharded variants).
	Shards() int
	// Contention returns the sharded set's lock-contention count (0 for
	// the unsharded variants).
	Contention() int64
}

// DefaultCompactBytes sizes the filter when no memory budget is given:
// 64 MiB ≈ 512 Mbit, comfortably past 12 bits/state for tens of millions
// of states.
const DefaultCompactBytes = 64 << 20

// compactProbes is the number of bits set per fingerprint. With the
// filter sized at 8–16 bits/state, 8 probes keep the false-positive rate
// in the 10⁻³–10⁻² range at full occupancy.
const compactProbes = 8

// blockWords is the 512-bit block size in 64-bit words (one cache line).
const blockWords = 8

// Compact is the blocked-Bloom visited set. Not safe for unsynchronized
// concurrent mutation; see the package note above for why the searches'
// barrier discipline makes it race-free there.
type Compact struct {
	words     []uint64
	blockMask uint64 // number of blocks - 1 (power of two)
	count     int    // distinct fingerprints admitted (Seen == false)
	setBits   int64  // bits actually flipped on, for occupancy stats
}

// NewCompact returns a filter of approximately `bytes` bytes, rounded
// down to a power-of-two block count (minimum one block); bytes <= 0
// selects DefaultCompactBytes.
func NewCompact(bytes int64) *Compact {
	if bytes <= 0 {
		bytes = DefaultCompactBytes
	}
	blocks := uint64(1)
	for blocks*2*blockWords*8 <= uint64(bytes) {
		blocks *= 2
	}
	return &Compact{
		words:     make([]uint64, blocks*blockWords),
		blockMask: blocks - 1,
	}
}

// probe returns the base word index of fp's block and the re-mixed word
// whose 9-bit fields give the first probeFields in-block positions.
func (c *Compact) probe(fp uint64) (base, r uint64) {
	// High bits pick the block; fold so that filters smaller than 2^32
	// blocks still see the top bits.
	block := (fp >> 32) & c.blockMask
	return block * blockWords, remix(fp)
}

// probeFields is how many 9-bit positions one re-mixed 64-bit word
// yields; the remaining probes come from re-mixing that word again.
const probeFields = 64 / 9

// remix is the splitmix64 finalizer: a bijection whose output bits each
// depend on every input bit, decorrelating the probe positions from the
// block-index bits and from each other.
func remix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Seen tests-and-inserts fp. A true return may be a false positive; a
// false return is always correct (the state really is new).
func (c *Compact) Seen(fp uint64) bool {
	base, r0 := c.probe(fp)
	present := true
	r := r0
	for i := 0; i < compactProbes; i++ {
		if i == probeFields {
			r = remix(r0)
		}
		bit := r & 511
		r >>= 9
		w := base + bit>>6
		mask := uint64(1) << (bit & 63)
		if c.words[w]&mask == 0 {
			present = false
			c.words[w] |= mask
			c.setBits++
		}
	}
	if present {
		return true
	}
	c.count++
	return false
}

// Contains reports membership without inserting.
func (c *Compact) Contains(fp uint64) bool {
	base, r0 := c.probe(fp)
	r := r0
	for i := 0; i < compactProbes; i++ {
		if i == probeFields {
			r = remix(r0)
		}
		bit := r & 511
		r >>= 9
		if c.words[base+bit>>6]&(uint64(1)<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of distinct fingerprints admitted (Seen calls
// that returned false). Unlike the exact set this undercounts by exactly
// the false positives — which is what makes the search's States counter
// and the visited counter agree in compact mode.
func (c *Compact) Len() int { return c.count }

// Shards returns 1: the filter is a single array.
func (c *Compact) Shards() int { return 1 }

// Contention returns 0: there are no locks.
func (c *Compact) Contention() int64 { return 0 }

// SizeBytes returns the filter's allocated size.
func (c *Compact) SizeBytes() int64 { return int64(len(c.words)) * 8 }

// Occupancy returns the fraction of filter bits set, the load figure the
// stats layer reports.
func (c *Compact) Occupancy() float64 {
	if len(c.words) == 0 {
		return 0
	}
	return float64(c.setBits) / float64(len(c.words)*64)
}

// EstFPRate estimates the false-positive probability of the next lookup
// of a fresh fingerprint as the mean over blocks of (block occupancy)^k.
// Probe positions are independent and uniform within a block, so this is
// the exact expectation; the global occupancy^k would understate it,
// since fuller-than-average blocks dominate the mean. It scans the whole
// filter, so callers take it once per run, for stats.
func (c *Compact) EstFPRate() float64 {
	if len(c.words) == 0 {
		return 0
	}
	var sum float64
	for b := 0; b < len(c.words); b += blockWords {
		n := 0
		for _, w := range c.words[b : b+blockWords] {
			n += bits.OnesCount64(w)
		}
		p := float64(n) / (blockWords * 64)
		r := 1.0
		for i := 0; i < compactProbes; i++ {
			r *= p
		}
		sum += r
	}
	return sum / float64(len(c.words)/blockWords)
}

// Audited wraps a Compact filter with a shadow exact set and counts real
// false positives: Seen answers exactly as the bare filter would (so an
// audited run explores the compact search's state set, not the exact
// one), while the shadow set records the truth. Meant for tests and
// small calibration runs — it restores the exact set's full memory cost.
type Audited struct {
	c     *Compact
	exact Table
	// fps is atomic: Contains runs on parallel expansion workers (the
	// shadow table is frozen then, but the counter is not).
	fps atomic.Int64
}

// NewAudited returns an audited compact set of approximately `bytes`
// bytes.
func NewAudited(bytes int64) *Audited {
	return &Audited{c: NewCompact(bytes)}
}

// Seen behaves exactly like the underlying Compact filter's Seen,
// additionally counting answers that an exact set would have given
// differently.
func (a *Audited) Seen(fp uint64) bool {
	hit := a.c.Seen(fp)
	if truth := a.exact.Seen(fp); hit && !truth {
		a.fps.Add(1)
	}
	return hit
}

// Contains behaves like the filter's Contains, counting false positives.
func (a *Audited) Contains(fp uint64) bool {
	hit := a.c.Contains(fp)
	if hit {
		if !a.exact.Contains(fp) {
			a.fps.Add(1)
		}
	}
	return hit
}

// Len returns the filter's admitted count (see Compact.Len).
func (a *Audited) Len() int { return a.c.Len() }

// Shards returns 1.
func (a *Audited) Shards() int { return 1 }

// Contention returns 0.
func (a *Audited) Contention() int64 { return 0 }

// FalsePositives returns how many filter answers disagreed with the
// shadow exact set.
func (a *Audited) FalsePositives() int64 { return a.fps.Load() }

// Filter exposes the underlying compact filter (for stats extraction).
func (a *Audited) Filter() *Compact { return a.c }
