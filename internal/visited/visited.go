// Package visited provides the sharded visited set shared by the parallel
// state-space searches of internal/concheck.
//
// The set maps 64-bit state fingerprints to "seen". Sharding by fingerprint
// bits lets N workers deduplicate concurrently with contention limited to
// workers that happen to land on the same shard at the same instant; each
// shard is a Table, the flat open-addressed fingerprint set that the
// depth-first search uses on its own, behind its own mutex, so the
// single-worker fast path costs one uncontended lock more than a bare
// Table.
package visited

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used when New is given n <= 0. 64 keeps
// per-shard collision probability negligible for worker counts up to the
// tens while costing only 64 empty tables, which allocate nothing until
// their first insert, on small searches.
const DefaultShards = 64

type shard struct {
	mu sync.Mutex
	m  Table
	// Pad to a cache line so neighbouring shard locks do not false-share.
	_ [16]byte
}

// Set is a concurrency-safe set of uint64 fingerprints, sharded to reduce
// lock contention. The zero value is not usable; call New.
type Set struct {
	shards     []shard
	mask       uint64
	contention atomic.Int64
}

// New returns a Set with the given shard count rounded up to a power of
// two; n <= 0 selects DefaultShards.
func New(n int) *Set {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Set{shards: make([]shard, size), mask: uint64(size - 1)}
}

// shardFor folds the high fingerprint bits into the low ones before
// masking, so shard choice is not at the mercy of low-bit hash quality.
func (s *Set) shardFor(fp uint64) *shard {
	return &s.shards[(fp^fp>>32)&s.mask]
}

// Seen atomically tests-and-inserts fp, reporting whether it was already
// present. This is the only operation workers call on the hot path.
func (s *Set) Seen(fp uint64) bool {
	sh := s.shardFor(fp)
	if !sh.mu.TryLock() {
		// Another worker holds this shard: count the collision (the
		// stats layer reports it as shard contention) and queue up.
		s.contention.Add(1)
		sh.mu.Lock()
	}
	ok := sh.m.Seen(fp)
	sh.mu.Unlock()
	return ok
}

// Contains reports whether fp is in the set without inserting it. The
// parallel searches use it as the workers' prefilter: during an expansion
// round the set is frozen (only the commit loop inserts, between rounds),
// so a Contains answer is deterministic for a given round.
func (s *Set) Contains(fp uint64) bool {
	sh := s.shardFor(fp)
	if !sh.mu.TryLock() {
		s.contention.Add(1)
		sh.mu.Lock()
	}
	ok := sh.m.Contains(fp)
	sh.mu.Unlock()
	return ok
}

// Len returns the total number of fingerprints inserted. It takes every
// shard lock, so it is meant for per-level sampling, not per-state calls.
func (s *Set) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.m.Len()
		sh.mu.Unlock()
	}
	return n
}

// Shards returns the (power-of-two) shard count.
func (s *Set) Shards() int { return len(s.shards) }

// Contention returns how many Seen calls found their shard lock held by
// another worker — a direct measure of dedup contention for the stats
// layer. It is monotone and cheap to read.
func (s *Set) Contention() int64 { return s.contention.Load() }
