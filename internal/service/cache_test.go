package service

import (
	"fmt"
	"strings"
	"testing"

	kiss "repro"
)

// entry builds a wire Result whose serialized size is roughly n bytes.
func entry(n int) *Result {
	return &Result{Verdict: "safe", Message: strings.Repeat("x", n)}
}

// TestCacheLRUEviction: inserts beyond the byte budget must evict in
// least-recently-used order, counting evictions.
func TestCacheLRUEviction(t *testing.T) {
	payload := 1000
	per := resultSize(entry(payload)) + entryOverhead
	c := newResultCache(3 * per) // room for three entries

	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), entry(payload))
	}
	if s := c.stats(); s.Entries != 3 || s.Evictions != 0 {
		t.Fatalf("warmup: %+v", s)
	}

	// Touch k0 so k1 becomes LRU, then overflow.
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.put("k3", entry(payload))

	if _, ok := c.get("k1"); ok {
		t.Error("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if s := c.stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("after eviction: %+v", s)
	}
}

// TestCacheOversizeEntryNotStored: one result larger than the whole
// budget must be dropped, not evict the world.
func TestCacheOversizeEntryNotStored(t *testing.T) {
	c := newResultCache(2048)
	c.put("small", entry(100))
	c.put("huge", entry(1<<20))
	if _, ok := c.get("huge"); ok {
		t.Error("over-budget entry stored")
	}
	if _, ok := c.get("small"); !ok {
		t.Error("small entry evicted by rejected oversize put")
	}
}

// TestCacheUpdateExistingKey: re-putting a key replaces the value and
// adjusts the byte accounting instead of double-counting.
func TestCacheUpdateExistingKey(t *testing.T) {
	c := newResultCache(1 << 20)
	c.put("k", entry(100))
	b1 := c.stats().Bytes
	c.put("k", entry(5000))
	s := c.stats()
	if s.Entries != 1 {
		t.Errorf("entries = %d, want 1", s.Entries)
	}
	if s.Bytes <= b1 {
		t.Errorf("bytes not adjusted upward: %d -> %d", b1, s.Bytes)
	}
	res, ok := c.get("k")
	if !ok || len(res.Message) != 5000 {
		t.Error("update did not replace the value")
	}
}

// TestCacheKeyStability: the content address must be invariant under
// config normalization noise and sensitive to result-relevant knobs.
func TestCacheKeyStability(t *testing.T) {
	src := "canonical source text"
	a, err := CacheKey(src, kiss.NewConfig(kiss.WithMaxStates(100)))
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := CacheKey(src, kiss.NewConfig(kiss.WithMaxStates(100), kiss.WithBFS()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		b, err := CacheKey(src, kiss.NewConfig(kiss.WithMaxStates(100), kiss.WithSearchWorkers(w)))
		if err != nil {
			t.Fatal(err)
		}
		if b != bfs {
			t.Errorf("search workers %d and BFS have different content addresses", w)
		}
	}
	if a == bfs {
		t.Error("search workers 0 (depth-first) and BFS share a content address")
	}
	cDiff, err := CacheKey(src, kiss.NewConfig(kiss.WithMaxStates(101)))
	if err != nil {
		t.Fatal(err)
	}
	if a == cDiff {
		t.Error("budget change did not change the content address")
	}
	dDiff, err := CacheKey(src+" ", kiss.NewConfig(kiss.WithMaxStates(100)))
	if err != nil {
		t.Fatal(err)
	}
	if a == dDiff {
		t.Error("source change did not change the content address")
	}
}
