package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"sync/atomic"

	kiss "repro"
)

// CacheKey derives the content address of one checking problem: the
// SHA-256 of the *canonicalized* source and the *normalized* config.
//
// The source half is the parsed program rendered back to concrete syntax
// (Program.Source), so submissions differing only in whitespace or
// formatting address the same entry. The config half is
// Config.CanonicalJSON, which strips runtime plumbing and folds the
// search-worker count into the engine it picks: every count >= 1 runs
// the breadth-first level engine, whose results are identical at every
// count, so 1 and 8 workers share an entry with bfs, while 0 (the
// depth-first loop) keys apart. The canonical form is version-stamped
// ("v":1), so entries from incompatible wire formats can never collide.
// A server keys the config Applied returns, not the submitted one.
//
// The key is exported because it is also the cluster's unit of routing:
// internal/coord consistent-hashes it to pick the owning backend, making
// each backend's LRU a shard of one distributed cache, and looks a job
// up on each backend with GET /v1/cache/{key} under the key that
// backend's own settings give it.
func CacheKey(canonSource string, cfg *kiss.Config) (string, error) {
	cj, err := cfg.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(canonSource))
	h.Write([]byte{0}) // unambiguous separator: 0 never appears in source text
	h.Write(cj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Applied returns cfg as a server started with searchWorkers
// (-search-workers) and memBudgetMB (-mem-budget-mb) runs it, which is
// the config its cache keys the job on: the server's worker count
// replaces the submitted one, and its memory ceiling replaces a larger
// or absent budget. cfg itself is not modified.
func Applied(cfg *kiss.Config, searchWorkers, memBudgetMB int) *kiss.Config {
	applied := *cfg
	applied.SearchWorkers = searchWorkers
	if memBudgetMB > 0 && (cfg.MemBudgetMB == 0 || cfg.MemBudgetMB > memBudgetMB) {
		applied.MemBudgetMB = memBudgetMB
	}
	return &applied
}

// entryOverhead approximates the per-entry bookkeeping bytes (map slot,
// list element, key copies) charged against the byte budget on top of
// the serialized result size.
const entryOverhead = 256

// resultCache is a content-addressed LRU cache of wire Results under a
// byte budget. Entries are immutable once stored: readers serialize
// them, nobody writes through them. Hit/miss/eviction counters are
// plain atomics so the metrics registry can sample them at scrape time
// without taking the cache lock.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  string
	res  *Result
	size int64
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached result for key, counting the hit or miss and
// refreshing recency on hit.
func (c *resultCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	c.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

// put stores res under key, evicting least-recently-used entries until
// the byte budget holds. A result bigger than the whole budget is not
// stored (it would evict everything and then still not fit). Storing an
// existing key refreshes the entry.
func (c *resultCache) put(key string, res *Result) {
	size := resultSize(res) + entryOverhead
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += size - old.size
		old.res, old.size = res, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, size: size})
		c.bytes += size
	}
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ev.key)
		c.bytes -= ev.size
		c.evictions.Add(1)
	}
}

// stats snapshots the counters for /healthz and tests.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	entries, bytes := len(c.items), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  c.maxBytes,
	}
}

// hitRatio is hits/(hits+misses), 0 before any lookup.
func (c *resultCache) hitRatio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// resultSize charges an entry by its serialized length — the honest
// measure of what a hit saves the network, and a stable proxy for heap
// footprint (the dominant fields, trace text and schedule, serialize
// near their in-memory size).
func resultSize(res *Result) int64 {
	b, err := json.Marshal(res)
	if err != nil {
		// Wire results are always marshalable (built from marshalable
		// parts); be conservative if that ever breaks.
		return 1 << 20
	}
	return int64(len(b))
}
