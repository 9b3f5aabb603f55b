package visited

import (
	"sync"
	"testing"
)

func TestSeenBasic(t *testing.T) {
	s := New(8)
	if s.Seen(42) {
		t.Error("fresh fingerprint reported as seen")
	}
	if !s.Seen(42) {
		t.Error("repeated fingerprint reported as fresh")
	}
	if got := s.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
}

func TestShardRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards},
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	}
	for _, tc := range cases {
		if got := New(tc.in).Shards(); got != tc.want {
			t.Errorf("New(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentExactlyOnce: N workers race to insert the same fingerprints;
// each fingerprint must be reported fresh exactly once overall.
func TestConcurrentExactlyOnce(t *testing.T) {
	const workers = 8
	const fps = 10000
	s := New(16)
	fresh := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < fps; i++ {
				// Mix so consecutive values spread across shards.
				fp := i * 0x9e3779b97f4a7c15
				if !s.Seen(fp) {
					fresh[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range fresh {
		total += n
	}
	if total != fps {
		t.Errorf("total fresh insertions = %d, want %d", total, fps)
	}
	if got := s.Len(); got != fps {
		t.Errorf("Len = %d, want %d", got, fps)
	}
	if s.Contention() < 0 {
		t.Error("negative contention counter")
	}
}

func TestShardSpread(t *testing.T) {
	s := New(16)
	for i := uint64(0); i < 1<<12; i++ {
		s.Seen(i * 0x9e3779b97f4a7c15)
	}
	// Every shard should hold something for a well-mixed input.
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n := s.shards[i].m.Len()
		s.shards[i].mu.Unlock()
		if n == 0 {
			t.Errorf("shard %d empty after 4096 well-mixed inserts", i)
		}
	}
}
