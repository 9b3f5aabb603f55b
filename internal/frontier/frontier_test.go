package frontier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// rec is a synthetic frame: an arrival number plus a payload blob.
type rec struct {
	id      uint32
	payload []byte
}

func recCodec() Codec[rec] {
	return Codec[rec]{
		Encode: func(r rec, buf []byte) []byte {
			return append(binary.BigEndian.AppendUint32(buf, r.id), r.payload...)
		},
		Decode: func(payload []byte, depth int) rec {
			return rec{id: binary.BigEndian.Uint32(payload), payload: append([]byte(nil), payload[4:]...)}
		},
		Size: func(r rec) int { return 4 + len(r.payload) + 48 },
	}
}

// genRecs builds n records numbered in push order.
func genRecs(rng *rand.Rand, n int) []rec {
	out := make([]rec, n)
	for i := range out {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		out[i] = rec{id: uint32(i), payload: payload}
	}
	return out
}

// drainAll drains the bucket at depth in chunks of chunk frames and
// fails unless it yields exactly want, in order.
func drainAll(t *testing.T, q *Queue[rec], depth, chunk int, want []rec) {
	t.Helper()
	b := q.Drain(depth)
	defer b.Close()
	got := 0
	for {
		items := b.Next(chunk)
		if len(items) == 0 {
			break
		}
		for _, it := range items {
			if got >= len(want) {
				t.Fatalf("depth %d: more than %d records", depth, len(want))
			}
			if it.id != want[got].id || !bytes.Equal(it.payload, want[got].payload) {
				t.Fatalf("depth %d: record %d is #%d, want #%d in arrival order", depth, got, it.id, want[got].id)
			}
			got++
		}
	}
	if got != len(want) {
		t.Fatalf("depth %d: got %d records, want %d", depth, got, len(want))
	}
}

// TestFIFOSpillRoundTrip: a bucket preserves arrival order exactly
// through spills, across budgets (none, tiny, partial) and chunk sizes.
func TestFIFOSpillRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := genRecs(rng, 1000)

	for _, budget := range []int64{0, 1, 4 << 10, 64 << 10} {
		for _, chunk := range []int{1, 97, 1 << 30} {
			q := New(Config{BudgetBytes: budget, Dir: t.TempDir()}, recCodec())
			for _, r := range recs {
				q.Push(0, r)
			}
			if budget > 0 && budget < 32<<10 && q.Stats().SpilledFrames == 0 {
				t.Fatalf("budget %d: expected spilling, got none", budget)
			}
			drainAll(t, q, 0, chunk, recs)
			q.Close()
		}
	}
}

// TestMergeFanIn: a bucket that spilled many runs drains them one at a
// time, oldest first, so it still comes out in arrival order with no
// merge step.
func TestMergeFanIn(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	recs := genRecs(rng, 1500)
	// A 1-byte budget spills on nearly every push, producing hundreds of
	// runs.
	q := New(Config{BudgetBytes: 1, Dir: t.TempDir()}, recCodec())
	for _, r := range recs {
		q.Push(2, r)
	}
	st := q.Stats()
	if st.Runs < 100 {
		t.Fatalf("only %d runs; cannot exercise many-run draining", st.Runs)
	}
	drainAll(t, q, 2, 33, recs)
	if q.Stats() != st {
		t.Fatalf("draining changed the spill stats: %+v, then %+v", st, q.Stats())
	}
	q.Close()
}

// TestMultiBucketAccounting: Len/MinDepth track pushes and drains across
// buckets, spilled or not, and each bucket keeps its own arrival order.
func TestMultiBucketAccounting(t *testing.T) {
	q := New(Config{BudgetBytes: 256, Dir: t.TempDir()}, recCodec())
	rng := rand.New(rand.NewSource(3))
	perDepth := map[int][]rec{}
	for d := 3; d <= 7; d++ {
		rs := genRecs(rng, 50*d)
		perDepth[d] = rs
		for _, r := range rs {
			q.Push(d, r)
		}
	}
	total := 0
	for _, rs := range perDepth {
		total += len(rs)
	}
	if q.Len() != total {
		t.Fatalf("Len = %d, want %d", q.Len(), total)
	}
	for d := 3; d <= 7; d++ {
		md, ok := q.MinDepth()
		if !ok || md != d {
			t.Fatalf("MinDepth = %d,%v, want %d", md, ok, d)
		}
		drainAll(t, q, d, 11, perDepth[d])
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining everything", q.Len())
	}
	if _, ok := q.MinDepth(); ok {
		t.Fatal("MinDepth reports a bucket after draining everything")
	}
	q.Close()
}

// TestBrokenSpillDegradesToRAM: an unwritable spill dir must not lose
// frames — the queue keeps everything resident.
func TestBrokenSpillDegradesToRAM(t *testing.T) {
	q := New(Config{BudgetBytes: 1, Dir: fmt.Sprintf("%s/no/such/dir", t.TempDir())}, recCodec())
	rng := rand.New(rand.NewSource(9))
	recs := genRecs(rng, 500)
	for _, r := range recs {
		q.Push(1, r)
	}
	drainAll(t, q, 1, 64, recs)
	if q.Stats().SpilledFrames != 0 {
		t.Fatal("spilled despite unwritable dir")
	}
	q.Close()
}
