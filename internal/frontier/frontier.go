// Package frontier provides the depth-bucketed, disk-spilling frontier
// queue of the breadth-first level engine (concheck's checkLevel, in both
// step modes).
//
// The queue holds frames in per-depth buckets. Past a configurable in-RAM
// byte budget it serializes the largest bucket's frames (a payload
// supplied by the engine's codec) to an on-disk run and frees the RAM
// copies; a bucket may accumulate several runs. Draining a bucket streams
// its frames back in arrival order: a run holds a contiguous
// arrival-order prefix of the bucket's frames (a spill always flushes the
// whole resident portion), so the runs in creation order followed by the
// resident tail *is* arrival order.
//
// Spilling is strictly an eviction policy: it never reorders, drops, or
// duplicates frames, so a search with spilling enabled returns the same
// Result as one with the budget disabled. Spill write failures (disk
// full, unwritable dir) degrade the queue to pure in-RAM operation — the
// search keeps its answer and loses only the memory bound. Read failures
// on a successfully written run would lose frames silently, so they
// panic instead.
package frontier

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Codec adapts the queue to one engine's frame type.
type Codec[T any] struct {
	// Encode appends the frame's payload to buf and returns the extended
	// slice (buf may be nil). The engine puts everything a restored frame
	// needs here, including the padded path its trace replays.
	Encode func(item T, buf []byte) []byte
	// Decode rebuilds a frame of bucket depth `depth` from its payload.
	// The byte slice is only valid during the call.
	Decode func(payload []byte, depth int) T
	// Size estimates the frame's resident bytes for budget accounting.
	Size func(item T) int
}

// Config configures a Queue.
type Config struct {
	// BudgetBytes is the in-RAM budget; pushing past it spills. <= 0
	// disables spilling entirely: the queue is then a plain in-memory
	// bucket map and never calls Encode/Size.
	BudgetBytes int64
	// Dir is where spill runs are created (a private temp directory
	// underneath it); empty selects the system temp directory.
	Dir string
}

// Stats are the queue's cumulative spill metrics. All fields are
// deterministic for a fixed config: spill decisions depend only on the
// push sequence and the codec's size estimates, both of which the
// engines' single-threaded commit loops make identical at every worker
// count.
type Stats struct {
	SpilledBytes  int64 // run bytes written
	SpilledFrames int64 // frames serialized to runs
	Runs          int64 // runs written
	PeakRAMBytes  int64 // resident-byte high-water mark
}

// runWriterBuf sizes the bufio layer of run writers and readers.
const runWriterBuf = 256 << 10

type run struct {
	f      *os.File
	frames int
}

type bucket[T any] struct {
	items []T
	ram   int64
	runs  []*run
	n     int // total frames, resident + spilled
}

// Queue is a depth-bucketed frontier with optional disk spilling. Not
// safe for concurrent use: the engines push only from their
// single-threaded commit loops.
type Queue[T any] struct {
	cfg    Config
	codec  Codec[T]
	bks    map[int]*bucket[T]
	n      int
	ram    int64
	dir    string // private spill dir, created on first spill
	st     Stats
	broken bool // a spill write failed: stay in RAM from now on
	encBuf []byte
	// drained buckets that own run files; Close closes them too so an
	// engine returning early mid-stream never leaks file handles.
	drained []*Bucket[T]
}

// New returns an empty queue.
func New[T any](cfg Config, codec Codec[T]) *Queue[T] {
	return &Queue[T]{cfg: cfg, codec: codec, bks: map[int]*bucket[T]{}}
}

// Len returns the number of queued frames (drained buckets excluded).
func (q *Queue[T]) Len() int { return q.n }

// MinDepth returns the shallowest non-empty bucket's depth.
func (q *Queue[T]) MinDepth() (int, bool) {
	depth, ok := 0, false
	for d := range q.bks {
		if !ok || d < depth {
			depth, ok = d, true
		}
	}
	return depth, ok
}

// Stats returns the cumulative spill metrics.
func (q *Queue[T]) Stats() Stats { return q.st }

// Push appends a frame to the bucket at depth.
func (q *Queue[T]) Push(depth int, item T) {
	b := q.bks[depth]
	if b == nil {
		b = &bucket[T]{}
		q.bks[depth] = b
	}
	b.items = append(b.items, item)
	b.n++
	q.n++
	if q.cfg.BudgetBytes <= 0 || q.broken {
		return
	}
	sz := int64(q.codec.Size(item))
	b.ram += sz
	q.ram += sz
	if q.ram > q.st.PeakRAMBytes {
		q.st.PeakRAMBytes = q.ram
	}
	for q.ram > q.cfg.BudgetBytes && !q.broken {
		v := q.victim()
		if v == nil {
			return
		}
		q.spill(v)
	}
}

// victim picks the bucket to spill: the one holding the most resident
// bytes (deepest on ties — deeper buckets are drained last).
func (q *Queue[T]) victim() *bucket[T] {
	var v *bucket[T]
	vd := 0
	for d, b := range q.bks {
		if len(b.items) == 0 {
			continue
		}
		if v == nil || b.ram > v.ram || (b.ram == v.ram && d > vd) {
			v, vd = b, d
		}
	}
	return v
}

// spill writes b's resident frames as one run and frees them. On a write
// failure the resident frames stay in RAM, the partial run file is
// discarded, and the queue degrades to in-RAM operation.
func (q *Queue[T]) spill(b *bucket[T]) {
	if q.dir == "" {
		dir, err := os.MkdirTemp(q.cfg.Dir, "kiss-frontier-")
		if err != nil {
			q.broken = true
			return
		}
		q.dir = dir
	}
	f, err := os.CreateTemp(q.dir, "run-")
	if err != nil {
		q.broken = true
		return
	}
	w := bufio.NewWriterSize(f, runWriterBuf)
	var werr error
	var hdr [binary.MaxVarintLen64]byte
	written := int64(0)
	for i := range b.items {
		q.encBuf = q.codec.Encode(b.items[i], q.encBuf[:0])
		n := binary.PutUvarint(hdr[:], uint64(len(q.encBuf)))
		if _, werr = w.Write(hdr[:n]); werr != nil {
			break
		}
		if _, werr = w.Write(q.encBuf); werr != nil {
			break
		}
		written += int64(n + len(q.encBuf))
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr != nil {
		f.Close()
		os.Remove(f.Name())
		q.broken = true
		return
	}
	b.runs = append(b.runs, &run{f: f, frames: len(b.items)})
	q.st.SpilledBytes += written
	q.st.SpilledFrames += int64(len(b.items))
	q.st.Runs++
	q.ram -= b.ram
	b.ram = 0
	clear(b.items)
	b.items = b.items[:0]
}

// Drain removes and returns the bucket at depth as a streaming cursor.
// The bucket's frames stop counting toward Len and the RAM budget; the
// engine processes them chunk by chunk while pushing successors back
// into the queue. Draining an absent depth returns an empty bucket.
func (q *Queue[T]) Drain(depth int) *Bucket[T] {
	b := q.bks[depth]
	if b == nil {
		return &Bucket[T]{}
	}
	delete(q.bks, depth)
	q.n -= b.n
	q.ram -= b.ram
	out := &Bucket[T]{q: q, depth: depth, items: b.items, n: b.n, runs: b.runs}
	if len(b.runs) == 0 {
		return out
	}
	out.nextRun()
	q.drained = append(q.drained, out)
	return out
}

// Close releases the spill directory and every run in it. Buckets not yet
// drained are discarded; drained buckets still streaming are closed.
func (q *Queue[T]) Close() {
	for _, b := range q.bks {
		for _, r := range b.runs {
			r.f.Close()
		}
	}
	for _, b := range q.drained {
		b.Close()
	}
	q.drained = nil
	q.bks = map[int]*bucket[T]{}
	q.n, q.ram = 0, 0
	if q.dir != "" {
		os.RemoveAll(q.dir)
		q.dir = ""
	}
}

// runReader streams one run's records; payload is valid until the next
// call to next.
type runReader struct {
	r       *bufio.Reader
	left    int
	payload []byte
}

func newRunReader(r *run) *runReader {
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		panic(fmt.Sprintf("frontier: run seek failed: %v", err))
	}
	rd := &runReader{r: bufio.NewReaderSize(r.f, runWriterBuf), left: r.frames}
	if !rd.next() {
		return nil
	}
	return rd
}

// next advances to the next record, reporting false at end of run.
func (rd *runReader) next() bool {
	if rd.left == 0 {
		return false
	}
	rd.left--
	pn, err := binary.ReadUvarint(rd.r)
	if err != nil {
		panic(fmt.Sprintf("frontier: corrupt spill run: %v", err))
	}
	rd.payload = grow(rd.payload, int(pn))
	if _, err := io.ReadFull(rd.r, rd.payload); err != nil {
		panic(fmt.Sprintf("frontier: corrupt spill run: %v", err))
	}
	return true
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// Bucket streams one drained bucket's frames in arrival order.
type Bucket[T any] struct {
	q      *Queue[T]
	depth  int
	items  []T
	pos    int
	n      int
	runs   []*run
	rd     *runReader // the run being read; nil once every run is read
	runIdx int        // next run to open
	out    []T
}

// Len returns the bucket's total frame count (resident + spilled).
func (b *Bucket[T]) Len() int { return b.n }

// nextRun opens the next non-empty run, oldest first, or sets rd to nil
// when none is left.
func (b *Bucket[T]) nextRun() {
	b.rd = nil
	for b.rd == nil && b.runIdx < len(b.runs) {
		b.rd = newRunReader(b.runs[b.runIdx])
		b.runIdx++
	}
}

// Next returns the next chunk of up to max frames in arrival order. The
// slice is reused by the following Next call; the engines copy anything
// they retain. A fully resident bucket is returned as a single chunk
// regardless of max — with spilling disabled this makes the engines'
// chunk loop degenerate to exactly one whole-bucket pass.
func (b *Bucket[T]) Next(max int) []T {
	if len(b.runs) == 0 {
		if b.pos > 0 || len(b.items) == 0 {
			return nil
		}
		b.pos = len(b.items)
		return b.items
	}
	// The runs in creation order, then the resident tail.
	b.out = b.out[:0]
	for len(b.out) < max {
		if b.rd != nil {
			b.out = append(b.out, b.q.codec.Decode(b.rd.payload, b.depth))
			if !b.rd.next() {
				b.nextRun()
			}
			continue
		}
		if b.pos >= len(b.items) {
			break
		}
		b.out = append(b.out, b.items[b.pos])
		b.pos++
	}
	return b.out
}

// Close deletes the bucket's runs.
func (b *Bucket[T]) Close() {
	for _, r := range b.runs {
		r.f.Close()
		os.Remove(r.f.Name())
	}
	b.runs = nil
	b.rd = nil
	b.items = nil
	b.out = nil
}
