// Package frontier provides the depth-bucketed, disk-spilling frontier
// queue shared by the breadth-first search engines (seqcheck and concheck,
// both the per-statement level queues and the macro-step bucket queues).
//
// The queue holds frames in per-depth buckets. Past a configurable in-RAM
// byte budget it serializes the largest bucket's frames (order key + state
// snapshot payload, both supplied by an engine codec) to an on-disk run
// and frees the RAM copies; a bucket may accumulate several runs. Draining
// a bucket streams its frames back in the engine's processing order:
//
//   - Ordered buckets (the macro engines' micro-depth buckets) sort the
//     resident frames by key and k-way merge them with the runs, each of
//     which was sorted before it was written. Keys are the engines' hop
//     keys (one successor index per stored-node hop) such that
//     bytes.Compare reproduces the order of the frames' padded
//     successor-index paths, so the merged stream is byte-identical to
//     sorting the whole bucket in RAM — which is what keeps shortest
//     traces and first-error-wins bit-identical at every worker count
//     and every budget.
//
//   - FIFO buckets (the per-statement engines' level queues) preserve
//     arrival order: a run holds a contiguous arrival-order prefix of the
//     bucket (a spill always flushes the whole resident portion), so runs
//     concatenated in creation order followed by the resident tail *is*
//     arrival order.
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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Codec adapts the queue to one engine's frame type. Key and Encode
// append to buf and return the extended slice (buf may be nil).
type Codec[T any] struct {
	// Key appends the frame's within-bucket order key. In Ordered mode
	// keys must be unique within a bucket and bytes.Compare on them must
	// reproduce the engine's processing order; in FIFO mode the key is
	// not compared but still spilled and handed back (the engines store
	// the hop key here, which a restored frame's descendants extend).
	Key func(item T, buf []byte) []byte
	// Encode appends the frame's payload (everything except the key; the
	// engines put the padded path that trace reconstruction of a
	// restored frame replays here).
	Encode func(item T, buf []byte) []byte
	// Decode rebuilds a frame of bucket depth `depth` from its key and
	// payload. The byte slices are only valid during the call.
	Decode func(key, payload []byte, depth int) T
	// Size estimates the frame's resident bytes for budget accounting.
	Size func(item T) int
}

// Config configures a Queue.
type Config struct {
	// BudgetBytes is the in-RAM budget; pushing past it spills. <= 0
	// disables spilling entirely: the queue is then a plain in-memory
	// bucket map and never calls Key/Encode/Size.
	BudgetBytes int64
	// Dir is where spill runs are created (a private temp directory
	// underneath it); empty selects the system temp directory.
	Dir string
	// Ordered selects key-ordered draining (macro bucket queues); false
	// selects arrival-order draining (per-statement level queues).
	Ordered bool
}

// Stats are the queue's cumulative spill metrics. All fields are
// deterministic for a fixed config: spill decisions depend only on the
// push sequence and the codec's size estimates, both of which the
// engines' single-threaded commit loops make identical at every worker
// count.
type Stats struct {
	SpilledBytes  int64 // run bytes written
	SpilledFrames int64 // frames serialized to runs
	Runs          int64 // runs written (merge outputs included)
	MergePasses   int64 // pre-merge passes run to respect the fan-in cap
	PeakRAMBytes  int64 // resident-byte high-water mark
}

// maxFanIn caps how many runs a drain merges at once; buckets that
// accumulated more are pre-merged (oldest first) until they fit.
const maxFanIn = 16

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
	keys := make([][]byte, len(b.items))
	for i := range b.items {
		keys[i] = q.codec.Key(b.items[i], nil)
	}
	if q.cfg.Ordered {
		sort.Sort(&spillSort[T]{items: b.items, keys: keys})
	}
	f, err := os.CreateTemp(q.dir, "run-")
	if err != nil {
		q.broken = true
		return
	}
	w := bufio.NewWriterSize(f, runWriterBuf)
	var werr error
	var hdr [2 * binary.MaxVarintLen64]byte
	written := int64(0)
	for i := range b.items {
		q.encBuf = q.codec.Encode(b.items[i], q.encBuf[:0])
		n := binary.PutUvarint(hdr[:], uint64(len(keys[i])))
		n += binary.PutUvarint(hdr[n:], uint64(len(q.encBuf)))
		if _, werr = w.Write(hdr[:n]); werr != nil {
			break
		}
		if _, werr = w.Write(keys[i]); werr != nil {
			break
		}
		if _, werr = w.Write(q.encBuf); werr != nil {
			break
		}
		written += int64(n + len(keys[i]) + len(q.encBuf))
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
	if q.cfg.Ordered {
		out.sortResident()
	}
	if len(b.runs) == 0 {
		return out
	}
	// Respect the merge fan-in cap: pre-merge the oldest runs into one
	// until at most maxFanIn remain. FIFO runs are concatenated (they
	// are disjoint arrival-order segments, oldest first); ordered runs
	// are k-way merged.
	for len(out.runs) > maxFanIn {
		merged := q.mergeRuns(depth, out.runs[:maxFanIn])
		out.runs = append([]*run{merged}, out.runs[maxFanIn:]...)
		q.st.MergePasses++
	}
	out.open()
	q.drained = append(q.drained, out)
	return out
}

// mergeRuns merges rs into one new run file and deletes the inputs.
func (q *Queue[T]) mergeRuns(depth int, rs []*run) *run {
	f, err := os.CreateTemp(q.dir, "merge-")
	if err != nil {
		panic(fmt.Sprintf("frontier: cannot create merge run: %v", err))
	}
	w := bufio.NewWriterSize(f, runWriterBuf)
	frames := 0
	written := int64(0)
	if !q.cfg.Ordered {
		// Arrival order: straight concatenation, oldest run first.
		for _, r := range rs {
			if _, err := r.f.Seek(0, io.SeekStart); err != nil {
				panic(fmt.Sprintf("frontier: merge seek failed: %v", err))
			}
			n, err := io.Copy(w, bufio.NewReaderSize(r.f, runWriterBuf))
			if err != nil {
				panic(fmt.Sprintf("frontier: merge copy failed: %v", err))
			}
			written += n
			frames += r.frames
		}
	} else {
		readers := make([]*runReader, len(rs))
		for i, r := range rs {
			readers[i] = newRunReader(r)
		}
		var hdr [2 * binary.MaxVarintLen64]byte
		for {
			min := -1
			for i, rd := range readers {
				if rd == nil {
					continue
				}
				if min < 0 || bytes.Compare(rd.key, readers[min].key) < 0 {
					min = i
				}
			}
			if min < 0 {
				break
			}
			rd := readers[min]
			n := binary.PutUvarint(hdr[:], uint64(len(rd.key)))
			n += binary.PutUvarint(hdr[n:], uint64(len(rd.payload)))
			w.Write(hdr[:n])
			w.Write(rd.key)
			if _, err := w.Write(rd.payload); err != nil {
				panic(fmt.Sprintf("frontier: merge write failed: %v", err))
			}
			written += int64(n + len(rd.key) + len(rd.payload))
			frames++
			if !rd.next() {
				readers[min] = nil
			}
		}
	}
	if err := w.Flush(); err != nil {
		panic(fmt.Sprintf("frontier: merge flush failed: %v", err))
	}
	for _, r := range rs {
		r.f.Close()
		os.Remove(r.f.Name())
	}
	q.st.SpilledBytes += written
	q.st.Runs++
	return &run{f: f, frames: frames}
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

// spillSort sorts a bucket's resident frames and their keys together.
type spillSort[T any] struct {
	items []T
	keys  [][]byte
}

func (s *spillSort[T]) Len() int           { return len(s.items) }
func (s *spillSort[T]) Less(i, j int) bool { return bytes.Compare(s.keys[i], s.keys[j]) < 0 }
func (s *spillSort[T]) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// runReader streams one run's records; key/payload are valid until the
// next call to next.
type runReader struct {
	r       *bufio.Reader
	f       *os.File
	left    int
	key     []byte
	payload []byte
}

func newRunReader(r *run) *runReader {
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		panic(fmt.Sprintf("frontier: run seek failed: %v", err))
	}
	rd := &runReader{r: bufio.NewReaderSize(r.f, runWriterBuf), f: r.f, left: r.frames}
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
	kn, err := binary.ReadUvarint(rd.r)
	if err != nil {
		panic(fmt.Sprintf("frontier: corrupt spill run: %v", err))
	}
	pn, err := binary.ReadUvarint(rd.r)
	if err != nil {
		panic(fmt.Sprintf("frontier: corrupt spill run: %v", err))
	}
	rd.key = grow(rd.key, int(kn))
	rd.payload = grow(rd.payload, int(pn))
	if _, err := io.ReadFull(rd.r, rd.key); err != nil {
		panic(fmt.Sprintf("frontier: corrupt spill run: %v", err))
	}
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

// Bucket streams one drained bucket's frames in processing order.
type Bucket[T any] struct {
	q       *Queue[T]
	depth   int
	items   []T
	keys    [][]byte // resident keys, Ordered mode only
	pos     int
	n       int
	runs    []*run
	readers []*runReader // Ordered: one per run; FIFO: current run only
	runIdx  int          // FIFO: next run to open
	out     []T
	outKeys [][]byte
}

// Len returns the bucket's total frame count (resident + spilled).
func (b *Bucket[T]) Len() int { return b.n }

// sortResident computes the resident frames' keys and, in Ordered mode,
// sorts frames and keys together.
func (b *Bucket[T]) sortResident() {
	if b.q == nil || len(b.items) == 0 {
		return
	}
	b.keys = make([][]byte, len(b.items))
	for i := range b.items {
		b.keys[i] = b.q.codec.Key(b.items[i], nil)
	}
	if b.q.cfg.Ordered {
		sort.Sort(&spillSort[T]{items: b.items, keys: b.keys})
	}
}

// open prepares the run readers for streaming.
func (b *Bucket[T]) open() {
	if b.q.cfg.Ordered {
		for _, r := range b.runs {
			if rd := newRunReader(r); rd != nil {
				b.readers = append(b.readers, rd)
			}
		}
		return
	}
	// FIFO: runs are consumed one at a time, oldest first; the resident
	// tail follows the last run.
	b.runIdx = 0
	b.advanceFIFO()
}

func (b *Bucket[T]) advanceFIFO() {
	b.readers = b.readers[:0]
	for b.runIdx < len(b.runs) {
		r := b.runs[b.runIdx]
		b.runIdx++
		if rd := newRunReader(r); rd != nil {
			b.readers = append(b.readers, rd)
			return
		}
	}
}

// Next returns the next chunk of up to max frames in processing order,
// along with their order keys (Ordered buckets only; nil otherwise).
// Both slices are reused by the following Next call; the engines copy
// anything they retain. A fully resident bucket is returned as a single
// chunk regardless of max — with spilling disabled this makes the
// engines' chunk loop degenerate to exactly one whole-bucket pass.
func (b *Bucket[T]) Next(max int) ([]T, [][]byte) {
	if len(b.runs) == 0 {
		if b.pos > 0 || len(b.items) == 0 {
			return nil, nil
		}
		b.pos = len(b.items)
		return b.items, b.keys
	}
	b.out = b.out[:0]
	b.outKeys = b.outKeys[:0]
	if b.q.cfg.Ordered {
		for len(b.out) < max {
			// Pick the smallest key among the run heads and the resident
			// cursor. Keys are unique, so ties cannot happen.
			min := -1
			for i, rd := range b.readers {
				if rd == nil {
					continue
				}
				if min < 0 || bytes.Compare(rd.key, b.readers[min].key) < 0 {
					min = i
				}
			}
			if b.pos < len(b.items) &&
				(min < 0 || bytes.Compare(b.keys[b.pos], b.readers[min].key) < 0) {
				b.out = append(b.out, b.items[b.pos])
				b.outKeys = append(b.outKeys, b.keys[b.pos])
				b.pos++
				continue
			}
			if min < 0 {
				break
			}
			rd := b.readers[min]
			b.out = append(b.out, b.q.codec.Decode(rd.key, rd.payload, b.depth))
			b.outKeys = append(b.outKeys, append([]byte(nil), rd.key...))
			if !rd.next() {
				b.readers[min] = nil
			}
		}
		return b.out, b.outKeys
	}
	// FIFO: drain runs in creation order, then the resident tail.
	for len(b.out) < max {
		if len(b.readers) > 0 && b.readers[0] != nil {
			rd := b.readers[0]
			b.out = append(b.out, b.q.codec.Decode(rd.key, rd.payload, b.depth))
			if !rd.next() {
				b.advanceFIFO()
			}
			continue
		}
		if b.pos >= len(b.items) {
			break
		}
		b.out = append(b.out, b.items[b.pos])
		b.pos++
	}
	return b.out, nil
}

// Close deletes the bucket's runs.
func (b *Bucket[T]) Close() {
	for _, r := range b.runs {
		r.f.Close()
		os.Remove(r.f.Name())
	}
	b.runs = nil
	b.readers = nil
	b.items = nil
	b.keys = nil
	b.out = nil
	b.outKeys = nil
}
