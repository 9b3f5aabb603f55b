package seqcheck

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/frontier"
	"repro/internal/sem"
	"repro/internal/stats"
	"repro/internal/visited"
)

// Memory-bounded search support for the BFS engines: the spilling
// frontier's codec (order key = the hop key, payload = the padded
// successor-index path and a sem state snapshot), the visited-store
// selection, and trace reconstruction for frames restored from disk.
//
// A frame's hop key holds one entry per stored-node hop from the root:
// the raw successor index of each edge's final step (node.idx). The macro
// bucket BFS must process a micro-depth bucket in the per-statement BFS's
// within-level order, lexicographic order on padded paths (pathLess), and
// the hop key gives that order at a fraction of the length. All children
// of a node come from its one fold and share its folded prefix, so two
// frames at the same micro depth (neither an ancestor of the other)
// first differ, on their padded paths, at the final edge index of their
// branches under their lowest common ancestor. That is exactly where
// their hop keys first differ.
//
// A spilled frame drops its trace-tree node chain — serializing parent
// pointers would drag the whole ancestor tree to disk — and keeps its hop
// key as its order key and its padded path in the payload. The restored
// frame's node is root-like: descendants' hop keys extend its base key,
// which keeps the bucket order (and therefore every counter and the
// first reported failure) bit-identical to the unspilled search. The
// event trace of a failure below a restored node is rebuilt by replaying
// its base path from the initial state: each entry is the raw successor
// index the per-statement search took at that micro step, so the
// replayed events are exactly the ones the in-RAM node chain would have
// held.

// frontierChunk is how many frames a spilled bucket is streamed in at a
// time. Fully resident buckets always arrive as one chunk, so with
// spilling disabled the chunk loop degenerates to the classic
// whole-bucket pass.
const frontierChunk = 4096

// pframeNodeBytes is the budget estimate for a frame's node and queue
// slot on top of its state.
const pframeNodeBytes = 96

// appendPathIdx appends one raw successor index in key encoding.
// Indices are non-negative, so 4-byte big-endian encoding makes
// bytes.Compare on keys agree with pathLess on index slices (including
// the shorter-prefix-first tie break).
func appendPathIdx(buf []byte, idx int32) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(idx))
}

// appendHopKey appends nd's hop key (root-first) in key encoding to buf,
// extending it by exactly the key's length. One walk up the chain fills
// the tail of scratch, which is then copied into place; a node has at
// most depth hops (each covers at least one micro step), which sizes
// scratch. It returns the extended buf and the possibly regrown scratch.
func appendHopKey(buf, scratch []byte, nd *node) ([]byte, []byte) {
	scratch = slices.Grow(scratch[:0], 4*nd.depth)[:4*nd.depth]
	i, root := len(scratch), nd
	for ; root.parent != nil; root = root.parent {
		i -= 4
		binary.BigEndian.PutUint32(scratch[i:], uint32(root.idx))
	}
	var base []byte
	if root.base != nil {
		base = root.base.key
	}
	buf = slices.Grow(buf, len(base)+len(scratch)-i)
	return append(append(buf, base...), scratch[i:]...), scratch
}

// appendPaddedPath appends nd's padded path (root-first) as an entry
// count followed by the entries in key encoding.
func appendPaddedPath(buf []byte, nd *node) []byte {
	n, root := 0, nd
	for ; root.parent != nil; root = root.parent {
		n += len(root.prefixIdx) + 1
	}
	var base []int32
	if root.base != nil {
		base = root.base.path
	}
	n += len(base)
	buf = binary.AppendUvarint(buf, uint64(n))
	end := len(buf) + 4*n
	buf = slices.Grow(buf, 4*n)
	for _, idx := range base {
		buf = appendPathIdx(buf, idx)
	}
	buf = buf[:end]
	for cur := nd; cur.parent != nil; cur = cur.parent {
		end -= 4
		binary.BigEndian.PutUint32(buf[end:], uint32(cur.idx))
		for j := len(cur.prefixIdx) - 1; j >= 0; j-- {
			end -= 4
			binary.BigEndian.PutUint32(buf[end:], uint32(cur.prefixIdx[j]))
		}
	}
	return buf
}

// decodePathKey decodes key-encoded entries back into raw successor
// indices.
func decodePathKey(key []byte) []int32 {
	out := make([]int32, len(key)/4)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(key[i*4:]))
	}
	return out
}

// decodePaddedPath splits a payload into the padded path appendPaddedPath
// wrote and the bytes after it.
func decodePaddedPath(payload []byte) ([]int32, []byte) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || uint64(len(payload)-k) < 4*n {
		panic("seqcheck: corrupt spilled frame: padded path")
	}
	end := k + 4*int(n)
	return decodePathKey(payload[k:end]), payload[end:]
}

// newSeqQueue builds the frontier queue for a seqcheck BFS engine;
// ordered selects hop-key order (the macro bucket engine) over arrival
// order (the per-statement level engine).
func newSeqQueue(c *sem.Compiled, opts Options, ordered bool) *frontier.Queue[pframe] {
	var scratch []byte // appendHopKey's; the queue calls Key from one goroutine
	return frontier.New(frontier.Config{
		BudgetBytes: opts.FrontierBudget,
		Dir:         opts.SpillDir,
		Ordered:     ordered,
	}, frontier.Codec[pframe]{
		Key: func(f pframe, buf []byte) []byte {
			buf, scratch = appendHopKey(buf, scratch, f.nd)
			return buf
		},
		Encode: func(f pframe, buf []byte) []byte {
			return sem.AppendSnapshot(appendPaddedPath(buf, f.nd), f.st)
		},
		Decode: func(key, payload []byte, depth int) pframe {
			path, snap := decodePaddedPath(payload)
			st, err := sem.DecodeSnapshot(c, snap)
			if err != nil {
				panic(fmt.Sprintf("seqcheck: corrupt spilled frame: %v", err))
			}
			return pframe{st: st, nd: &node{base: &spillBase{key: bytes.Clone(key), path: path}, depth: depth}}
		},
		Size: func(f pframe) int {
			return f.st.MemSize() + pframeNodeBytes
		},
	})
}

// replayPath re-executes the raw successor indices of a padded path from
// the initial state, returning the event sequence it spells. Used only
// to rebuild the trace prefix of a failure under a restored frame —
// O(depth) once per reported failure.
func replayPath(c *sem.Compiled, path []int32) []sem.Event {
	st := sem.NewState(c)
	evs := make([]sem.Event, 0, len(path))
	for _, idx := range path {
		sr := sem.Step(st, 0)
		if sr.Failure != nil || int(idx) >= len(sr.Outcomes) {
			panic(fmt.Sprintf("seqcheck: spilled path does not replay (idx %d of %d outcomes)",
				idx, len(sr.Outcomes)))
		}
		out := sr.Outcomes[idx]
		evs = append(evs, out.Event)
		st = out.State
	}
	return evs
}

// fullTrace is node.trace extended to chains rooted in a restored frame:
// the restored root's padded path is replayed and its events prepended.
func fullTrace(c *sem.Compiled, nd *node) []sem.Event {
	root := nd
	for root.parent != nil {
		root = root.parent
	}
	if root.base == nil || len(root.base.path) == 0 {
		return nd.trace()
	}
	if replayHook != nil {
		replayHook(root.base.path)
	}
	pre := replayPath(c, root.base.path)
	return append(pre, nd.trace()...)
}

// replayHook, when set, sees every restored frame's padded path fullTrace
// replays; tests use it to tell that the replay path ran.
var replayHook func(path []int32)

// newVisited selects the visited store for this search's options.
func newVisited(opts Options) visited.Store {
	if !opts.VisitedCompact {
		return visited.New(opts.NumShards)
	}
	if opts.AuditVisited {
		return visited.NewAudited(opts.VisitedBytes)
	}
	return visited.NewCompact(opts.VisitedBytes)
}

// memoryRecord assembles the Result.Memory diagnostics; nil when neither
// memory-bounding feature engaged.
func memoryRecord(opts Options, vis visited.Store, fst frontier.Stats) *stats.Memory {
	if !opts.VisitedCompact && opts.FrontierBudget <= 0 {
		return nil
	}
	m := &stats.Memory{VisitedMode: "exact"}
	var filter *visited.Compact
	switch v := vis.(type) {
	case *visited.Compact:
		filter = v
	case *visited.Audited:
		filter = v.Filter()
		m.VisitedFalsePositives = v.FalsePositives()
	}
	if filter != nil {
		m.VisitedMode = "compact"
		m.VisitedBytes = filter.SizeBytes()
		m.VisitedOccupancy = filter.Occupancy()
		m.VisitedFPRate = filter.EstFPRate()
	}
	if opts.FrontierBudget > 0 {
		m.SpillBudgetBytes = opts.FrontierBudget
		m.SpilledBytes = fst.SpilledBytes
		m.SpilledFrames = fst.SpilledFrames
		m.SpilledRuns = fst.Runs
		m.MergePasses = fst.MergePasses
		m.FrontierPeakRAM = fst.PeakRAMBytes
	}
	return m
}
