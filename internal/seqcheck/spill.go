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
// selection, and trace reconstruction by replay.
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
// first reported failure) bit-identical to the unspilled search.
//
// Nodes hold no events. Every counterexample trace, under a restored
// node or not, is rebuilt by replaying the failing state's padded path
// from the initial state: each entry is the raw successor index the
// per-statement search took at that micro step, so the replay spells
// exactly the events of the path the search took.

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

// appendPath appends nd's padded path (root-first) to dst: a restored
// root's base path, then each hop's folded indices and final index. One
// walk up the chain sizes the path; a second fills it from the end.
func appendPath(dst []int32, nd *node) []int32 {
	n, root := 0, nd
	for ; root.parent != nil; root = root.parent {
		n += len(root.prefixIdx) + 1
	}
	if root.base != nil {
		dst = append(dst, root.base.path...)
	}
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	dst = dst[:end]
	for cur := nd; cur.parent != nil; cur = cur.parent {
		end--
		dst[end] = cur.idx
		end -= len(cur.prefixIdx)
		copy(dst[end:], cur.prefixIdx)
	}
	return dst
}

// appendPaddedPath appends nd's padded path as an entry count followed
// by the entries in key encoding. scratch is appendPath's buffer; the
// possibly regrown scratch is returned.
func appendPaddedPath(buf []byte, scratch []int32, nd *node) ([]byte, []int32) {
	scratch = appendPath(scratch[:0], nd)
	buf = binary.AppendUvarint(buf, uint64(len(scratch)))
	buf = slices.Grow(buf, 4*len(scratch))
	for _, idx := range scratch {
		buf = appendPathIdx(buf, idx)
	}
	return buf, scratch
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
	// The queue calls Key and Encode from one goroutine, so each keeps
	// one scratch buffer.
	var scratch []byte
	var pathScratch []int32
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
			buf, pathScratch = appendPaddedPath(buf, pathScratch, f.nd)
			return sem.AppendSnapshot(buf, f.st)
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
// the initial state, returning the event sequence it spells. It is how
// every counterexample trace is built: nodes keep only indices, so the
// events are rebuilt once per reported failure, O(depth).
func replayPath(c *sem.Compiled, path []int32) []sem.Event {
	st := sem.NewState(c)
	evs := make([]sem.Event, 0, len(path)+1)
	for _, idx := range path {
		sr := sem.Step(st, 0)
		if sr.Failure != nil || int(idx) >= len(sr.Outcomes) {
			panic(fmt.Sprintf("seqcheck: path does not replay (idx %d of %d outcomes)",
				idx, len(sr.Outcomes)))
		}
		out := sr.Outcomes[idx]
		evs = append(evs, out.Event)
		st = out.State
	}
	return evs
}

// failAt reports fail, reached from nd's state by a fold through the
// successor indices prefixIdx (nil for an unfolded step), as res's Error
// verdict. The trace is nd's padded path and prefixIdx replayed from the
// initial state, followed by the failing statement.
func failAt(c *sem.Compiled, res *Result, nd *node, prefixIdx []int32, fail *sem.Failure) *Result {
	path := append(appendPath(nil, nd), prefixIdx...)
	if replayHook != nil {
		replayHook(path)
	}
	res.Verdict = Error
	res.Failure = fail
	res.Trace = append(replayPath(c, path), sem.Event{
		Kind:     sem.EvStmt,
		ThreadID: fail.ThreadID,
		Fn:       fail.Fn,
		Pos:      fail.Pos,
		Text:     fail.Msg,
	})
	return res
}

// replayHook, when set, sees the padded path of every trace failAt
// replays; tests use it to count replays.
var replayHook func(path []int32)

// newVisited selects the visited store for this search's options.
func newVisited(opts Options) visited.Store {
	if !opts.VisitedCompact {
		return visited.New(visited.DefaultShards)
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
