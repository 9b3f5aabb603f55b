package concheck

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

// Memory-bounded search support for the interleaving BFS engines,
// mirroring internal/seqcheck/spill.go. The frontier key is the hop key:
// one pathEntry(ti, idx) per stored-node hop, packing the edge's thread
// and its final step's raw successor index into one non-negative int32,
// so 4-byte big-endian encoding makes bytes.Compare compare entries as
// cPathLess does. It orders a micro-depth bucket as the padded
// (thread, successor-index) path does: children of one node through the
// same thread share that thread's fold and differ at the final index,
// and children through different threads differ in the thread bits of
// their first entry, padded or hop. The payload is the scheduling
// context (last thread, consumed switches), the padded path, and a sem
// state snapshot. A node restored from disk is root-like, its hop key
// and padded path in base; the trace of a failure beneath it is rebuilt
// by replaying the path's (thread, index) entries from the initial state.

// frontierChunk is how many frames a spilled bucket is streamed in at a
// time; fully resident buckets arrive as one chunk (the classic
// whole-bucket pass).
const frontierChunk = 4096

// cframeNodeBytes is the budget estimate for a frame's node, scheduling
// context, and queue slot on top of its state.
const cframeNodeBytes = 112

func cAppendPathEntry(buf []byte, entry int32) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(entry))
}

// cAppendHopKey appends nd's hop key (root-first) in key encoding to buf,
// extending it by exactly the key's length. One walk up the chain fills
// the tail of scratch, which is then copied into place; a node has at
// most depth hops (each covers at least one micro step), which sizes
// scratch. It returns the extended buf and the possibly regrown scratch.
func cAppendHopKey(buf, scratch []byte, nd *node) ([]byte, []byte) {
	scratch = slices.Grow(scratch[:0], 4*nd.depth)[:4*nd.depth]
	i, root := len(scratch), nd
	for ; root.parent != nil; root = root.parent {
		i -= 4
		binary.BigEndian.PutUint32(scratch[i:], uint32(pathEntry(root.ti, root.idx)))
	}
	var base []byte
	if root.base != nil {
		base = root.base.key
	}
	buf = slices.Grow(buf, len(base)+len(scratch)-i)
	return append(append(buf, base...), scratch[i:]...), scratch
}

// cAppendPaddedPath appends nd's padded (thread, successor-index) path
// (root-first) as an entry count followed by the entries in key encoding.
func cAppendPaddedPath(buf []byte, nd *node) []byte {
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
	for _, entry := range base {
		buf = cAppendPathEntry(buf, entry)
	}
	buf = buf[:end]
	for cur := nd; cur.parent != nil; cur = cur.parent {
		end -= 4
		binary.BigEndian.PutUint32(buf[end:], uint32(pathEntry(cur.ti, cur.idx)))
		for j := len(cur.prefixIdx) - 1; j >= 0; j-- {
			end -= 4
			binary.BigEndian.PutUint32(buf[end:], uint32(pathEntry(cur.ti, cur.prefixIdx[j])))
		}
	}
	return buf
}

func cDecodePathKey(key []byte) []int32 {
	out := make([]int32, len(key)/4)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(key[i*4:]))
	}
	return out
}

// cDecodePaddedPath splits a payload remainder into the padded path
// cAppendPaddedPath wrote and the bytes after it.
func cDecodePaddedPath(payload []byte) ([]int32, []byte) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || uint64(len(payload)-k) < 4*n {
		panic("concheck: corrupt spilled frame: padded path")
	}
	end := k + 4*int(n)
	return cDecodePathKey(payload[k:end]), payload[end:]
}

// cNewQueue builds the frontier queue for a concheck BFS engine; ordered
// selects hop-key order (the macro bucket engine) over arrival order
// (the per-statement level engine).
func cNewQueue(c *sem.Compiled, opts Options, ordered bool) *frontier.Queue[searchState] {
	var scratch []byte // cAppendHopKey's; the queue calls Key from one goroutine
	return frontier.New(frontier.Config{
		BudgetBytes: opts.FrontierBudget,
		Dir:         opts.SpillDir,
		Ordered:     ordered,
	}, frontier.Codec[searchState]{
		Key: func(s searchState, buf []byte) []byte {
			buf, scratch = cAppendHopKey(buf, scratch, s.nd)
			return buf
		},
		Encode: func(s searchState, buf []byte) []byte {
			buf = binary.AppendUvarint(buf, uint64(s.lastTh+1))
			buf = binary.AppendUvarint(buf, uint64(s.switches))
			buf = cAppendPaddedPath(buf, s.nd)
			return sem.AppendSnapshot(buf, s.st)
		},
		Decode: func(key, payload []byte, depth int) searchState {
			lastTh, n1 := binary.Uvarint(payload)
			if n1 <= 0 {
				panic("concheck: corrupt spilled frame: lastTh")
			}
			switches, n2 := binary.Uvarint(payload[n1:])
			if n2 <= 0 {
				panic("concheck: corrupt spilled frame: switches")
			}
			path, snap := cDecodePaddedPath(payload[n1+n2:])
			st, err := sem.DecodeSnapshot(c, snap)
			if err != nil {
				panic(fmt.Sprintf("concheck: corrupt spilled frame: %v", err))
			}
			return searchState{
				st:       st,
				nd:       &node{base: &spillBase{key: bytes.Clone(key), path: path}, depth: depth},
				lastTh:   int(lastTh) - 1,
				switches: int(switches),
			}
		},
		Size: func(s searchState) int {
			return s.st.MemSize() + cframeNodeBytes
		},
	})
}

// cReplayPath re-executes the (thread, successor-index) entries of a
// padded path from the initial state, returning the event sequence it
// spells. O(depth), run once per reported failure under a restored frame.
func cReplayPath(c *sem.Compiled, path []int32) []sem.Event {
	st := sem.NewState(c)
	evs := make([]sem.Event, 0, len(path))
	for _, entry := range path {
		ti, idx := int(entry>>16), int(entry&0xffff)
		sr := sem.Step(st, ti)
		if sr.Failure != nil || idx >= len(sr.Outcomes) {
			panic(fmt.Sprintf("concheck: spilled path does not replay (thread %d idx %d of %d outcomes)",
				ti, idx, len(sr.Outcomes)))
		}
		out := sr.Outcomes[idx]
		evs = append(evs, out.Event)
		st = out.State
	}
	return evs
}

// cFullTrace is node.trace extended to chains rooted in a restored frame:
// the restored root's padded path is replayed and its events prepended.
func cFullTrace(c *sem.Compiled, nd *node) []sem.Event {
	root := nd
	for root.parent != nil {
		root = root.parent
	}
	if root.base == nil || len(root.base.path) == 0 {
		return nd.trace()
	}
	if cReplayHook != nil {
		cReplayHook(root.base.path)
	}
	pre := cReplayPath(c, root.base.path)
	return append(pre, nd.trace()...)
}

// cReplayHook, when set, sees every restored frame's padded path cFullTrace
// replays; tests use it to tell that the replay path ran.
var cReplayHook func(path []int32)

// cNewVisited selects the visited store for this search's options.
func cNewVisited(opts Options) visited.Store {
	if !opts.VisitedCompact {
		return visited.New(opts.NumShards)
	}
	if opts.AuditVisited {
		return visited.NewAudited(opts.VisitedBytes)
	}
	return visited.NewCompact(opts.VisitedBytes)
}

// cMemoryRecord assembles the Result.Memory diagnostics; nil when neither
// memory-bounding feature engaged.
func cMemoryRecord(opts Options, vis visited.Store, fst frontier.Stats) *stats.Memory {
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
