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
// and padded path in base. Nodes hold no events: every counterexample
// trace is rebuilt by replaying the failing state's padded path of
// (thread, index) entries from the initial state (see cFailAt).

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

// cAppendPath appends nd's padded (thread, successor-index) path
// (root-first) to dst: a restored root's base path, then each hop's
// folded entries and final entry, all through the hop's thread. One walk
// up the chain sizes the path; a second fills it from the end.
func cAppendPath(dst []int32, nd *node) []int32 {
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
		dst[end] = pathEntry(cur.ti, cur.idx)
		end -= len(cur.prefixIdx)
		for j, idx := range cur.prefixIdx {
			dst[end+j] = pathEntry(cur.ti, idx)
		}
	}
	return dst
}

// cAppendPaddedPath appends nd's padded path as an entry count followed
// by the entries in key encoding. scratch is cAppendPath's buffer; the
// possibly regrown scratch is returned.
func cAppendPaddedPath(buf []byte, scratch []int32, nd *node) ([]byte, []int32) {
	scratch = cAppendPath(scratch[:0], nd)
	buf = binary.AppendUvarint(buf, uint64(len(scratch)))
	buf = slices.Grow(buf, 4*len(scratch))
	for _, entry := range scratch {
		buf = cAppendPathEntry(buf, entry)
	}
	return buf, scratch
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
	// The queue calls Key and Encode from one goroutine, so each keeps
	// one scratch buffer.
	var scratch []byte
	var pathScratch []int32
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
			buf, pathScratch = cAppendPaddedPath(buf, pathScratch, s.nd)
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
// spells. It is how every counterexample trace is built: nodes keep only
// indices, so the events are rebuilt once per reported failure, O(depth).
func cReplayPath(c *sem.Compiled, path []int32) []sem.Event {
	st := sem.NewState(c)
	evs := make([]sem.Event, 0, len(path)+1)
	for _, entry := range path {
		ti, idx := int(entry>>16), int(entry&0xffff)
		sr := sem.Step(st, ti)
		if sr.Failure != nil || idx >= len(sr.Outcomes) {
			panic(fmt.Sprintf("concheck: path does not replay (thread %d idx %d of %d outcomes)",
				ti, idx, len(sr.Outcomes)))
		}
		out := sr.Outcomes[idx]
		evs = append(evs, out.Event)
		st = out.State
	}
	return evs
}

// cFailAt reports fail, reached from nd's state by a fold of thread ti
// through the successor indices prefixIdx (nil for an unfolded step), as
// res's Error verdict. The trace is nd's padded path and the fold's
// entries replayed from the initial state, followed by the failing
// statement.
func cFailAt(c *sem.Compiled, res *Result, nd *node, ti int, prefixIdx []int32, fail *sem.Failure) *Result {
	path := cAppendPath(nil, nd)
	for _, idx := range prefixIdx {
		path = append(path, pathEntry(int32(ti), idx))
	}
	if cReplayHook != nil {
		cReplayHook(path)
	}
	res.Verdict = Error
	res.Failure = fail
	res.Trace = append(cReplayPath(c, path), sem.Event{
		Kind:     sem.EvStmt,
		ThreadID: fail.ThreadID,
		Pos:      fail.Pos,
		Text:     fail.Msg,
	})
	return res
}

// cReplayHook, when set, sees the padded path of every trace cFailAt
// replays; tests use it to count replays.
var cReplayHook func(path []int32)

// cNewVisited selects the visited store for this search's options.
func cNewVisited(opts Options) visited.Store {
	if !opts.VisitedCompact {
		return visited.New(visited.DefaultShards)
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
