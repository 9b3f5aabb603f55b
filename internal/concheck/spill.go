package concheck

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/frontier"
	"repro/internal/sem"
	"repro/internal/stats"
	"repro/internal/visited"
)

// Memory-bounded search support for the level engine: the spilling
// frontier's codec, the visited-store selection, and trace
// reconstruction by replay. A spilled frame's payload is its padded path
// (one pathEntry(ti, idx) per micro step, 4 bytes big-endian each) and a
// sem state snapshot. A node restored from disk is root-like, its padded
// path in base, and its scheduling context is read off the padded path:
// the last entry's thread, and one switch wherever adjacent entries
// differ in thread. Nodes hold no events: every counterexample trace is
// rebuilt by replaying the failing state's padded path of (thread, index)
// entries from the initial state (see cFailAt).

// frontierChunk is how many frames a spilled bucket is streamed in at a
// time; fully resident buckets arrive as one chunk (the classic
// whole-bucket pass).
const frontierChunk = 4096

// cframeNodeBytes is the budget estimate for a frame's node and queue
// slot on top of its state.
const cframeNodeBytes = 96

func cAppendPathEntry(buf []byte, entry int32) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(entry))
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

// cNewQueue builds the level engine's frontier queue.
func cNewQueue(c *sem.Compiled, opts Options) *frontier.Queue[searchState] {
	// The queue calls Encode from one goroutine, so it keeps one scratch
	// buffer.
	var pathScratch []int32
	return frontier.New(frontier.Config{
		BudgetBytes: opts.FrontierBudget,
		Dir:         opts.SpillDir,
	}, frontier.Codec[searchState]{
		Encode: func(s searchState, buf []byte) []byte {
			buf, pathScratch = cAppendPaddedPath(buf, pathScratch, s.nd)
			return sem.AppendSnapshot(buf, s.st)
		},
		Decode: func(payload []byte, depth int) searchState {
			path, snap := cDecodePaddedPath(payload)
			st, err := sem.DecodeSnapshot(c, snap)
			if err != nil {
				panic(fmt.Sprintf("concheck: corrupt spilled frame: %v", err))
			}
			nd := newRoot()
			for i, entry := range path {
				if ti := entry >> 16; ti != nd.ti {
					if i > 0 {
						nd.switches++
					}
					nd.ti = ti
				}
			}
			nd.base = &spillBase{path: path}
			nd.depth = depth
			return searchState{st: st, nd: nd}
		},
		Size: func(s searchState) int {
			return s.st.MemSize() + cframeNodeBytes
		},
	})
}

// cReplayPath re-executes the (thread, successor-index) entries of a
// padded path from the initial state, returning the event sequence it
// spells. It is how every counterexample trace is built: nodes keep only
// indices and steps keep only states, so the events are built here alone,
// once per reported failure, O(depth).
func cReplayPath(c *sem.Compiled, path []int32) []sem.Event {
	st := sem.NewState(c)
	evs := make([]sem.Event, 0, len(path)+1)
	for _, entry := range path {
		ti, idx := int(entry>>16), int(entry&0xffff)
		sr, stepEvs := sem.StepEvents(st, ti)
		if sr.Failure != nil || idx >= len(sr.Outcomes) {
			panic(fmt.Sprintf("concheck: path does not replay (thread %d idx %d of %d outcomes)",
				ti, idx, len(sr.Outcomes)))
		}
		evs = append(evs, stepEvs[idx])
		st = sr.Outcomes[idx]
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
		Fn:       fail.Fn,
		Pos:      fail.Pos,
		Text:     fail.Msg,
	})
	return res
}

// cReplayHook, when set, sees the padded path of every trace cFailAt
// replays; tests use it to count replays.
var cReplayHook func(path []int32)

// SetReplayHook installs f as the replay hook (nil removes it). It lets
// the sequential-check tests in internal/seqcheck, which run on these
// engines at the zero context bound, count replays.
func SetReplayHook(f func(path []int32)) { cReplayHook = f }

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

// cMemoryRecord assembles the Result.Memory diagnostics from the visited
// store and a breadth-first frontier's budget and stats (budget 0: no
// spilling frontier, as in the depth-first search); nil when neither the
// compact filter nor a frontier budget engaged.
func cMemoryRecord(vis visited.Store, budget int64, fst frontier.Stats) *stats.Memory {
	m := &stats.Memory{VisitedMode: "exact"}
	var filter *visited.Compact
	switch v := vis.(type) {
	case *visited.Compact:
		filter = v
	case *visited.Audited:
		filter = v.Filter()
		m.VisitedFalsePositives = v.FalsePositives()
	}
	if filter == nil && budget <= 0 {
		return nil
	}
	if filter != nil {
		m.VisitedMode = "compact"
		m.VisitedBytes = filter.SizeBytes()
		m.VisitedOccupancy = filter.Occupancy()
		m.VisitedFPRate = filter.EstFPRate()
	}
	if budget > 0 {
		m.SpillBudgetBytes = budget
		m.SpilledBytes = fst.SpilledBytes
		m.SpilledFrames = fst.SpilledFrames
		m.SpilledRuns = fst.Runs
		m.FrontierPeakRAM = fst.PeakRAMBytes
	}
	return m
}
