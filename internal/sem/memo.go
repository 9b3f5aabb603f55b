package sem

// Fold memoization: a read-footprint keyed replay cache for macro steps.
//
// PR 4's macro-step compression stores 3.2x fewer states but re-executes
// every folded deterministic run; this table turns a repeated fold into a
// lookup. The soundness argument is the reduction idea itself: a maximal
// deterministic sole-live run is atomic, so its effect is a pure function
// of what it reads. Concretely, a fold of thread ti starting at state s is
// fully determined by
//
//   - the control signature: ti's thread id and frame stack (function,
//     PC, frame id, result variable of every frame) — everything Step
//     consults that is not a store read; and
//   - the read footprint: the ordered list of store locations the run
//     reads before writing them, with their values at s.
//
// Both are taken RAW — real heap indices, real frame ids — not canonical.
// Raw identity is what makes replay exact: if a later state s' matches the
// signature and footprint byte-for-byte, the run from s' executes the very
// same instruction sequence, produces the very same event strings (which
// embed raw indices via Value.String), allocates objects/frames/threads at
// the very same raw positions (the footprint records heap length and the
// id counters whenever the run allocates), and writes the very same
// values. The memo entry therefore stores the final write set as a delta
// against the base state, and a hit clones s' and applies the delta —
// bit-identical to executing the fold, with zero Step calls.
//
// The footprint VALUES are stored in the entry and a lookup compares them
// directly — matching is exact, not hashed, so there is no collision
// channel: a hit replays if and only if the base state agrees with the
// recording base on every location the run read. (An earlier draft folded
// the value stream into a 64-bit hash; profiles showed the
// per-candidate re-hashing dominating the search, and direct comparison
// is both faster — it fails on the first differing value — and strictly
// sounder.) The audit mode (FoldMemo with audit on, wired to the
// checkers' AuditFingerprints and exercised by dedicated differential
// tests) re-executes every hit and verifies the replayed result
// byte-for-byte, counting mismatches and dropping the offending entry;
// with exact matching it is a pure implementation-bug detector.
//
// Sharing and eligibility: entries are recorded and replayed only at
// states where every thread other than ti is done. That makes the
// fold-stop condition (sole-liveness of ti) a function of the run itself —
// a thread that is done never runs again, so no foreign thread can end the
// fold early at one base state and not the other. Multi-live states (the
// scheduling points concheck branches on) fall back to plain MacroStep.
// Runs through multi-path atomic bodies abort recording: a single written
// set cannot filter reads across diverging internal branches.
//
// The table is shared by every engine of a single search (sequential DFS
// and parallel BFS, seqcheck and concheck), sharded by control-signature
// hash exactly like internal/visited, and each shard keeps an intrusive
// LRU under a per-shard byte budget. One FoldMemo serves one Compiled
// program (control signatures compare *CompiledFunc by pointer); kiss.Config
// creates a fresh table per Check.

import (
	"sync"
	"sync/atomic"
)

const (
	// DefaultMemoBytes is the table budget when the caller passes none:
	// 256 MiB, still far below the working set of the searches it
	// accelerates. The old 64 MiB default evicted a quarter-million
	// entries over the driver corpus; eviction churn costs both the
	// removal itself and the hits the removed entries would have served.
	DefaultMemoBytes = 256 << 20
	// memoShards matches visited.DefaultShards.
	memoShards = 64
	// memoMinStepped is the shortest run worth a table entry: one-step
	// folds replay about as fast as they execute.
	memoMinStepped = 2
	// seenWords sizes each shard's warm-up bit array: 1024 words = 64K
	// bits per shard, 4M bits per table — sparse for any single check's
	// control points, and 8 KiB a shard when touched at all.
	seenWords = 1 << 10
)

// memoLocKind enumerates read-footprint location kinds.
type memoLocKind uint8

const (
	locGlobal       memoLocKind = iota // a = global index
	locHeapField                       // a = object index, b = field index
	locHeapRec                         // a = object index (its record name)
	locLocal                           // a = frame id, b = local slot
	locDangling                        // a = frame id, b = slot: load/store found the frame popped
	locTsFull                          // the whole ts multiset, raw order
	locHeapLen                         // a = required heap length (allocation occurred)
	locNextFrameID                     // a = required next frame id (a frame was created)
	locNextThreadID                    // a = required next thread id (a thread was created)
)

// memoLoc is one read-footprint location. Comparable (used as a map key).
type memoLoc struct {
	k    memoLocKind
	a, b int32
}

// memoRead is one recorded footprint read: the location plus the value
// observed at the recording base. locHeapRec carries the record name in
// v.Fn; the structural kinds (dangling, heap length, id counters) encode
// their requirement in the location itself and leave v zero.
type memoRead struct {
	loc memoLoc
	v   Value
}

// readEq is memoRead equality with the value compared first: sibling
// kids of a decision-tree node share their read location and differ in
// the observed value, so the integer compare almost always decides.
// Field-for-field identical to ==, only reordered.
func readEq(a, b memoRead) bool {
	return a.v.I == b.v.I && a.v.Kind == b.v.Kind && a.v.Ptr == b.v.Ptr &&
		a.v.Fn == b.v.Fn && a.loc == b.loc
}

// foldRecorder observes one fold's reads and writes. It is attached to the
// base state and propagated to every clone of the run (see State.rec), so
// all micro steps of the fold feed one recorder. Reads are recorded only
// if the location was not written earlier in the run and does not belong
// to an object/frame the run itself created — such values are determined
// by the footprint already taken, not by the base state.
type foldRecorder struct {
	baseHeapLen    int
	baseNextFrame  int
	baseNextThread int

	reads   []memoRead
	seen    map[memoLoc]struct{}
	written map[memoLoc]struct{}
	ts      []Pending // the base ts, when the run read it

	tsSeen         bool
	tsWritten      bool
	heapLenSeen    bool
	nextFrameSeen  bool
	nextThreadSeen bool
	aborted        bool
}

var recorderPool = sync.Pool{New: func() any {
	return &foldRecorder{
		seen:    make(map[memoLoc]struct{}),
		written: make(map[memoLoc]struct{}),
	}
}}

func (r *foldRecorder) reset(s *State) {
	r.baseHeapLen = len(s.Heap)
	r.baseNextFrame = s.nextFrameID
	r.baseNextThread = s.nextThreadID
	r.reads = r.reads[:0]
	clear(r.seen)
	clear(r.written)
	r.ts = nil
	r.tsSeen, r.tsWritten = false, false
	r.heapLenSeen, r.nextFrameSeen, r.nextThreadSeen = false, false, false
	r.aborted = false
}

func (r *foldRecorder) abort() { r.aborted = true }

// note registers loc as a footprint read with the value observed at the
// base, unless the run is aborted, the location was written earlier in
// this run, or it was already read (the first read pins the base value).
func (r *foldRecorder) note(loc memoLoc, v Value) {
	if r.aborted {
		return
	}
	if _, ok := r.written[loc]; ok {
		return
	}
	if _, ok := r.seen[loc]; ok {
		return
	}
	r.seen[loc] = struct{}{}
	r.reads = append(r.reads, memoRead{loc: loc, v: v})
}

func (r *foldRecorder) readGlobal(idx int, v Value) {
	r.note(memoLoc{k: locGlobal, a: int32(idx)}, v)
}

func (r *foldRecorder) readHeapField(obj, field int, v Value) {
	// Objects at/after the base heap length were created by this run:
	// their contents are determined by the footprint already taken.
	if obj < r.baseHeapLen {
		r.note(memoLoc{k: locHeapField, a: int32(obj), b: int32(field)}, v)
	}
}

func (r *foldRecorder) readHeapRec(obj int, rec string) {
	if obj < r.baseHeapLen {
		r.note(memoLoc{k: locHeapRec, a: int32(obj)}, Value{Fn: rec})
	}
}

func (r *foldRecorder) readLocal(frameID, slot int, v Value) {
	// Frames created by this run are determined; skip them.
	if frameID < r.baseNextFrame {
		r.note(memoLoc{k: locLocal, a: int32(frameID), b: int32(slot)}, v)
	}
}

// readDangling records that a load/store addressed a popped frame's local.
// Replay-side matching checks the frame is popped there too; no value.
func (r *foldRecorder) readDangling(frameID, slot int) {
	if frameID < r.baseNextFrame {
		r.note(memoLoc{k: locDangling, a: int32(frameID), b: int32(slot)}, Value{})
	}
}

func (r *foldRecorder) readTs(ts []Pending) {
	if !r.aborted && !r.tsSeen && !r.tsWritten {
		r.tsSeen = true
		r.reads = append(r.reads, memoRead{loc: memoLoc{k: locTsFull}})
		r.ts = ts
	}
}

func (r *foldRecorder) readHeapLen(n int) {
	if !r.aborted && !r.heapLenSeen {
		r.heapLenSeen = true
		r.reads = append(r.reads, memoRead{loc: memoLoc{k: locHeapLen, a: int32(n)}})
	}
}

func (r *foldRecorder) readNextFrameID(n int) {
	if !r.aborted && !r.nextFrameSeen {
		r.nextFrameSeen = true
		r.reads = append(r.reads, memoRead{loc: memoLoc{k: locNextFrameID, a: int32(n)}})
	}
}

func (r *foldRecorder) readNextThreadID(n int) {
	if !r.aborted && !r.nextThreadSeen {
		r.nextThreadSeen = true
		r.reads = append(r.reads, memoRead{loc: memoLoc{k: locNextThreadID, a: int32(n)}})
	}
}

func (r *foldRecorder) wroteGlobal(idx int) {
	if !r.aborted {
		r.written[memoLoc{k: locGlobal, a: int32(idx)}] = struct{}{}
	}
}

func (r *foldRecorder) wroteHeapField(obj, field int) {
	if !r.aborted && obj < r.baseHeapLen {
		r.written[memoLoc{k: locHeapField, a: int32(obj), b: int32(field)}] = struct{}{}
	}
}

func (r *foldRecorder) wroteLocal(frameID, slot int) {
	if !r.aborted && frameID < r.baseNextFrame {
		r.written[memoLoc{k: locLocal, a: int32(frameID), b: int32(slot)}] = struct{}{}
	}
}

func (r *foldRecorder) wroteTs() { r.tsWritten = true }

// ctrlFrame is one frame of a memo group's control signature.
type ctrlFrame struct {
	cf     *CompiledFunc
	pc     int
	id     int
	result string
}

// ctrlHash hashes thread ti's control signature (id + frame stack). The
// function-name component comes precomputed from compile time so a deep
// stack costs a few mixing rounds per frame, not a string walk.
func ctrlHash(s *State, ti int) uint64 {
	t := s.Threads[ti]
	h := mixWord(hashSeed, uint64(t.ID))
	for _, fr := range t.Frames {
		h = mixWord(h, fr.CF.nameHash)
		h = mixWord(h, uint64(fr.PC))
		h = mixWord(h, uint64(fr.ID))
		h = mixWord(h, hashString(fr.Result))
	}
	return finalize64(h)
}

// Write-delta representation: everything a fold changed, as raw positions
// and values, diffed against the base state after the run.

type slotWrite struct {
	idx int32
	v   Value
}

type objFieldWrite struct {
	obj, field int32
	v          Value
}

type newObjCopy struct {
	rec    string
	fields []Value
}

type frameDiff struct {
	fi    int32 // index in ti's (truncated) frame stack
	pc    int32
	slots []slotWrite
}

type frameCopy struct {
	id     int
	cf     *CompiledFunc
	pc     int
	locals []Value
	result string
}

type threadCopy struct {
	id     int
	frames []frameCopy
}

// outcomeDelta reproduces one outcome state of the final micro step from
// any footprint-matching base state.
type outcomeDelta struct {
	ev           Event
	globals      []slotWrite
	objFields    []objFieldWrite
	newObjs      []newObjCopy
	keepFrames   int32 // ti's surviving base-frame stack prefix length
	frames       []frameDiff
	pushFrames   []frameCopy
	newThreads   []threadCopy
	tsChanged    bool
	ts           []Pending
	nextFrameID  int // -1: untouched by the run
	nextThreadID int
}

// memoGroup collects every entry recorded at one exact control point —
// same thread id, same frame stack — and arranges their footprints as a
// decision tree. The tree shape is the determinism argument made into a
// data structure: from a fixed control point the run's i-th read location
// is a function of the values observed by reads 0..i-1 (frame liveness is
// part of the control signature, so even the dangling/live split of a
// local access is fixed within a group), so entries recorded here share
// read positions exactly as far as they share observed values. A lookup
// therefore reads each location ONCE and descends by the observed value —
// O(footprint depth) total, independent of how many entries the group
// holds — where a linear scan re-walked the shared prefix per candidate.
type memoGroup struct {
	tid    int
	frames []ctrlFrame
	root   memoNode
}

// memoNode is one read position of a group's decision tree. leaves holds
// the entries whose footprint ends here (runs recorded under different
// step limits can end at a prefix of a longer run's footprint); kids
// discriminates the next read by its observed value. All kids of a node
// agree on the location kind — and, for value-carrying kinds, the exact
// location — by the determinism argument above.
//
// kidIdx indexes kids by read once the fan-out crosses kidMapThreshold —
// a location observed with many distinct values (a counter global, a
// loop induction local) would otherwise cost a linear, cache-missing kid
// scan per lookup AND per insert. It is never built over locTsFull kids
// (their ts snapshots need slice comparison and are matched before the
// value descent) and, once built, is maintained across removals rather
// than rebuilt.
type memoNode struct {
	leaves []*memoEntry
	kids   []memoKid
	kidIdx map[memoRead]int32
}

// kidMapThreshold is the fan-out at which a node switches from linear
// kid scans to the kidIdx map. Below it the scan's first-field compares
// beat the map's hashing.
const kidMapThreshold = 16

// memoKid is one decision-tree edge: the full observed read (location +
// value) it stands for, with the ts snapshot spelled out for locTsFull
// edges (a Value cannot carry a multiset).
type memoKid struct {
	r  memoRead
	ts []Pending
	n  *memoNode
}

// find descends the group's decision tree at s and returns the unique
// entry valid under limit, or nil. At most one entry in a group can be
// valid for a given (base, limit): the deterministic run from s has one
// natural length N and one step sequence, so a natural entry is valid iff
// limit >= N and a limit-cut entry iff limit equals its cut — disjoint
// conditions along a single footprint path.
func (g *memoGroup) find(s *State, ti, limit int) *memoEntry {
	n := &g.root
	for {
		for _, e := range n.leaves {
			if e.limitOK(limit) {
				return e
			}
		}
		if len(n.kids) == 0 {
			return nil
		}
		// Build the observed read for this position. A bounds failure
		// means no recorded footprint can match from here on.
		var or memoRead
		switch loc := n.kids[0].r.loc; loc.k {
		case locGlobal:
			if int(loc.a) >= len(s.Globals) {
				return nil
			}
			or = memoRead{loc: loc, v: s.Globals[loc.a]}
		case locHeapField:
			if int(loc.a) >= len(s.Heap) {
				return nil
			}
			o := s.Heap[loc.a]
			if int(loc.b) >= len(o.Fields) {
				return nil
			}
			or = memoRead{loc: loc, v: o.Fields[loc.b]}
		case locHeapRec:
			if int(loc.a) >= len(s.Heap) {
				return nil
			}
			or = memoRead{loc: loc, v: Value{Fn: s.Heap[loc.a].Rec}}
		case locLocal:
			fr := findFrameInThread(s.Threads[ti], int(loc.a))
			if fr == nil || int(loc.b) >= len(fr.Locals) {
				return nil
			}
			or = memoRead{loc: loc, v: fr.Locals[loc.b]}
		case locDangling:
			if findFrameInThread(s.Threads[ti], int(loc.a)) != nil {
				return nil
			}
			or = memoRead{loc: loc}
		case locTsFull:
			next := (*memoNode)(nil)
			for i := range n.kids {
				k := &n.kids[i]
				if k.r.loc.k == locTsFull && tsEqual(s.Ts, k.ts) {
					next = k.n
					break
				}
			}
			if next == nil {
				return nil
			}
			n = next
			continue
		case locHeapLen:
			or = memoRead{loc: memoLoc{k: locHeapLen, a: int32(len(s.Heap))}}
		case locNextFrameID:
			or = memoRead{loc: memoLoc{k: locNextFrameID, a: int32(s.nextFrameID)}}
		case locNextThreadID:
			or = memoRead{loc: memoLoc{k: locNextThreadID, a: int32(s.nextThreadID)}}
		}
		next := (*memoNode)(nil)
		if n.kidIdx != nil {
			if j, ok := n.kidIdx[or]; ok {
				next = n.kids[j].n
			}
		} else {
			for i := range n.kids {
				if readEq(n.kids[i].r, or) {
					next = n.kids[i].n
					break
				}
			}
		}
		if next == nil {
			return nil
		}
		n = next
	}
}

// insert threads e's footprint into the decision tree, returning false if
// an equivalent entry (same path, same stepped/limited) is already there.
func (g *memoGroup) insert(e *memoEntry) bool {
	n := &g.root
	for i := range e.reads {
		r := e.reads[i]
		var next *memoNode
		if r.loc.k == locTsFull {
			for j := range n.kids {
				k := &n.kids[j]
				if k.r.loc.k == locTsFull && tsEqual(e.ts, k.ts) {
					next = k.n
					break
				}
			}
		} else if n.kidIdx != nil {
			if j, ok := n.kidIdx[r]; ok {
				next = n.kids[j].n
			}
		} else {
			for j := range n.kids {
				if readEq(n.kids[j].r, r) {
					next = n.kids[j].n
					break
				}
			}
		}
		if next == nil {
			next = &memoNode{}
			kid := memoKid{r: r, n: next}
			if r.loc.k == locTsFull {
				kid.ts = e.ts
			}
			n.kids = append(n.kids, kid)
			if r.loc.k != locTsFull {
				if n.kidIdx != nil {
					n.kidIdx[r] = int32(len(n.kids) - 1)
				} else if len(n.kids) >= kidMapThreshold {
					n.kidIdx = make(map[memoRead]int32, len(n.kids))
					for j := range n.kids {
						n.kidIdx[n.kids[j].r] = int32(j)
					}
				}
			}
		}
		n = next
	}
	for _, old := range n.leaves {
		if old.stepped == e.stepped && old.limited == e.limited {
			return false
		}
	}
	n.leaves = append(n.leaves, e)
	return true
}

// removeEntry detaches e from the decision tree, pruning emptied nodes.
func (n *memoNode) removeEntry(e *memoEntry, reads []memoRead) {
	if len(reads) == 0 {
		for i, cur := range n.leaves {
			if cur == e {
				n.leaves[i] = n.leaves[len(n.leaves)-1]
				n.leaves[len(n.leaves)-1] = nil
				n.leaves = n.leaves[:len(n.leaves)-1]
				return
			}
		}
		return
	}
	r := reads[0]
	for j := range n.kids {
		k := &n.kids[j]
		var match bool
		if r.loc.k == locTsFull {
			match = k.r.loc.k == locTsFull && tsEqual(e.ts, k.ts)
		} else {
			match = k.r == r
		}
		if !match {
			continue
		}
		k.n.removeEntry(e, reads[1:])
		if len(k.n.leaves) == 0 && len(k.n.kids) == 0 {
			removed := n.kids[j].r
			last := len(n.kids) - 1
			n.kids[j] = n.kids[last]
			n.kids[last] = memoKid{}
			n.kids = n.kids[:last]
			// Maintain the index across the swap-delete: dropping it here
			// instead causes an O(kids) rebuild per insert under eviction
			// churn. Never nil once built, even below the threshold.
			if n.kidIdx != nil {
				delete(n.kidIdx, removed)
				if j < last {
					n.kidIdx[n.kids[j].r] = int32(j)
				}
			}
		}
		return
	}
}

func (g *memoGroup) empty() bool {
	return len(g.root.leaves) == 0 && len(g.root.kids) == 0
}

// memoEntry is one recorded fold. Immutable once stored.
type memoEntry struct {
	// Key (the control signature lives in the owning group).
	ctrl    uint64
	group   *memoGroup
	reads   []memoRead
	ts      []Pending // base ts when the footprint includes locTsFull
	stepped int
	limited bool

	// Replay payload.
	prefix    []Event
	prefixIdx []int32
	blocked   bool
	failure   *Failure
	outs      []outcomeDelta
	outIdx    []int32

	// Table bookkeeping (guarded by the owning shard's mutex).
	bytes      int
	linked     bool // still in the shard's LRU list and group tree
	prev, next *memoEntry
}

// limitOK reports whether a run recorded under some limit replays
// faithfully under limit: a naturally-stopped run is valid at any limit
// that would not have cut it shorter; a limit-stopped run only at exactly
// the limit that cut it.
func (e *memoEntry) limitOK(limit int) bool {
	if e.limited {
		return e.stepped == limit
	}
	return e.stepped <= limit
}

func (g *memoGroup) ctrlMatch(s *State, ti int) bool {
	t := s.Threads[ti]
	if t.ID != g.tid || len(t.Frames) != len(g.frames) {
		return false
	}
	for i, fr := range t.Frames {
		gf := &g.frames[i]
		if fr.CF != gf.cf || fr.PC != gf.pc || fr.ID != gf.id || fr.Result != gf.result {
			return false
		}
	}
	return true
}

// findFrameInThread locates a frame by id on one thread's stack (memo
// lookups run where every other thread is done, so ti's stack holds every
// live frame).
func findFrameInThread(t *Thread, id int) *Frame {
	for _, fr := range t.Frames {
		if fr.ID == id {
			return fr
		}
	}
	return nil
}

// writtenSet is a fold's write set split by location kind, built once
// per store. The force-include checks below then scan these short slices
// instead of probing the write-set map once per compared slot — the map
// probes dominated the store path's profile.
type writtenSet struct {
	globals []memoLoc
	fields  []memoLoc
	locals  []memoLoc
}

func splitWritten(written map[memoLoc]struct{}) writtenSet {
	// One shared backing array, partitioned by kind: the per-kind counts
	// vary per fold, and three growing appends per store showed up in the
	// allocation profile.
	buf := make([]memoLoc, len(written))
	var ng, nf, nl int
	for loc := range written {
		switch loc.k {
		case locGlobal:
			ng++
		case locHeapField:
			nf++
		case locLocal:
			nl++
		}
	}
	ws := writtenSet{
		globals: buf[:0:ng],
		fields:  buf[ng : ng : ng+nf],
		locals:  buf[ng+nf : ng+nf : ng+nf+nl],
	}
	for loc := range written {
		switch loc.k {
		case locGlobal:
			ws.globals = append(ws.globals, loc)
		case locHeapField:
			ws.fields = append(ws.fields, loc)
		case locLocal:
			ws.locals = append(ws.locals, loc)
		}
	}
	return ws
}

// diffOutcome computes the write delta from base to one outcome state.
// ok=false means the outcome does not fit the delta model (something
// outside ti's reach changed); the caller then skips storing the fold.
//
// The delta cannot be a pure value diff: a blind write (no prior read)
// whose value happens to equal the recording base's — `g = 1` when g was
// already 1 — changes nothing here, but the location is not footprint-
// pinned (never read), so the entry also matches bases where g differs
// and the replay must still perform the write. Every location in the
// recorder's write set is therefore forced into the delta: the value
// scans catch writes that changed the value, and each region follows up
// with a pass over the (short) write set for the equal-value remainder.
// That is sound for all outcomes uniformly: slot writes only happen in
// single-outcome micro steps (multi-outcome endpoints are choice and
// dispatch, which write no slots; multi-path atomics abort recording),
// so they are shared prefix effects, and their final values are
// functions of the recorded read footprint.
func diffOutcome(base *State, ti int, out Outcome, ws *writtenSet) (outcomeDelta, bool) {
	d := outcomeDelta{ev: out.Event, nextFrameID: -1, nextThreadID: -1}
	os := out.State

	// Globals: COW shares the slice untouched, so pointer equality is the
	// common fast path (a written array is always a copy).
	if len(os.Globals) != len(base.Globals) {
		return d, false
	}
	if len(base.Globals) > 0 && &os.Globals[0] != &base.Globals[0] {
		for i := range os.Globals {
			if os.Globals[i] != base.Globals[i] {
				d.globals = append(d.globals, slotWrite{int32(i), os.Globals[i]})
			}
		}
		for _, loc := range ws.globals {
			if i := int(loc.a); i < len(os.Globals) && os.Globals[i] == base.Globals[i] {
				d.globals = append(d.globals, slotWrite{loc.a, os.Globals[i]})
			}
		}
	}

	// Heap: base objects diff per field (pointer-equal means untouched);
	// appended objects are fully determined by the run, copy them out.
	if len(os.Heap) < len(base.Heap) {
		return d, false
	}
	for i := 0; i < len(base.Heap); i++ {
		bo, oo := base.Heap[i], os.Heap[i]
		if bo == oo {
			continue
		}
		if oo.Rec != bo.Rec || len(oo.Fields) != len(bo.Fields) {
			return d, false
		}
		for f := range oo.Fields {
			if oo.Fields[f] != bo.Fields[f] {
				d.objFields = append(d.objFields, objFieldWrite{int32(i), int32(f), oo.Fields[f]})
			}
		}
		for _, loc := range ws.fields {
			if int(loc.a) != i {
				continue
			}
			if f := int(loc.b); f < len(oo.Fields) && oo.Fields[f] == bo.Fields[f] {
				d.objFields = append(d.objFields, objFieldWrite{loc.a, loc.b, oo.Fields[f]})
			}
		}
	}
	for i := len(base.Heap); i < len(os.Heap); i++ {
		o := os.Heap[i]
		d.newObjs = append(d.newObjs, newObjCopy{rec: o.Rec, fields: append([]Value(nil), o.Fields...)})
	}

	// Threads: nothing but ti and appended threads may change.
	if len(os.Threads) < len(base.Threads) {
		return d, false
	}
	for j := range base.Threads {
		if j != ti && os.Threads[j] != base.Threads[j] {
			return d, false
		}
	}
	bt, ot := base.Threads[ti], os.Threads[ti]
	// Surviving base frames form a stack prefix: frame ids are never
	// reused and pops only remove the top.
	k := 0
	for k < len(ot.Frames) && k < len(bt.Frames) && ot.Frames[k].ID == bt.Frames[k].ID {
		k++
	}
	for j := k; j < len(ot.Frames); j++ {
		if ot.Frames[j].ID < base.nextFrameID {
			return d, false
		}
	}
	d.keepFrames = int32(k)
	for j := 0; j < k; j++ {
		bf, of := bt.Frames[j], ot.Frames[j]
		if bf == of {
			continue
		}
		if of.CF != bf.CF || of.Result != bf.Result || len(of.Locals) != len(bf.Locals) {
			return d, false
		}
		fd := frameDiff{fi: int32(j), pc: int32(of.PC)}
		for si := range of.Locals {
			if of.Locals[si] != bf.Locals[si] {
				fd.slots = append(fd.slots, slotWrite{int32(si), of.Locals[si]})
			}
		}
		for _, loc := range ws.locals {
			if int(loc.a) != bf.ID {
				continue
			}
			if si := int(loc.b); si < len(of.Locals) && of.Locals[si] == bf.Locals[si] {
				fd.slots = append(fd.slots, slotWrite{loc.b, of.Locals[si]})
			}
		}
		if of.PC != bf.PC || len(fd.slots) > 0 {
			d.frames = append(d.frames, fd)
		}
	}
	for j := k; j < len(ot.Frames); j++ {
		d.pushFrames = append(d.pushFrames, copyFrame(ot.Frames[j]))
	}
	for j := len(base.Threads); j < len(os.Threads); j++ {
		t := os.Threads[j]
		tc := threadCopy{id: t.ID, frames: make([]frameCopy, len(t.Frames))}
		for fi, fr := range t.Frames {
			tc.frames[fi] = copyFrame(fr)
		}
		d.newThreads = append(d.newThreads, tc)
	}

	// ts: full replacement when changed. Any change implies the run read
	// the full multiset first (put checks occupancy, dispatch enumerates),
	// so the base ts is footprint-pinned and the end value is determined.
	if !tsEqual(os.Ts, base.Ts) {
		d.tsChanged = true
		d.ts = append([]Pending(nil), os.Ts...)
	}

	if os.nextFrameID != base.nextFrameID {
		d.nextFrameID = os.nextFrameID
	}
	if os.nextThreadID != base.nextThreadID {
		d.nextThreadID = os.nextThreadID
	}
	return d, true
}

func copyFrame(fr *Frame) frameCopy {
	return frameCopy{
		id:     fr.ID,
		cf:     fr.CF,
		pc:     fr.PC,
		locals: append([]Value(nil), fr.Locals...),
		result: fr.Result,
	}
}

func tsEqual(a, b []Pending) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Fn != b[i].Fn || len(a[i].Args) != len(b[i].Args) {
			return false
		}
		for j := range a[i].Args {
			if a[i].Args[j] != b[i].Args[j] {
				return false
			}
		}
	}
	return true
}

// applyDelta clones s and applies one outcome delta through the COW
// mutation accessors, reproducing the executed outcome state raw-exactly.
func applyDelta(s *State, ti int, d *outcomeDelta) *State {
	ns := s.Clone()
	if len(d.globals) > 0 {
		g := ns.mutableGlobals()
		for _, w := range d.globals {
			g[w.idx] = w.v
		}
	}
	for _, w := range d.objFields {
		ns.mutableObject(int(w.obj)).Fields[w.field] = w.v
	}
	for i := range d.newObjs {
		no := &d.newObjs[i]
		ns.appendObject(&Object{Rec: no.rec, Fields: append([]Value(nil), no.fields...)})
	}
	if t := ns.mutableThread(ti); int(d.keepFrames) < len(t.Frames) {
		clear(t.Frames[d.keepFrames:]) // as popFrame: drop the popped frames
		t.Frames = t.Frames[:d.keepFrames]
	}
	for i := range d.frames {
		fd := &d.frames[i]
		fr := ns.mutableFrame(ti, int(fd.fi))
		fr.PC = int(fd.pc)
		for _, w := range fd.slots {
			fr.Locals[w.idx] = w.v
		}
	}
	for i := range d.pushFrames {
		ns.pushFrame(ti, newFrameFromCopy(&d.pushFrames[i], ns.gen))
	}
	for i := range d.newThreads {
		tc := &d.newThreads[i]
		nt := &Thread{ID: tc.id, Frames: make([]*Frame, len(tc.frames))}
		for j := range tc.frames {
			nt.Frames[j] = newFrameFromCopy(&tc.frames[j], ns.gen)
		}
		ns.appendThread(nt)
	}
	if d.tsChanged {
		ns.Ts = append([]Pending(nil), d.ts...)
		ns.tsGen = ns.gen
	}
	if d.nextFrameID >= 0 {
		ns.nextFrameID = d.nextFrameID
	}
	if d.nextThreadID >= 0 {
		ns.nextThreadID = d.nextThreadID
	}
	return ns
}

func newFrameFromCopy(pf *frameCopy, gen uint64) *Frame {
	return &Frame{
		ID:     pf.id,
		CF:     pf.cf,
		PC:     pf.pc,
		Locals: append([]Value(nil), pf.locals...),
		Result: pf.result,
		gen:    gen,
	}
}

// FoldMemoStats is a point-in-time snapshot of the table's counters.
type FoldMemoStats struct {
	Hits            int64
	Misses          int64
	Stores          int64
	Evictions       int64
	StepsSaved      int64
	AuditMismatches int64
	Entries         int64
	Bytes           int64
}

// HitRatio returns hits/(hits+misses), or 0 with no lookups.
func (st FoldMemoStats) HitRatio() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

type memoShard struct {
	mu      sync.Mutex
	m       map[uint64][]*memoGroup
	head    *memoEntry // most recently used
	tail    *memoEntry
	bytes   int64
	entries int64
	// seen marks control hashes that have missed here before (the
	// warm-up gate for recording); allocated on first miss.
	seen []uint64
	// Pad to a cache line so neighbouring shard locks do not false-share.
	_ [24]byte
}

// FoldMemo is the sharded, byte-budgeted fold replay cache. Safe for
// concurrent use by the parallel searches' expansion workers.
type FoldMemo struct {
	shards   []memoShard
	mask     uint64
	perShard int64
	audit    bool

	hits            atomic.Int64
	misses          atomic.Int64
	stores          atomic.Int64
	evictions       atomic.Int64
	stepsSaved      atomic.Int64
	auditMismatches atomic.Int64
}

// NewFoldMemo returns a table with the given byte budget (<= 0 selects
// DefaultMemoBytes). With audit set, every hit is re-executed and the
// replay compared byte-for-byte; mismatches (which exact matching rules
// out short of an implementation bug) are counted, the entry dropped, and
// the executed result returned, so audit runs are always correct and
// measure exactly how often replay would have lied.
func NewFoldMemo(budgetBytes int64, audit bool) *FoldMemo {
	if budgetBytes <= 0 {
		budgetBytes = DefaultMemoBytes
	}
	m := &FoldMemo{
		shards:   make([]memoShard, memoShards),
		mask:     memoShards - 1,
		perShard: budgetBytes / memoShards,
		audit:    audit,
	}
	for i := range m.shards {
		m.shards[i].m = make(map[uint64][]*memoGroup)
	}
	return m
}

// Audit reports whether the table verifies every hit by re-execution.
func (m *FoldMemo) Audit() bool { return m.audit }

func (m *FoldMemo) shardFor(h uint64) *memoShard {
	return &m.shards[(h^h>>32)&m.mask]
}

// Stats returns a snapshot of the table's counters.
func (m *FoldMemo) Stats() FoldMemoStats {
	st := FoldMemoStats{
		Hits:            m.hits.Load(),
		Misses:          m.misses.Load(),
		Stores:          m.stores.Load(),
		Evictions:       m.evictions.Load(),
		StepsSaved:      m.stepsSaved.Load(),
		AuditMismatches: m.auditMismatches.Load(),
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		st.Entries += sh.entries
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// lookup finds a replayable entry for (s, ti) under limit, bumping it to
// the front of its shard's LRU. Returns nil on miss, plus whether the
// control point is warm — seen by an earlier lookup — which is what makes
// a miss worth recording. Most control points of a search are visited
// once; recording them is pure overhead (the recorder hooks on every
// micro step, the delta diff, the table insert, the eventual eviction),
// so a cold miss only marks the point seen and the fold runs bare. The
// mark is one bit in a small per-shard array indexed by the control hash;
// a hash collision can at worst make a cold point look warm and record a
// fold that is never replayed — extra work, never a wrong result. Groups
// in a bucket have pairwise-distinct control signatures, so at most one
// can match s and the scan stops at it either way.
func (m *FoldMemo) lookup(s *State, ti, limit int) (*memoEntry, bool) {
	h := ctrlHash(s, ti)
	sh := m.shardFor(h)
	sh.mu.Lock()
	for _, g := range sh.m[h] {
		if !g.ctrlMatch(s, ti) {
			continue
		}
		if e := g.find(s, ti, limit); e != nil {
			sh.moveFront(e)
			sh.mu.Unlock()
			return e, true
		}
		break
	}
	if sh.seen == nil {
		sh.seen = make([]uint64, seenWords)
	}
	w, bit := (h>>6)&(seenWords-1), uint64(1)<<(h&63)
	warm := sh.seen[w]&bit != 0
	sh.seen[w] |= bit
	sh.mu.Unlock()
	return nil, warm
}

// replay reconstructs the fold's MacroResult from an entry by applying
// its deltas to s. In audit mode the fold is also executed and compared;
// a mismatch drops the entry and returns the executed result.
func (m *FoldMemo) replay(s *State, ti, limit int, e *memoEntry) MacroResult {
	if !m.audit {
		m.hits.Add(1)
		m.stepsSaved.Add(int64(e.stepped))
		return buildReplay(s, ti, e)
	}
	got := buildReplay(s, ti, e)
	want := macroRun(s, ti, limit)
	if !macroResultsEqual(&got, &want) {
		m.auditMismatches.Add(1)
		m.remove(e)
		return want
	}
	m.hits.Add(1)
	m.stepsSaved.Add(int64(e.stepped))
	// Hand back the executed result: it is provably right and its states
	// were verified identical to the replayed ones.
	return want
}

func buildReplay(s *State, ti int, e *memoEntry) MacroResult {
	var mr MacroResult
	mr.Prefix = e.prefix
	mr.PrefixIdx = e.prefixIdx
	mr.Stepped = e.stepped
	mr.Limited = e.limited
	mr.Blocked = e.blocked
	mr.Failure = e.failure
	mr.OutIdx = e.outIdx
	if len(e.outs) > 0 {
		mr.Outcomes = make([]Outcome, len(e.outs))
		for i := range e.outs {
			mr.Outcomes[i] = Outcome{State: applyDelta(s, ti, &e.outs[i]), Event: e.outs[i].ev}
		}
	}
	return mr
}

// store records a completed fold. The MacroResult's slices (prefix,
// indices, failure) are shared with the entry — they are immutable and
// exact-sized, so neither the searches nor future replays can alias into
// each other.
func (m *FoldMemo) store(s *State, ti int, rec *foldRecorder, mr *MacroResult) {
	t := s.Threads[ti]
	e := &memoEntry{
		reads:     append([]memoRead(nil), rec.reads...),
		stepped:   mr.Stepped,
		limited:   mr.Limited,
		prefix:    mr.Prefix,
		prefixIdx: mr.PrefixIdx,
		blocked:   mr.Blocked,
		failure:   mr.Failure,
		outIdx:    mr.OutIdx,
	}
	if rec.tsSeen {
		e.ts = append([]Pending(nil), rec.ts...)
	}
	e.ctrl = ctrlHash(s, ti)
	if len(mr.Outcomes) > 0 {
		ws := splitWritten(rec.written)
		e.outs = make([]outcomeDelta, 0, len(mr.Outcomes))
		for i := range mr.Outcomes {
			d, ok := diffOutcome(s, ti, mr.Outcomes[i], &ws)
			if !ok {
				return
			}
			e.outs = append(e.outs, d)
		}
	}
	e.bytes = entrySize(e)

	sh := m.shardFor(e.ctrl)
	sh.mu.Lock()
	var g *memoGroup
	for _, cand := range sh.m[e.ctrl] {
		if cand.ctrlMatch(s, ti) {
			g = cand
			break
		}
	}
	if g == nil {
		g = &memoGroup{tid: t.ID, frames: make([]ctrlFrame, len(t.Frames))}
		for i, fr := range t.Frames {
			g.frames[i] = ctrlFrame{cf: fr.CF, pc: fr.PC, id: fr.ID, result: fr.Result}
		}
		sh.m[e.ctrl] = append(sh.m[e.ctrl], g)
	}
	// insert dedupes: another worker may have stored the same fold during
	// our execution.
	e.group = g
	if !g.insert(e) {
		sh.mu.Unlock()
		return
	}
	e.linked = true
	sh.pushFront(e)
	sh.bytes += int64(e.bytes)
	sh.entries++
	for sh.bytes > m.perShard && sh.tail != nil && sh.tail != e {
		victim := sh.tail
		sh.unlinkLocked(victim)
		m.evictions.Add(1)
	}
	sh.mu.Unlock()
	m.stores.Add(1)
}

// remove drops an entry (audit mismatch) if it is still in the table.
func (m *FoldMemo) remove(e *memoEntry) {
	sh := m.shardFor(e.ctrl)
	sh.mu.Lock()
	if e.linked {
		sh.unlinkLocked(e)
	}
	sh.mu.Unlock()
}

// LRU maintenance; all callers hold the shard mutex.

func (sh *memoShard) pushFront(e *memoEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *memoShard) moveFront(e *memoEntry) {
	if sh.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
}

// unlinkLocked removes e from both the LRU list and its hash bucket.
func (sh *memoShard) unlinkLocked(e *memoEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
	g := e.group
	g.root.removeEntry(e, e.reads)
	if g.empty() {
		bucket := sh.m[e.ctrl]
		for i, cur := range bucket {
			if cur == g {
				bucket[i] = bucket[len(bucket)-1]
				bucket[len(bucket)-1] = nil
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(sh.m, e.ctrl)
		} else {
			sh.m[e.ctrl] = bucket
		}
	}
	sh.bytes -= int64(e.bytes)
	sh.entries--
}

// entrySize estimates an entry's heap footprint for the byte budget.
// (The owning group's frame signature is shared across its entries and
// small next to the stored values; it is folded into the per-entry base.)
func entrySize(e *memoEntry) int {
	n := 176 + len(e.reads)*80 + len(e.prefixIdx)*4 + len(e.outIdx)*4
	for i := range e.ts {
		n += 40 + len(e.ts[i].Fn) + len(e.ts[i].Args)*64
	}
	for i := range e.prefix {
		n += eventSize(&e.prefix[i])
	}
	for i := range e.outs {
		d := &e.outs[i]
		n += 96 + eventSize(&d.ev)
		n += len(d.globals)*72 + len(d.objFields)*80
		for j := range d.newObjs {
			n += 48 + len(d.newObjs[j].rec) + len(d.newObjs[j].fields)*64
		}
		for j := range d.frames {
			n += 32 + len(d.frames[j].slots)*72
		}
		for j := range d.pushFrames {
			n += frameCopySize(&d.pushFrames[j])
		}
		for j := range d.newThreads {
			n += 32
			for k := range d.newThreads[j].frames {
				n += frameCopySize(&d.newThreads[j].frames[k])
			}
		}
		for j := range d.ts {
			n += 40 + len(d.ts[j].Fn) + len(d.ts[j].Args)*64
		}
	}
	return n
}

func eventSize(ev *Event) int {
	return 72 + len(ev.Fn) + len(ev.Text) + len(ev.Callee)
}

func frameCopySize(fc *frameCopy) int {
	return 64 + len(fc.result) + len(fc.locals)*64
}

// macroResultsEqual compares a replayed MacroResult against an executed
// one byte-for-byte (raw state equality, not canonical). Audit-path only.
func macroResultsEqual(a, b *MacroResult) bool {
	if a.Stepped != b.Stepped || a.Blocked != b.Blocked || a.Limited != b.Limited {
		return false
	}
	if (a.Failure == nil) != (b.Failure == nil) {
		return false
	}
	if a.Failure != nil && *a.Failure != *b.Failure {
		return false
	}
	if len(a.Prefix) != len(b.Prefix) || len(a.PrefixIdx) != len(b.PrefixIdx) ||
		len(a.Outcomes) != len(b.Outcomes) || len(a.OutIdx) != len(b.OutIdx) {
		return false
	}
	for i := range a.Prefix {
		if a.Prefix[i] != b.Prefix[i] {
			return false
		}
	}
	for i := range a.PrefixIdx {
		if a.PrefixIdx[i] != b.PrefixIdx[i] {
			return false
		}
	}
	for i := range a.OutIdx {
		if a.OutIdx[i] != b.OutIdx[i] {
			return false
		}
	}
	for i := range a.Outcomes {
		if a.Outcomes[i].Event != b.Outcomes[i].Event {
			return false
		}
		if !rawStateEqual(a.Outcomes[i].State, b.Outcomes[i].State) {
			return false
		}
	}
	return true
}

// rawStateEqual compares two states raw — exact indices and ids, no
// canonicalization. This is the replay invariant: a memo hit must produce
// states raw-equal to execution, so every downstream fingerprint, event
// string, and counter agrees bit-for-bit.
func rawStateEqual(a, b *State) bool {
	if len(a.Globals) != len(b.Globals) || len(a.Heap) != len(b.Heap) ||
		len(a.Threads) != len(b.Threads) || len(a.Ts) != len(b.Ts) ||
		a.nextFrameID != b.nextFrameID || a.nextThreadID != b.nextThreadID {
		return false
	}
	for i := range a.Globals {
		if a.Globals[i] != b.Globals[i] {
			return false
		}
	}
	for i := range a.Heap {
		ao, bo := a.Heap[i], b.Heap[i]
		if ao.Rec != bo.Rec || len(ao.Fields) != len(bo.Fields) {
			return false
		}
		for f := range ao.Fields {
			if ao.Fields[f] != bo.Fields[f] {
				return false
			}
		}
	}
	for i := range a.Threads {
		at, bt := a.Threads[i], b.Threads[i]
		if at.ID != bt.ID || len(at.Frames) != len(bt.Frames) {
			return false
		}
		for j := range at.Frames {
			af, bf := at.Frames[j], bt.Frames[j]
			if af.ID != bf.ID || af.CF != bf.CF || af.PC != bf.PC || af.Result != bf.Result ||
				len(af.Locals) != len(bf.Locals) {
				return false
			}
			for si := range af.Locals {
				if af.Locals[si] != bf.Locals[si] {
					return false
				}
			}
		}
	}
	if !tsEqual(a.Ts, b.Ts) {
		return false
	}
	return true
}
