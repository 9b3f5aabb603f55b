package sem

// Call-grained procedure summaries: fold memoization lifted to call
// boundaries, in the Sharir–Pnueli/RHS style that internal/boolcheck
// already uses for its decidability argument — but exact-value and
// bit-identical, like FoldMemo, rather than abstract.
//
// FoldMemo keys a whole fold by the thread's FULL raw frame stack, so a
// recorded fold replays only when the entire calling context recurs with
// the same raw frame ids — hit ratio 0.373 on the corpus, because the
// KISS transformation calls the same small helpers (check_r, check_w,
// the unwinding tests) from many sites and every call instance allocates
// fresh frame ids. A summary instead covers exactly one CALL: the
// segment from the OpCall instruction to the matching return, keyed by
// (thread id, caller function, caller PC) — no frame ids, no caller
// stack — plus the call's exact read footprint. That makes the entry
// transfer across call instances and across checks of the same program.
//
// What makes the transfer sound is a single normalization: the only
// instance-dependent names a call segment can observe are (a) the
// caller's frame id, and (b) ids of frames the segment itself creates.
// For (a), reads of the caller's locals are recorded as locCallerLocal
// (slot only) and every recorded value that is a pointer into the caller
// frame is rewritten to a marker frame id (markerFrameID), mapped back
// to the live caller at replay. For (b), the segment's own frames are
// all popped by the time it closes (depth returns to the caller), so
// they can only leak as dangling pointers in surviving values or in
// return-event text — entries are REJECTED (or the recording layer
// aborted) when that happens, and nextFrameID advances by a stored
// relative delta rather than a pinned absolute value. Everything else —
// heap indices, globals, deeper frames reached through pointer
// arguments, the ts multiset — is raw and exact, pinned by the footprint
// just as in FoldMemo, so replay stays bit-identical: same events, same
// raw successor state, same counters.
//
// Composition: while a fold is recording (FoldMemo's recorder and/or
// enclosing summary layers), a summary hit does not execute the call —
// so the hit FEEDS its footprint reads and write marks through the
// standard recorder hooks, denormalized to the current instance, before
// its delta is applied. Each sink's own filters then reproduce exactly
// what execution would have recorded (an enclosing layer re-normalizes
// to ITS caller), which is what lets an outer call's summary subsume
// inner calls — replay of the outer entry replays the nested calls in
// O(footprint) without consulting them.
//
// The table has the same shape as FoldMemo: exact-value decision trees
// per call site, 64 shards, per-shard intrusive LRU under a byte budget,
// per-site warm-up bits (first miss runs bare). Unlike FoldMemo it may
// OUTLIVE a check: kissd keys a table by program identity and hands it
// to every check of that program, so BindCompile caches the compiled
// program alongside (entries compare *CompiledFunc by pointer).
// Config.AuditFoldMemo covers summaries too: every hit re-executes the
// segment and compares, counting mismatches and dropping bad entries.

import (
	"sync"
	"sync/atomic"
)

const (
	// DefaultSummaryBytes is the table budget when the caller passes
	// none; sized like DefaultMemoBytes to keep warm tables resident.
	DefaultSummaryBytes = 256 << 20
	// sumShards matches memoShards.
	sumShards = 64
	// summaryMinStepped is the shortest segment worth an entry: a call
	// plus its matching return is already two micro steps.
	summaryMinStepped = 2
)

const (
	// maxOpenLayers caps the recording-layer stack (the composition
	// depth cap of DESIGN.md decision 16): deeper nests still record
	// their outermost layers, inner calls ride along inside them.
	maxOpenLayers = 16
	// markerFrameID stands for "the caller's frame" in normalized values.
	markerFrameID = -1
)

// locCallerLocal extends the memoLoc kinds: a read of the caller frame's
// local slot b, normalized so the entry transfers across call instances.
const locCallerLocal memoLocKind = locNextThreadID + 1

// sumSite identifies a call site: the thread id, the caller function,
// and the PC of the OpCall instruction. CompiledFunc pointers tie the
// site to one Compiled program (see SummaryTable.BindCompile).
type sumSite struct {
	tid int
	cf  *CompiledFunc
	pc  int
}

func siteHash(tid int, cf *CompiledFunc, pc int) uint64 {
	h := mixWord(hashSeed, cf.nameHash)
	h = mixWord(h, uint64(pc))
	return Mix64(h, uint64(tid))
}

// deepFrameWrite is a write delta against a pre-existing frame below the
// caller, reached through a pointer argument. The raw frame id is sound:
// the pointer that reached it is footprint-pinned.
type deepFrameWrite struct {
	frameID int32
	slots   []slotWrite
}

// sumDelta reproduces the segment's effect from any footprint-matching
// base. Values are stored normalized (markerFrameID for caller-frame
// pointers) and denormalized against the live caller at replay. There
// are no pushed frames, new threads, or absolute id counters: the
// segment's frames are all popped by close, async breaks sole-liveness
// (discarding the layer), and nextFrameID advances by the relative
// frameIDDelta.
type sumDelta struct {
	callerPC     int32
	callerSlots  []slotWrite
	deepFrames   []deepFrameWrite
	globals      []slotWrite
	objFields    []objFieldWrite
	newObjs      []newObjCopy
	tsChanged    bool
	ts           []Pending
	frameIDDelta int32
}

// sumEntry is one recorded call segment. Immutable once stored.
type sumEntry struct {
	site     sumSite
	siteHash uint64
	group    *sumGroup
	reads    []memoRead // normalized footprint
	ts       []Pending  // normalized base ts when the footprint includes locTsFull
	stepped  int
	events   []Event // every segment event, the matching return last
	idx      []int32 // unpruned successor index taken at each segment step
	delta    sumDelta

	bytes      int
	linked     bool
	prev, next *sumEntry
}

// sumGroup collects the entries of one call site as an exact-value
// decision tree over the normalized read stream — the same determinism
// argument as memoGroup: from a fixed site, the segment's i-th read
// location is a function of the values observed by reads 0..i-1, so a
// lookup reads each location once and descends by value. Natural-close
// entries only, so complete footprints are never proper prefixes of each
// other and each tree path holds at most one entry.
type sumGroup struct {
	site sumSite
	root sumNode
}

// sumNode mirrors memoNode, including the kidIdx map built over
// non-locTsFull kids once fan-out crosses kidMapThreshold (see memo.go).
type sumNode struct {
	leaf   *sumEntry
	kids   []sumKid
	kidIdx map[memoRead]int32
}

type sumKid struct {
	r  memoRead
	ts []Pending
	n  *sumNode
}

// normVal rewrites pointers into the caller's frame to the marker id.
// ok=false flags a value embedding an in-segment frame id (>= baseNext),
// which no transferable entry may contain.
func normVal(v Value, callerID, baseNext int) (Value, bool) {
	if v.Kind != KPtr || v.Ptr.Kind != CLocal {
		return v, true
	}
	if v.Ptr.FrameID == callerID {
		v.Ptr.FrameID = markerFrameID
		return v, true
	}
	if v.Ptr.FrameID >= baseNext {
		return v, false
	}
	return v, true
}

// denormVal maps the marker back to the live caller's frame id.
func denormVal(v Value, callerID int) Value {
	if v.Kind == KPtr && v.Ptr.Kind == CLocal && v.Ptr.FrameID == markerFrameID {
		v.Ptr.FrameID = callerID
	}
	return v
}

// sumLayer records one open call segment. Layers stack with nesting and
// are fed by the foldRecorder hook fan-out; each keeps its own
// baselines, so values and locations normalize against ITS caller.
type sumLayer struct {
	site     sumSite
	siteHash uint64
	callerID int
	d0       int // caller frame depth; the segment closes when ti returns here
	base     *State

	baseHeapLen   int
	baseNextFrame int

	startEv      int
	startStepped int

	reads   []memoRead
	seen    map[memoLoc]struct{}
	written map[memoLoc]struct{}
	ts      []Pending

	tsSeen      bool
	tsWritten   bool
	heapLenSeen bool
	aborted     bool
}

var layerPool = sync.Pool{New: func() any {
	return &sumLayer{
		seen:    make(map[memoLoc]struct{}),
		written: make(map[memoLoc]struct{}),
	}
}}

func (l *sumLayer) reset(s *State, ti int, fr *Frame, startEv, startStepped int) {
	l.site = sumSite{tid: s.Threads[ti].ID, cf: fr.CF, pc: fr.PC}
	l.siteHash = siteHash(l.site.tid, l.site.cf, l.site.pc)
	l.callerID = fr.ID
	l.d0 = len(s.Threads[ti].Frames)
	l.base = s
	l.baseHeapLen = len(s.Heap)
	l.baseNextFrame = s.nextFrameID
	l.startEv = startEv
	l.startStepped = startStepped
	l.reads = l.reads[:0]
	clear(l.seen)
	clear(l.written)
	l.ts = nil
	l.tsSeen, l.tsWritten, l.heapLenSeen = false, false, false
	l.aborted = false
}

func (l *sumLayer) note(loc memoLoc, v Value) {
	if l.aborted {
		return
	}
	if _, ok := l.written[loc]; ok {
		return
	}
	if _, ok := l.seen[loc]; ok {
		return
	}
	l.seen[loc] = struct{}{}
	l.reads = append(l.reads, memoRead{loc: loc, v: v})
}

// noteNorm normalizes the value first, aborting the layer on the
// (impossible short of a bug) in-segment pointer read.
func (l *sumLayer) noteNorm(loc memoLoc, v Value) {
	nv, ok := normVal(v, l.callerID, l.baseNextFrame)
	if !ok {
		l.aborted = true
		return
	}
	l.note(loc, nv)
}

func (l *sumLayer) readGlobal(idx int, v Value) {
	l.noteNorm(memoLoc{k: locGlobal, a: int32(idx)}, v)
}

func (l *sumLayer) readHeapField(obj, field int, v Value) {
	if obj >= l.baseHeapLen {
		return
	}
	l.noteNorm(memoLoc{k: locHeapField, a: int32(obj), b: int32(field)}, v)
}

func (l *sumLayer) readHeapRec(obj int, rec string) {
	if obj >= l.baseHeapLen {
		return
	}
	l.note(memoLoc{k: locHeapRec, a: int32(obj)}, Value{Fn: rec})
}

func (l *sumLayer) localLoc(frameID, slot int) (memoLoc, bool) {
	if frameID >= l.baseNextFrame {
		return memoLoc{}, false // created by the segment: determined
	}
	if frameID == l.callerID {
		return memoLoc{k: locCallerLocal, b: int32(slot)}, true
	}
	return memoLoc{k: locLocal, a: int32(frameID), b: int32(slot)}, true
}

func (l *sumLayer) readLocal(frameID, slot int, v Value) {
	loc, ok := l.localLoc(frameID, slot)
	if !ok {
		return
	}
	l.noteNorm(loc, v)
}

func (l *sumLayer) readDangling(frameID, slot int) {
	if frameID >= l.baseNextFrame {
		return
	}
	l.note(memoLoc{k: locDangling, a: int32(frameID), b: int32(slot)}, Value{})
}

func (l *sumLayer) readTs(ts []Pending) {
	if l.aborted || l.tsSeen || l.tsWritten {
		return
	}
	nts, ok := normTs(ts, l.callerID, l.baseNextFrame)
	if !ok {
		l.aborted = true
		return
	}
	l.tsSeen = true
	l.reads = append(l.reads, memoRead{loc: memoLoc{k: locTsFull}})
	l.ts = nts
}

func (l *sumLayer) readHeapLen(n int) {
	if l.aborted || l.heapLenSeen {
		return
	}
	l.heapLenSeen = true
	l.reads = append(l.reads, memoRead{loc: memoLoc{k: locHeapLen, a: int32(n)}})
}

// noteReturn inspects a return value about to become event text
// ("return " + rv.String() is the one dynamic event rendering): a
// pointer into the caller frame or into a segment-created frame would
// bake an instance-specific id into the stored event, so the layer
// aborts.
func (l *sumLayer) noteReturn(rv Value) {
	if rv.Kind == KPtr && rv.Ptr.Kind == CLocal &&
		(rv.Ptr.FrameID == l.callerID || rv.Ptr.FrameID >= l.baseNextFrame) {
		l.aborted = true
	}
}

func (l *sumLayer) wroteGlobal(idx int) {
	if l.aborted {
		return
	}
	l.written[memoLoc{k: locGlobal, a: int32(idx)}] = struct{}{}
}

func (l *sumLayer) wroteHeapField(obj, field int) {
	if l.aborted || obj >= l.baseHeapLen {
		return
	}
	l.written[memoLoc{k: locHeapField, a: int32(obj), b: int32(field)}] = struct{}{}
}

func (l *sumLayer) wroteLocal(frameID, slot int) {
	if l.aborted {
		return
	}
	loc, ok := l.localLoc(frameID, slot)
	if !ok {
		return
	}
	l.written[loc] = struct{}{}
}

func (l *sumLayer) wroteTs() { l.tsWritten = true }

// normTs returns a copy of ts with every argument normalized.
func normTs(ts []Pending, callerID, baseNext int) ([]Pending, bool) {
	out := make([]Pending, len(ts))
	for i, p := range ts {
		args := make([]Value, len(p.Args))
		for j, a := range p.Args {
			na, ok := normVal(a, callerID, baseNext)
			if !ok {
				return nil, false
			}
			args[j] = na
		}
		out[i] = Pending{Fn: p.Fn, Args: args}
	}
	return out, true
}

// sumTsMatch compares a stored (normalized) ts snapshot against the raw
// observed multiset of a lookup base, normalizing on the fly.
func sumTsMatch(stored []Pending, obs []Pending, callerID int) bool {
	if len(stored) != len(obs) {
		return false
	}
	for i := range stored {
		if stored[i].Fn != obs[i].Fn || len(stored[i].Args) != len(obs[i].Args) {
			return false
		}
		for j := range stored[i].Args {
			ov := obs[i].Args[j]
			if ov.Kind == KPtr && ov.Ptr.Kind == CLocal && ov.Ptr.FrameID == callerID {
				ov.Ptr.FrameID = markerFrameID
			}
			if stored[i].Args[j] != ov {
				return false
			}
		}
	}
	return true
}

// SummaryStats is a point-in-time snapshot of the table's counters.
type SummaryStats struct {
	Hits            int64
	Misses          int64
	Stores          int64
	Evictions       int64
	StepsSaved      int64
	Composed        int64
	MaxDepth        int64
	AuditMismatches int64
	Entries         int64
	Bytes           int64
}

// HitRatio returns hits/(hits+misses), or 0 with no lookups.
func (st SummaryStats) HitRatio() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// Sub returns the counter deltas st − prev; Entries/Bytes stay absolute
// (they describe the table now, not an interval).
func (st SummaryStats) Sub(prev SummaryStats) SummaryStats {
	return SummaryStats{
		Hits:            st.Hits - prev.Hits,
		Misses:          st.Misses - prev.Misses,
		Stores:          st.Stores - prev.Stores,
		Evictions:       st.Evictions - prev.Evictions,
		StepsSaved:      st.StepsSaved - prev.StepsSaved,
		Composed:        st.Composed - prev.Composed,
		MaxDepth:        st.MaxDepth,
		AuditMismatches: st.AuditMismatches - prev.AuditMismatches,
		Entries:         st.Entries,
		Bytes:           st.Bytes,
	}
}

type sumShard struct {
	mu      sync.Mutex
	m       map[uint64][]*sumGroup
	head    *sumEntry
	tail    *sumEntry
	bytes   int64
	entries int64
	seen    []uint64
	_       [24]byte
}

// SummaryTable is the sharded, byte-budgeted call-summary cache. Safe
// for concurrent use by a search's workers, and — unlike FoldMemo —
// safe to hand to a SEQUENCE of checks of the same program (kissd does):
// entries carry no per-check state, and BindCompile pins the one
// Compiled program the sites refer to.
type SummaryTable struct {
	shards   []sumShard
	mask     uint64
	perShard int64
	audit    bool

	compileMu sync.Mutex
	compiled  *Compiled

	hits            atomic.Int64
	misses          atomic.Int64
	stores          atomic.Int64
	evictions       atomic.Int64
	stepsSaved      atomic.Int64
	composed        atomic.Int64
	maxDepth        atomic.Int64
	auditMismatches atomic.Int64
}

// NewSummaryTable returns a table with the given byte budget (<= 0
// selects DefaultSummaryBytes). With audit set, every hit re-executes
// the segment and compares byte-for-byte, dropping mismatching entries.
func NewSummaryTable(budgetBytes int64, audit bool) *SummaryTable {
	if budgetBytes <= 0 {
		budgetBytes = DefaultSummaryBytes
	}
	t := &SummaryTable{
		shards:   make([]sumShard, sumShards),
		mask:     sumShards - 1,
		perShard: budgetBytes / sumShards,
		audit:    audit,
	}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64][]*sumGroup)
	}
	return t
}

// Audit reports whether the table verifies every hit by re-execution.
func (t *SummaryTable) Audit() bool { return t.audit }

// BindCompile returns the one Compiled program this table serves,
// compiling it on first use. A persistent table's entries hold
// *CompiledFunc pointers, so every check reusing the table must run the
// SAME compiled object — the service keys tables by program content
// hash, and this pins the pointer identity to match.
func (t *SummaryTable) BindCompile(f func() (*Compiled, error)) (*Compiled, error) {
	t.compileMu.Lock()
	defer t.compileMu.Unlock()
	if t.compiled != nil {
		return t.compiled, nil
	}
	c, err := f()
	if err != nil {
		return nil, err
	}
	t.compiled = c
	return c, nil
}

func (t *SummaryTable) shardFor(h uint64) *sumShard {
	return &t.shards[(h^h>>32)&t.mask]
}

// Stats returns a snapshot of the table's counters.
func (t *SummaryTable) Stats() SummaryStats {
	st := SummaryStats{
		Hits:            t.hits.Load(),
		Misses:          t.misses.Load(),
		Stores:          t.stores.Load(),
		Evictions:       t.evictions.Load(),
		StepsSaved:      t.stepsSaved.Load(),
		Composed:        t.composed.Load(),
		MaxDepth:        t.maxDepth.Load(),
		AuditMismatches: t.auditMismatches.Load(),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		st.Entries += sh.entries
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// lookup probes the table at a call site (ti's next instruction is the
// OpCall at fr.PC; fr is ti's top frame). Returns the matching entry or
// nil, plus whether the site is warm — missed before — which gates
// opening a recording layer (first visits run bare, as in FoldMemo).
func (t *SummaryTable) lookup(s *State, ti int, fr *Frame) (*sumEntry, bool) {
	h := siteHash(s.Threads[ti].ID, fr.CF, fr.PC)
	sh := t.shardFor(h)
	sh.mu.Lock()
	for _, g := range sh.m[h] {
		if g.site.cf != fr.CF || g.site.pc != fr.PC || g.site.tid != s.Threads[ti].ID {
			continue
		}
		if e := g.find(s, ti, fr.ID); e != nil {
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
	t.misses.Add(1)
	return nil, warm
}

// find descends the site's decision tree at s, normalizing each observed
// read against the live caller (id callerID) before comparing.
func (g *sumGroup) find(s *State, ti, callerID int) *sumEntry {
	n := &g.root
	for {
		if n.leaf != nil {
			return n.leaf
		}
		if len(n.kids) == 0 {
			return nil
		}
		var or memoRead
		switch loc := n.kids[0].r.loc; loc.k {
		case locGlobal:
			if int(loc.a) >= len(s.Globals) {
				return nil
			}
			v, ok := normVal(s.Globals[loc.a], callerID, s.nextFrameID)
			if !ok {
				return nil
			}
			or = memoRead{loc: loc, v: v}
		case locHeapField:
			if int(loc.a) >= len(s.Heap) {
				return nil
			}
			o := s.Heap[loc.a]
			if int(loc.b) >= len(o.Fields) {
				return nil
			}
			v, ok := normVal(o.Fields[loc.b], callerID, s.nextFrameID)
			if !ok {
				return nil
			}
			or = memoRead{loc: loc, v: v}
		case locHeapRec:
			if int(loc.a) >= len(s.Heap) {
				return nil
			}
			or = memoRead{loc: loc, v: Value{Fn: s.Heap[loc.a].Rec}}
		case locCallerLocal:
			fr := findFrameInThread(s.Threads[ti], callerID)
			if fr == nil || int(loc.b) >= len(fr.Locals) {
				return nil
			}
			v, ok := normVal(fr.Locals[loc.b], callerID, s.nextFrameID)
			if !ok {
				return nil
			}
			or = memoRead{loc: loc, v: v}
		case locLocal:
			fr := findFrameInThread(s.Threads[ti], int(loc.a))
			if fr == nil || int(loc.b) >= len(fr.Locals) {
				return nil
			}
			v, ok := normVal(fr.Locals[loc.b], callerID, s.nextFrameID)
			if !ok {
				return nil
			}
			or = memoRead{loc: loc, v: v}
		case locDangling:
			if findFrameInThread(s.Threads[ti], int(loc.a)) != nil {
				return nil
			}
			or = memoRead{loc: loc}
		case locTsFull:
			next := (*sumNode)(nil)
			for i := range n.kids {
				k := &n.kids[i]
				if k.r.loc.k == locTsFull && sumTsMatch(k.ts, s.Ts, callerID) {
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
		default:
			return nil
		}
		next := (*sumNode)(nil)
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

// insert threads e's footprint into the tree; false if an entry already
// occupies the path (another worker recorded the same segment).
func (g *sumGroup) insert(e *sumEntry) bool {
	n := &g.root
	for i := range e.reads {
		r := e.reads[i]
		var next *sumNode
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
			next = &sumNode{}
			kid := sumKid{r: r, n: next}
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
	if n.leaf != nil {
		return false
	}
	n.leaf = e
	return true
}

func (n *sumNode) removeEntry(e *sumEntry, reads []memoRead) {
	if len(reads) == 0 {
		if n.leaf == e {
			n.leaf = nil
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
		if k.n.leaf == nil && len(k.n.kids) == 0 {
			removed := n.kids[j].r
			last := len(n.kids) - 1
			n.kids[j] = n.kids[last]
			n.kids[last] = sumKid{}
			n.kids = n.kids[:last]
			// Maintained in place, as in memoNode.removeEntry.
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

func (g *sumGroup) empty() bool {
	return g.root.leaf == nil && len(g.root.kids) == 0
}

// feed replays the entry's footprint and write set through the standard
// recorder hooks, denormalized to the current call instance, so every
// active sink (the fold recorder, enclosing layers) records exactly what
// executing the segment would have fed it. Reads go first in recorded
// order (they are pre-write by construction), then the write marks; a
// frame-consuming segment feeds the id counter to the fold part only
// (layers track it relatively via their own diff).
func feed(rec *foldRecorder, s *State, ti int, e *sumEntry) {
	callerID := s.Threads[ti].Top().ID
	for _, r := range e.reads {
		switch r.loc.k {
		case locGlobal:
			rec.readGlobal(int(r.loc.a), denormVal(r.v, callerID))
		case locHeapField:
			rec.readHeapField(int(r.loc.a), int(r.loc.b), denormVal(r.v, callerID))
		case locHeapRec:
			rec.readHeapRec(int(r.loc.a), r.v.Fn)
		case locCallerLocal:
			rec.readLocal(callerID, int(r.loc.b), denormVal(r.v, callerID))
		case locLocal:
			rec.readLocal(int(r.loc.a), int(r.loc.b), denormVal(r.v, callerID))
		case locDangling:
			rec.readDangling(int(r.loc.a), int(r.loc.b))
		case locTsFull:
			rec.readTs(s.Ts)
		case locHeapLen:
			rec.readHeapLen(len(s.Heap))
		}
	}
	d := &e.delta
	if d.frameIDDelta != 0 {
		rec.readNextFrameID(s.nextFrameID)
	}
	for _, w := range d.globals {
		rec.wroteGlobal(int(w.idx))
	}
	for _, w := range d.objFields {
		rec.wroteHeapField(int(w.obj), int(w.field))
	}
	for _, w := range d.callerSlots {
		rec.wroteLocal(callerID, int(w.idx))
	}
	for i := range d.deepFrames {
		df := &d.deepFrames[i]
		for _, w := range df.slots {
			rec.wroteLocal(int(df.frameID), int(w.idx))
		}
	}
	if d.tsChanged {
		rec.wroteTs()
	}
}

// applySumDelta clones s and applies the entry's delta through the COW
// accessors, denormalizing values against the live caller — raw-exactly
// what executing the segment from s would have produced.
func applySumDelta(s *State, ti int, e *sumEntry) *State {
	callerID := s.Threads[ti].Top().ID
	d := &e.delta
	ns := s.Clone()
	if len(d.globals) > 0 {
		g := ns.mutableGlobals()
		for _, w := range d.globals {
			g[w.idx] = denormVal(w.v, callerID)
		}
	}
	for _, w := range d.objFields {
		ns.mutableObject(int(w.obj)).Fields[w.field] = denormVal(w.v, callerID)
	}
	for i := range d.newObjs {
		no := &d.newObjs[i]
		fields := make([]Value, len(no.fields))
		for j, v := range no.fields {
			fields[j] = denormVal(v, callerID)
		}
		ns.appendObject(&Object{Rec: no.rec, Fields: fields})
	}
	fr := ns.MutableTopFrame(ti)
	fr.PC = int(d.callerPC)
	for _, w := range d.callerSlots {
		fr.Locals[w.idx] = denormVal(w.v, callerID)
	}
	for i := range d.deepFrames {
		df := &d.deepFrames[i]
		dti, fi := ns.findFrameIndex(int(df.frameID))
		if dti < 0 {
			continue // unreachable: the diff verified the frame live
		}
		dfr := ns.mutableFrame(dti, fi)
		for _, w := range df.slots {
			dfr.Locals[w.idx] = denormVal(w.v, callerID)
		}
	}
	if d.tsChanged {
		ts := make([]Pending, len(d.ts))
		for i, p := range d.ts {
			args := make([]Value, len(p.Args))
			for j, a := range p.Args {
				args[j] = denormVal(a, callerID)
			}
			ts[i] = Pending{Fn: p.Fn, Args: args}
		}
		ns.Ts = ts
		ns.tsGen = ns.gen
	}
	ns.nextFrameID += int(d.frameIDDelta)
	return ns
}

// replay produces the post-segment state for a hit. Without audit it
// feeds active sinks and applies the delta — zero Step calls. With audit
// it executes the segment for real (hooks feed sinks naturally),
// compares state and events byte-for-byte, and returns the executed
// result; mismatches drop the entry and report !ok so the caller falls
// back to plain stepping.
func (t *SummaryTable) replay(s *State, ti int, rec *foldRecorder, e *sumEntry) (*State, bool) {
	if !t.audit {
		if rec != nil && (rec.foldActive || len(rec.layers) > 0) {
			feed(rec, s, ti, e)
			if len(rec.layers) > 0 {
				t.composed.Add(1)
			}
		}
		t.hits.Add(1)
		t.stepsSaved.Add(int64(e.stepped))
		return applySumDelta(s, ti, e), true
	}
	final, ok := t.execSegment(s, ti, e)
	if !ok {
		t.auditMismatches.Add(1)
		t.remove(e)
		return nil, false
	}
	t.hits.Add(1)
	t.stepsSaved.Add(int64(e.stepped))
	return final, true
}

// execSegment re-executes a summarized segment step by step (the audit
// path), verifying each event, index, and the final state against the
// entry. Returns the executed final state so audit hits are correct by
// construction.
func (t *SummaryTable) execSegment(s *State, ti int, e *sumEntry) (*State, bool) {
	cur := s
	for i := 0; i < e.stepped; i++ {
		sr := Step(cur, ti)
		if sr.Failure != nil || sr.Blocked {
			return nil, false
		}
		outs := sr.Outcomes
		var idxs []int32
		if len(outs) > 1 {
			outs, idxs = pruneInfeasible(sr.Outcomes, ti)
		}
		if len(outs) != 1 || !soleLive(outs[0].State, ti) {
			return nil, false
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		if outs[0].Event != e.events[i] || idx0 != e.idx[i] {
			return nil, false
		}
		cur = outs[0].State
	}
	want := applySumDelta(s, ti, e)
	want.rec = nil
	if !rawStateEqual(cur, want) {
		return nil, false
	}
	return cur, true
}

// remove drops an entry (audit mismatch) if it is still in the table.
func (t *SummaryTable) remove(e *sumEntry) {
	sh := t.shardFor(e.siteHash)
	sh.mu.Lock()
	if e.linked {
		sh.unlinkLocked(e)
	}
	sh.mu.Unlock()
}

// store builds and inserts the entry for a closed layer. events/idx are
// owned by the entry (exact-size copies made by the caller).
func (t *SummaryTable) store(l *sumLayer, end *State, ti int, events []Event, idx []int32, stepped int) {
	if l.aborted || stepped < summaryMinStepped {
		return
	}
	d, ok := sumDiff(l, end, ti)
	if !ok {
		return
	}
	e := &sumEntry{
		site:     l.site,
		siteHash: l.siteHash,
		reads:    append([]memoRead(nil), l.reads...),
		stepped:  stepped,
		events:   events,
		idx:      idx,
		delta:    d,
	}
	if l.tsSeen {
		e.ts = l.ts
	}
	e.bytes = sumEntrySize(e)

	sh := t.shardFor(e.siteHash)
	sh.mu.Lock()
	var g *sumGroup
	for _, cand := range sh.m[e.siteHash] {
		if cand.site == e.site {
			g = cand
			break
		}
	}
	if g == nil {
		g = &sumGroup{site: e.site}
		sh.m[e.siteHash] = append(sh.m[e.siteHash], g)
	}
	e.group = g
	if !g.insert(e) {
		sh.mu.Unlock()
		return
	}
	e.linked = true
	sh.pushFront(e)
	sh.bytes += int64(e.bytes)
	sh.entries++
	for sh.bytes > t.perShard && sh.tail != nil && sh.tail != e {
		sh.unlinkLocked(sh.tail)
		t.evictions.Add(1)
	}
	sh.mu.Unlock()
	t.stores.Add(1)
}

// sumDiff computes the normalized write delta of a closed segment.
// ok=false rejects segments whose effect does not fit the transferable
// model: surviving threads/frames outside the caller's reach, a value
// embedding a segment-created frame id, or a consumed thread id.
func sumDiff(l *sumLayer, end *State, ti int) (sumDelta, bool) {
	base := l.base
	d := sumDelta{frameIDDelta: int32(end.nextFrameID - base.nextFrameID)}
	if end.nextThreadID != base.nextThreadID || len(end.Threads) != len(base.Threads) {
		return d, false
	}
	// As in diffOutcome: value scans plus an equal-value force pass over
	// the short write set, instead of a map probe per compared slot.
	var wGlobals, wFields, wCaller, wLocals []memoLoc
	for loc := range l.written {
		switch loc.k {
		case locGlobal:
			wGlobals = append(wGlobals, loc)
		case locHeapField:
			wFields = append(wFields, loc)
		case locCallerLocal:
			wCaller = append(wCaller, loc)
		case locLocal:
			wLocals = append(wLocals, loc)
		}
	}
	norm := func(v Value) (Value, bool) {
		return normVal(v, l.callerID, l.baseNextFrame)
	}

	if len(end.Globals) != len(base.Globals) {
		return d, false
	}
	if len(base.Globals) > 0 && &end.Globals[0] != &base.Globals[0] {
		for i := range end.Globals {
			if end.Globals[i] == base.Globals[i] {
				continue
			}
			nv, ok := norm(end.Globals[i])
			if !ok {
				return d, false
			}
			d.globals = append(d.globals, slotWrite{int32(i), nv})
		}
		for _, loc := range wGlobals {
			if i := int(loc.a); i < len(end.Globals) && end.Globals[i] == base.Globals[i] {
				nv, ok := norm(end.Globals[i])
				if !ok {
					return d, false
				}
				d.globals = append(d.globals, slotWrite{loc.a, nv})
			}
		}
	}

	if len(end.Heap) < len(base.Heap) {
		return d, false
	}
	for i := 0; i < len(base.Heap); i++ {
		bo, oo := base.Heap[i], end.Heap[i]
		if bo == oo {
			continue
		}
		if oo.Rec != bo.Rec || len(oo.Fields) != len(bo.Fields) {
			return d, false
		}
		for f := range oo.Fields {
			if oo.Fields[f] == bo.Fields[f] {
				continue
			}
			nv, ok := norm(oo.Fields[f])
			if !ok {
				return d, false
			}
			d.objFields = append(d.objFields, objFieldWrite{int32(i), int32(f), nv})
		}
		for _, loc := range wFields {
			if int(loc.a) != i {
				continue
			}
			if f := int(loc.b); f < len(oo.Fields) && oo.Fields[f] == bo.Fields[f] {
				nv, ok := norm(oo.Fields[f])
				if !ok {
					return d, false
				}
				d.objFields = append(d.objFields, objFieldWrite{loc.a, loc.b, nv})
			}
		}
	}
	for i := len(base.Heap); i < len(end.Heap); i++ {
		o := end.Heap[i]
		fields := make([]Value, len(o.Fields))
		for f, v := range o.Fields {
			nv, ok := norm(v)
			if !ok {
				return d, false
			}
			fields[f] = nv
		}
		d.newObjs = append(d.newObjs, newObjCopy{rec: o.Rec, fields: fields})
	}

	for j := range base.Threads {
		if j != ti && end.Threads[j] != base.Threads[j] {
			return d, false
		}
	}
	bt, ot := base.Threads[ti], end.Threads[ti]
	if len(ot.Frames) != l.d0 || len(bt.Frames) != l.d0 {
		return d, false
	}
	for j := 0; j < l.d0; j++ {
		bf, of := bt.Frames[j], ot.Frames[j]
		if of.ID != bf.ID {
			return d, false
		}
		isCaller := j == l.d0-1
		if bf == of {
			if isCaller {
				return d, false // the OpCall step always advances the caller PC
			}
			continue
		}
		if of.CF != bf.CF || of.Result != bf.Result || len(of.Locals) != len(bf.Locals) {
			return d, false
		}
		if isCaller {
			d.callerPC = int32(of.PC)
			for si := range of.Locals {
				if of.Locals[si] == bf.Locals[si] {
					continue
				}
				nv, ok := norm(of.Locals[si])
				if !ok {
					return d, false
				}
				d.callerSlots = append(d.callerSlots, slotWrite{int32(si), nv})
			}
			for _, loc := range wCaller {
				if si := int(loc.b); si < len(of.Locals) && of.Locals[si] == bf.Locals[si] {
					nv, ok := norm(of.Locals[si])
					if !ok {
						return d, false
					}
					d.callerSlots = append(d.callerSlots, slotWrite{loc.b, nv})
				}
			}
			continue
		}
		if of.PC != bf.PC {
			return d, false
		}
		df := deepFrameWrite{frameID: int32(bf.ID)}
		for si := range of.Locals {
			if of.Locals[si] == bf.Locals[si] {
				continue
			}
			nv, ok := norm(of.Locals[si])
			if !ok {
				return d, false
			}
			df.slots = append(df.slots, slotWrite{int32(si), nv})
		}
		for _, loc := range wLocals {
			if int(loc.a) != bf.ID {
				continue
			}
			if si := int(loc.b); si < len(of.Locals) && of.Locals[si] == bf.Locals[si] {
				nv, ok := norm(of.Locals[si])
				if !ok {
					return d, false
				}
				df.slots = append(df.slots, slotWrite{loc.b, nv})
			}
		}
		if len(df.slots) > 0 {
			d.deepFrames = append(d.deepFrames, df)
		}
	}

	if !tsEqual(end.Ts, base.Ts) {
		nts, ok := normTs(end.Ts, l.callerID, l.baseNextFrame)
		if !ok {
			return d, false
		}
		d.tsChanged = true
		d.ts = nts
	}
	return d, true
}

// sumEntrySize estimates an entry's heap footprint for the byte budget.
func sumEntrySize(e *sumEntry) int {
	n := 208 + len(e.reads)*80 + len(e.idx)*4
	for i := range e.ts {
		n += 40 + len(e.ts[i].Fn) + len(e.ts[i].Args)*64
	}
	for i := range e.events {
		n += eventSize(&e.events[i])
	}
	d := &e.delta
	n += len(d.globals)*72 + len(d.objFields)*80 + len(d.callerSlots)*72
	for j := range d.deepFrames {
		n += 24 + len(d.deepFrames[j].slots)*72
	}
	for j := range d.newObjs {
		n += 48 + len(d.newObjs[j].rec) + len(d.newObjs[j].fields)*64
	}
	for j := range d.ts {
		n += 40 + len(d.ts[j].Fn) + len(d.ts[j].Args)*64
	}
	return n
}

// LRU maintenance; callers hold the shard mutex.

func (sh *sumShard) pushFront(e *sumEntry) {
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

func (sh *sumShard) moveFront(e *sumEntry) {
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

func (sh *sumShard) unlinkLocked(e *sumEntry) {
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
		bucket := sh.m[e.siteHash]
		for i, cur := range bucket {
			if cur == g {
				bucket[i] = bucket[len(bucket)-1]
				bucket[len(bucket)-1] = nil
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(sh.m, e.siteHash)
		} else {
			sh.m[e.siteHash] = bucket
		}
	}
	sh.bytes -= int64(e.bytes)
	sh.entries--
}
