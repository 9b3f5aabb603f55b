package sem

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Object is a heap-allocated record instance.
type Object struct {
	Rec    string // record type name
	Fields []Value

	// gen is the copy-on-write stamp: the State.gen of the state that
	// allocated or last copied this object. See the COW invariant on
	// State.Clone.
	gen uint64
}

// Pending is a forked-but-unscheduled thread in the ts multiset of the
// sequential semantics (Section 4): a starting function plus the argument
// values captured at fork time.
type Pending struct {
	Fn   string
	Args []Value
}

// Text renders p as the canonical ts multiset order sorts entries,
// naming function values through c's table.
func (p Pending) Text(c *Compiled) string {
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.Text(c)
	}
	return p.Fn + "(" + strings.Join(parts, ",") + ")"
}

// equal reports whether p and q are the same pending thread: the same
// function and word-equal arguments.
func (p Pending) equal(q Pending) bool {
	return p.Fn == q.Fn && slices.EqualFunc(p.Args, q.Args, Value.Equal)
}

// Frame is one activation record.
type Frame struct {
	ID     int // unique within a state lineage; used for &local identity
	CF     *CompiledFunc
	PC     int
	Locals []Value
	// Result names the variable in the caller's scope that receives this
	// frame's return value ("" if the call discards it).
	Result string

	// gen is the copy-on-write stamp (see State.Clone).
	gen uint64
}

// Thread is one thread of control: a stack of frames, top last. A thread
// with no frames has terminated.
type Thread struct {
	ID     int
	Frames []*Frame

	// gen is the copy-on-write stamp guarding the Frames spine (see
	// State.Clone).
	gen uint64
}

// Top returns the active frame, or nil for a terminated thread.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// Done reports whether the thread has terminated.
func (t *Thread) Done() bool { return len(t.Frames) == 0 }

// State is a complete program configuration: global store, heap, all
// threads, and (in the sequential semantics) the ts multiset.
//
// States clone copy-on-write: Clone shares every component with its
// source, and the mutable* accessors path-copy a component the first time
// the new state writes it. Read access through the exported fields is
// always safe; writers inside this package must go through the accessors
// (external callers mutate states only via Step, which does). The public
// fields continue to describe the complete configuration — sharing is
// invisible except through the allocation profile.
type State struct {
	C       *Compiled // shared, immutable
	Globals []Value
	Heap    []*Object
	Threads []*Thread
	Ts      []Pending

	nextFrameID  int
	nextThreadID int

	// gen is this state's copy-on-write generation. A component (globals
	// slice, heap spine, object, threads spine, thread, frame, ts slice)
	// carries the gen of the state that created its current version; the
	// component may be mutated in place iff its stamp equals the state's
	// gen. Clone hands the child gen+1 and bumps the parent to gen+2, so
	// after a clone *both* sides copy before writing anything shared.
	//
	// Soundness of the stamp comparison: a structure stamped g by state s
	// is shared only with states cloned (transitively) from s after the
	// stamping; every such clone receives a gen strictly greater than g,
	// and gens never decrease, so stamp==gen identifies the stamping state
	// uniquely. Stamps are written only before a structure is shared, so
	// concurrent readers in a parallel search never race on them.
	gen        uint64
	globalsGen uint64 // ownership stamp of the Globals slice
	heapGen    uint64 // ownership stamp of the Heap spine
	threadsGen uint64 // ownership stamp of the Threads spine
	tsGen      uint64 // ownership stamp of the Ts slice
}

// NewState returns the initial state: globals zero-initialized, an empty
// heap, and a single thread about to execute main.
func NewState(c *Compiled) *State {
	s := &State{C: c}
	s.Globals = make([]Value, len(c.Globals))
	for i := range s.Globals {
		s.Globals[i] = IntV(0)
	}
	main := c.Funcs["main"]
	s.Threads = []*Thread{{ID: 0, Frames: []*Frame{s.newFrame(main, nil, "")}}}
	s.nextThreadID = 1
	return s
}

func (s *State) newFrame(cf *CompiledFunc, args []Value, result string) *Frame {
	f := &Frame{ID: s.nextFrameID, CF: cf, Locals: make([]Value, len(cf.Vars)), Result: result, gen: s.gen}
	s.nextFrameID++
	for i := range f.Locals {
		if i < len(args) {
			f.Locals[i] = args[i]
		} else {
			f.Locals[i] = IntV(0)
		}
	}
	return f
}

// Clone returns a copy-on-write copy of s: every component is shared
// with s, and either side copies a component before its next write to it
// (the gen bump below revokes both sides' in-place write rights). For
// the ~90% of transitions that touch one frame and at most one heap
// object this replaces the old O(|heap|+|stack|) deep copy with a few
// small copies proportional to what actually changes.
//
// Clone writes s.gen, so concurrent Clones of the same state are not
// safe; a state handed to another goroutine (e.g. through a search
// frontier) must be owned by one worker at a time, which frontier
// queues provide by construction.
func (s *State) Clone() *State {
	n := &State{
		C:            s.C,
		Globals:      s.Globals,
		Heap:         s.Heap,
		Threads:      s.Threads,
		Ts:           s.Ts,
		nextFrameID:  s.nextFrameID,
		nextThreadID: s.nextThreadID,
		gen:          s.gen + 1,
		globalsGen:   s.globalsGen,
		heapGen:      s.heapGen,
		threadsGen:   s.threadsGen,
		tsGen:        s.tsGen,
	}
	s.gen += 2
	return n
}

// DeepClone returns an eager deep copy of s sharing only the immutable
// Compiled program and instruction slices — the pre-COW Clone. It remains
// the reference implementation: property tests assert that a Step over a
// COW clone and over a deep clone produce fingerprint-identical
// successors, and the clone microbenchmarks compare the two.
func (s *State) DeepClone() *State {
	n := &State{
		C:            s.C,
		Globals:      append([]Value(nil), s.Globals...),
		nextFrameID:  s.nextFrameID,
		nextThreadID: s.nextThreadID,
	}
	n.Heap = make([]*Object, len(s.Heap))
	for i, o := range s.Heap {
		n.Heap[i] = &Object{Rec: o.Rec, Fields: append([]Value(nil), o.Fields...)}
	}
	n.Threads = make([]*Thread, len(s.Threads))
	for i, t := range s.Threads {
		nt := &Thread{ID: t.ID, Frames: make([]*Frame, len(t.Frames))}
		for j, fr := range t.Frames {
			nt.Frames[j] = &Frame{
				ID: fr.ID, CF: fr.CF, PC: fr.PC,
				Locals: append([]Value(nil), fr.Locals...),
				Result: fr.Result,
			}
		}
		n.Threads[i] = nt
	}
	if len(s.Ts) > 0 {
		n.Ts = make([]Pending, len(s.Ts))
		for i, p := range s.Ts {
			n.Ts[i] = Pending{Fn: p.Fn, Args: append([]Value(nil), p.Args...)}
		}
	}
	// The deep copy owns every component it built (gen 0 == stamp 0).
	return n
}

// mutableGlobals returns the Globals slice with write access, copying it
// first if it is shared with other states of the lineage.
func (s *State) mutableGlobals() []Value {
	if s.globalsGen != s.gen {
		s.Globals = append([]Value(nil), s.Globals...)
		s.globalsGen = s.gen
	}
	return s.Globals
}

// mutableHeap returns the heap spine with write access (replacing object
// pointers, appending), copying the spine first if shared.
func (s *State) mutableHeap() []*Object {
	if s.heapGen != s.gen {
		s.Heap = append([]*Object(nil), s.Heap...)
		s.heapGen = s.gen
	}
	return s.Heap
}

// mutableObject returns heap object idx with write access, path-copying
// the spine and the object if either is shared.
func (s *State) mutableObject(idx int) *Object {
	o := s.Heap[idx]
	// stamp==gen implies s created this object version after its last
	// Clone, so both the object and the spine slot are exclusively s's.
	if o.gen == s.gen {
		return o
	}
	no := &Object{Rec: o.Rec, Fields: append([]Value(nil), o.Fields...), gen: s.gen}
	s.mutableHeap()[idx] = no
	return no
}

// appendObject allocates o at the end of the heap and returns its index.
func (s *State) appendObject(o *Object) int {
	o.gen = s.gen
	s.Heap = append(s.mutableHeap(), o)
	return len(s.Heap) - 1
}

// mutableThreadsSpine returns the Threads slice with write access.
func (s *State) mutableThreadsSpine() []*Thread {
	if s.threadsGen != s.gen {
		s.Threads = append([]*Thread(nil), s.Threads...)
		s.threadsGen = s.gen
	}
	return s.Threads
}

// mutableThread returns thread ti with write access to its Frames spine
// (push/pop/replace frame pointers), path-copying as needed.
func (s *State) mutableThread(ti int) *Thread {
	t := s.Threads[ti]
	if t.gen == s.gen {
		return t
	}
	nt := &Thread{ID: t.ID, Frames: append([]*Frame(nil), t.Frames...), gen: s.gen}
	s.mutableThreadsSpine()[ti] = nt
	return nt
}

// mutableFrame returns frame fi of thread ti with write access.
func (s *State) mutableFrame(ti, fi int) *Frame {
	t := s.mutableThread(ti)
	fr := t.Frames[fi]
	if fr.gen == s.gen {
		return fr
	}
	nf := &Frame{
		ID: fr.ID, CF: fr.CF, PC: fr.PC,
		Locals: append([]Value(nil), fr.Locals...),
		Result: fr.Result,
		gen:    s.gen,
	}
	t.Frames[fi] = nf
	return nf
}

// MutableTopFrame returns the active frame of thread ti with write
// access. Step acquires it once per successor; a frame pointer obtained
// here is invalidated by a subsequent Clone of the state (the clone
// revokes in-place write rights), after which it must be re-acquired.
func (s *State) MutableTopFrame(ti int) *Frame {
	return s.mutableFrame(ti, len(s.Threads[ti].Frames)-1)
}

// appendThread adds a freshly created thread.
func (s *State) appendThread(t *Thread) {
	t.gen = s.gen
	s.Threads = append(s.mutableThreadsSpine(), t)
}

// pushFrame pushes a freshly created frame onto thread ti.
func (s *State) pushFrame(ti int, fr *Frame) {
	t := s.mutableThread(ti)
	fr.gen = s.gen
	t.Frames = append(t.Frames, fr)
}

// popFrame removes and returns the top frame of thread ti. The vacated
// slot is cleared: the spine is owned, so no other state can see it, and
// a state that keeps this spine must not keep the popped frame alive.
func (s *State) popFrame(ti int) *Frame {
	t := s.mutableThread(ti)
	n := len(t.Frames) - 1
	fr := t.Frames[n]
	t.Frames[n] = nil
	t.Frames = t.Frames[:n]
	return fr
}

// appendTs adds a pending entry to the ts multiset.
func (s *State) appendTs(p Pending) {
	if s.tsGen != s.gen {
		ns := make([]Pending, len(s.Ts), len(s.Ts)+1)
		copy(ns, s.Ts)
		s.Ts = ns
		s.tsGen = s.gen
	}
	s.Ts = append(s.Ts, p)
}

// removeTs removes and returns entry i of the ts multiset. The backing
// array may be shared, so the entry is removed by rebuilding the slice;
// Pending entries themselves are immutable and stay shared.
func (s *State) removeTs(i int) Pending {
	p := s.Ts[i]
	ns := make([]Pending, 0, len(s.Ts)-1)
	ns = append(ns, s.Ts[:i]...)
	ns = append(ns, s.Ts[i+1:]...)
	s.Ts = ns
	s.tsGen = s.gen
	return p
}

// findFrameIndex locates a live frame by id across all threads, returning
// its (thread, frame) position for the mutable accessors. Returns (-1, -1)
// if the frame has been popped.
func (s *State) findFrameIndex(id int) (int, int) {
	for ti, t := range s.Threads {
		for fi, fr := range t.Frames {
			if fr.ID == id {
				return ti, fi
			}
		}
	}
	return -1, -1
}

// findFrame locates a live frame by id across all threads (for CLocal
// pointer access). Returns nil if the frame has been popped.
func (s *State) findFrame(id int) *Frame {
	for _, t := range s.Threads {
		for _, fr := range t.Frames {
			if fr.ID == id {
				return fr
			}
		}
	}
	return nil
}

// SplitCall splits s, a one-thread state that has just entered a call or
// dispatch (thread 0 holds the caller's frame, its PC past the call, and
// the callee's frame at entry), into two one-frame states sharing s's
// globals and ts: the caller's resume site and the callee's entry. It
// also returns the variable receiving the callee's return value ("" if
// none), which it clears in the callee's frame, so the callee's entry
// state is the same whichever variable the call site assigns. The
// summary engine (internal/boolcheck) tabulates the two apart.
func (s *State) SplitCall() (caller, callee *State, result string) {
	frames := s.Threads[0].Frames
	caller, callee = s.withFrame(frames[0]), s.withFrame(frames[1])
	if result = frames[1].Result; result != "" {
		callee.mutableFrame(0, 0).Result = ""
	}
	return caller, callee, result
}

// withFrame returns a clone of s whose single thread holds only fr. The
// frame stays shared, stamped older than the clone, so the clone copies
// it before its first write.
func (s *State) withFrame(fr *Frame) *State {
	n := s.Clone()
	n.Threads = []*Thread{{ID: 0, Frames: []*Frame{fr}, gen: n.gen}}
	n.threadsGen = n.gen
	return n
}

// Resume continues s, a heap-free one-frame state at a call's resume
// site, with the callee's exit state: it returns a copy of s holding
// exit's globals and ts, and rv stored into the variable result ("" drops
// it) as a return stores it. This applies a summary edge of
// internal/boolcheck.
func (s *State) Resume(exit *State, result string, rv Value) (*State, *RuntimeError) {
	n := s.Clone()
	// n keeps s's ownership stamps for both slices, which predate n's gen,
	// so n copies either slice before writing it: exit is never written.
	n.Globals, n.Ts = exit.Globals, exit.Ts
	if result == "" {
		return n, nil
	}
	return n, n.deliver(n.Threads[0].Top(), result, rv, ast.Pos{})
}

// fpEncoder canonicalizes a state into a string key. Heap objects are
// renumbered in the order they are first reached from globals, thread
// stacks, and ts, so states differing only in allocation history collide
// as intended, and unreachable (garbage) objects are excluded. Frame ids
// are canonicalized to (thread position, depth).
type fpEncoder struct {
	s          *State
	objOrder   map[int]int // heap index -> canonical number
	objList    []int       // heap indices in canonical order (worklist)
	frameCanon map[int]int // frame id -> canonical number
}

func (e *fpEncoder) touchObj(idx int) int {
	if n, ok := e.objOrder[idx]; ok {
		return n
	}
	n := len(e.objOrder)
	e.objOrder[idx] = n
	e.objList = append(e.objList, idx)
	return n
}

func (e *fpEncoder) val(b *strings.Builder, v Value) {
	switch v.Kind {
	case KInt:
		fmt.Fprintf(b, "i%d,", v.I)
	case KBool:
		fmt.Fprintf(b, "b%d,", v.I)
	case KFunc:
		fmt.Fprintf(b, "f%s,", v.Fn(e.s.C))
	case KNull:
		b.WriteString("n,")
	case KUnit:
		b.WriteString("u,")
	case KPtr:
		c := v.Ptr()
		switch c.Kind {
		case CGlobal:
			fmt.Fprintf(b, "pg%d,", c.Idx)
		case CHeapField:
			fmt.Fprintf(b, "ph%d.%d,", e.touchObj(c.Idx), c.Field)
		case CObject:
			fmt.Fprintf(b, "po%d,", e.touchObj(c.Idx))
		case CLocal:
			if n, ok := e.frameCanon[c.FrameID]; ok {
				fmt.Fprintf(b, "pl%d.%d,", n, c.Field)
			} else {
				fmt.Fprintf(b, "pl!.%d,", c.Field) // dangling
			}
		}
	}
}

// appendTsOrder appends the indices of s.Ts to order in canonical multiset
// order (sorted by a structure-only key, stably). Both fingerprint encoders
// use it so the string and hash canonicalizations can never diverge.
func (s *State) appendTsOrder(order []int) []int {
	for i := range s.Ts {
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, c int) bool {
		return s.Ts[order[a]].Text(s.C) < s.Ts[order[c]].Text(s.C)
	})
	return order
}

// FingerprintString returns the canonical string encoding of the state.
// The explicit-state searches key their visited sets on the 64-bit
// FingerprintHash instead; the string form remains the debug/verification
// API (audit modes cross-check the two, see concheck.Options).
func (s *State) FingerprintString() string {
	e := &fpEncoder{s: s, objOrder: map[int]int{}, frameCanon: map[int]int{}}
	for ti, t := range s.Threads {
		for d, fr := range t.Frames {
			e.frameCanon[fr.ID] = ti<<16 | d
		}
	}

	var b strings.Builder
	b.WriteString("G:")
	for _, v := range s.Globals {
		e.val(&b, v)
	}
	b.WriteString("T:")
	for _, t := range s.Threads {
		b.WriteString("[")
		for _, fr := range t.Frames {
			fmt.Fprintf(&b, "(%s@%d:", fr.CF.Fn.Name, fr.PC)
			for _, v := range fr.Locals {
				e.val(&b, v)
			}
			fmt.Fprintf(&b, "r%s)", fr.Result)
		}
		b.WriteString("]")
	}

	// ts is a multiset: canonicalize by sorting encoded entries. Note that
	// encoding may touch (and thus canonically number) heap objects; the
	// numbering depends only on first-reach order, and the per-entry
	// encodings are sorted afterwards, so two states with the same
	// multiset and same reachable heap produce equal keys as long as their
	// entries reach objects in the same first-touch order. To make the
	// ordering independent of ts slice order entirely, entries are first
	// sorted by a structure-only key before encoding.
	if len(s.Ts) > 0 {
		order := s.appendTsOrder(make([]int, 0, len(s.Ts)))
		b.WriteString("S:")
		for _, i := range order {
			p := s.Ts[i]
			fmt.Fprintf(&b, "%s(", p.Fn)
			for _, a := range p.Args {
				e.val(&b, a)
			}
			b.WriteString(")")
		}
	}

	// Heap contents of reached objects in canonical order; serialization
	// may discover further objects, so iterate as a worklist.
	b.WriteString("H:")
	for i := 0; i < len(e.objList); i++ {
		idx := e.objList[i]
		o := s.Heap[idx]
		fmt.Fprintf(&b, "o%d=%s{", i, o.Rec)
		for _, v := range o.Fields {
			e.val(&b, v)
		}
		b.WriteString("}")
	}
	return b.String()
}
