package sem

import (
	"encoding/binary"
	"fmt"
)

// State snapshots: a compact binary encoding of a complete program
// configuration, used by the disk-spilling search frontier
// (internal/frontier) to serialize frames past the in-RAM budget and
// restore them later in the search.
//
// The encoding is verbatim, not canonical: heap indices, frame ids, and
// the nextFrameID/nextThreadID counters round-trip exactly, so a restored
// state is indistinguishable from the original to Step, MacroStep, and
// both fingerprint encoders — successors allocate the same heap slots and
// frame ids, and fingerprints (which canonicalize reachable objects and
// frame ids themselves) are bit-identical. Garbage heap objects are
// included for exactly this reason: dropping them would shift the indices
// of later allocations and change successor fingerprints.
//
// Code references (Frame.CF) are encoded by function name and resolved
// against the Compiled program at decode time; the program itself is
// shared and never serialized. A decoded state owns every component it
// holds (all COW stamps zero, like DeepClone).

// AppendSnapshot appends the snapshot encoding of s to buf and returns
// the extended slice.
func AppendSnapshot(buf []byte, s *State) []byte {
	c := s.C
	buf = binary.AppendUvarint(buf, uint64(len(s.Globals)))
	for _, v := range s.Globals {
		buf = appendValue(buf, c, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Heap)))
	for _, o := range s.Heap {
		buf = appendString(buf, o.Rec)
		buf = binary.AppendUvarint(buf, uint64(len(o.Fields)))
		for _, v := range o.Fields {
			buf = appendValue(buf, c, v)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Threads)))
	for _, t := range s.Threads {
		buf = binary.AppendUvarint(buf, uint64(t.ID))
		buf = binary.AppendUvarint(buf, uint64(len(t.Frames)))
		for _, fr := range t.Frames {
			buf = binary.AppendUvarint(buf, uint64(fr.ID))
			buf = appendString(buf, fr.CF.Fn.Name)
			buf = binary.AppendUvarint(buf, uint64(fr.PC))
			buf = appendString(buf, fr.Result)
			buf = binary.AppendUvarint(buf, uint64(len(fr.Locals)))
			for _, v := range fr.Locals {
				buf = appendValue(buf, c, v)
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Ts)))
	for _, p := range s.Ts {
		buf = appendString(buf, p.Fn)
		buf = binary.AppendUvarint(buf, uint64(len(p.Args)))
		for _, v := range p.Args {
			buf = appendValue(buf, c, v)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(s.nextFrameID))
	buf = binary.AppendUvarint(buf, uint64(s.nextThreadID))
	return buf
}

// DecodeSnapshot rebuilds a state of program c from a snapshot produced
// by AppendSnapshot. The returned state owns all of its components.
func DecodeSnapshot(c *Compiled, data []byte) (*State, error) {
	d := &snapDecoder{c: c, data: data}
	s := &State{C: c}
	n := d.uvarint()
	s.Globals = make([]Value, n)
	for i := range s.Globals {
		s.Globals[i] = d.value()
	}
	n = d.uvarint()
	if n > 0 {
		s.Heap = make([]*Object, n)
		for i := range s.Heap {
			o := &Object{Rec: d.str()}
			o.Fields = make([]Value, d.uvarint())
			for j := range o.Fields {
				o.Fields[j] = d.value()
			}
			s.Heap[i] = o
		}
	}
	n = d.uvarint()
	s.Threads = make([]*Thread, n)
	for i := range s.Threads {
		t := &Thread{ID: int(d.uvarint())}
		nf := d.uvarint()
		if nf > 0 {
			t.Frames = make([]*Frame, nf)
			for j := range t.Frames {
				fr := &Frame{ID: int(d.uvarint())}
				name := d.str()
				fr.CF = c.Funcs[name]
				if fr.CF == nil && d.err == nil {
					d.err = fmt.Errorf("sem: snapshot references unknown function %q", name)
				}
				fr.PC = int(d.uvarint())
				fr.Result = d.str()
				fr.Locals = make([]Value, d.uvarint())
				for k := range fr.Locals {
					fr.Locals[k] = d.value()
				}
				t.Frames[j] = fr
			}
		}
		s.Threads[i] = t
	}
	n = d.uvarint()
	if n > 0 {
		s.Ts = make([]Pending, n)
		for i := range s.Ts {
			p := Pending{Fn: d.str()}
			p.Args = make([]Value, d.uvarint())
			for j := range p.Args {
				p.Args[j] = d.value()
			}
			s.Ts[i] = p
		}
	}
	s.nextFrameID = int(d.uvarint())
	s.nextThreadID = int(d.uvarint())
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("sem: snapshot has %d trailing bytes", len(d.data)-d.pos)
	}
	return s, nil
}

// MemSize estimates the resident bytes of s for frontier budget
// accounting. The estimate charges every component to the state even when
// copy-on-write shares it with siblings — an overcount that makes the
// budget conservative (the frontier spills no later than a precise count
// would allow).
//
// valueBytes is not unsafe.Sizeof(Value{}), which is 16 (DESIGN.md
// decision 25). It keeps a 56-byte charge because the estimate decides
// where the frontier spills: a smaller charge would move spill points,
// and so the spill counters a search reports, a change of results of
// its own.
func (s *State) MemSize() int {
	const valueBytes = 56
	n := 160 + valueBytes*len(s.Globals)
	for _, o := range s.Heap {
		n += 64 + len(o.Rec) + valueBytes*len(o.Fields)
	}
	for _, t := range s.Threads {
		n += 48
		for _, fr := range t.Frames {
			n += 96 + len(fr.Result) + valueBytes*len(fr.Locals)
		}
	}
	for _, p := range s.Ts {
		n += 32 + len(p.Fn) + valueBytes*len(p.Args)
	}
	return n
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendValue encodes v, a function value by its name in c's table so
// the bytes do not depend on table indices.
func appendValue(buf []byte, c *Compiled, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KInt, KBool:
		buf = binary.AppendVarint(buf, v.I)
	case KFunc:
		buf = appendString(buf, v.Fn(c))
	case KPtr:
		p := v.Ptr()
		buf = append(buf, byte(p.Kind))
		buf = binary.AppendUvarint(buf, uint64(p.Idx))
		buf = binary.AppendUvarint(buf, uint64(p.Field))
		buf = binary.AppendUvarint(buf, uint64(p.FrameID))
	case KNull, KUnit:
	}
	return buf
}

// snapDecoder reads the snapshot encoding with sticky error handling:
// after the first malformed read every accessor returns zero values and
// the error surfaces once at the end.
type snapDecoder struct {
	c    *Compiled // resolves function names to table indices
	data []byte
	pos  int
	err  error
}

func (d *snapDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("sem: truncated snapshot at byte %d", d.pos)
	}
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *snapDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *snapDecoder) str() string {
	n := int(d.uvarint())
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.data) {
		d.fail()
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *snapDecoder) value() Value {
	if d.err != nil {
		return Value{}
	}
	if d.pos >= len(d.data) {
		d.fail()
		return Value{}
	}
	k := Kind(d.data[d.pos])
	d.pos++
	v := Value{Kind: k}
	switch k {
	case KInt, KBool:
		v.I = d.varint()
	case KFunc:
		name := d.str()
		fv, ok := d.c.lookupFunc(name)
		if !ok && d.err == nil {
			d.err = fmt.Errorf("sem: snapshot references unknown function %q", name)
		}
		v = fv
	case KPtr:
		if d.pos >= len(d.data) {
			d.fail()
			return Value{}
		}
		ck := CellKind(d.data[d.pos])
		d.pos++
		idx := int(d.uvarint())
		field := int(d.uvarint())
		v = PtrV(Cell{Kind: ck, Idx: idx, Field: field, FrameID: int(d.uvarint())})
	case KNull, KUnit:
	default:
		if d.err == nil {
			d.err = fmt.Errorf("sem: snapshot has unknown value kind %d", k)
		}
	}
	return v
}
