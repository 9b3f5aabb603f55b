// Package sem implements the operational semantics of the core parallel
// language: runtime values, a compiler from core AST to a flat instruction
// form, program states with multiple threads, a small-step successor
// relation, and canonical state fingerprints for explicit-state search.
//
// The same semantics serves both uses of package concheck: unbounded it
// explores interleavings of all threads (the concurrent semantics of
// Section 3), while at context bound 0 it restricts execution to a single
// thread plus the ts intrinsics (the sequential target semantics of
// Section 4).
package sem

import (
	"fmt"
	"strconv"
)

// Kind classifies runtime values. All data is dynamically typed.
type Kind uint8

const (
	KInt  Kind = iota // integer
	KBool             // boolean
	KFunc             // function name (first-class function constant)
	KPtr              // pointer to a cell or object
	KNull             // the null pointer constant
	KUnit             // value of a bare return
)

// Value is a runtime value: 16 bytes holding no Go pointer, so every
// []Value of a state (globals, locals, object fields, ts arguments) is
// small to copy and never scanned by the garbage collector. Bool is stored
// in I (0/1). A function value holds in I its index into the program's
// function-name table (Compiled.FuncNames); a pointer holds its cell kind
// and field index in the small fields and the global or object index, or
// the frame id, in I. Read them through Fn and Ptr.
type Value struct {
	Kind  Kind
	cell  CellKind // KPtr: the target's cell kind
	field int32    // KPtr: field or local index
	I     int64
}

// IntV returns an integer value.
func IntV(v int64) Value { return Value{Kind: KInt, I: v} }

// BoolV returns a boolean value.
func BoolV(b bool) Value {
	if b {
		return Value{Kind: KBool, I: 1}
	}
	return Value{Kind: KBool}
}

// PtrV returns a pointer value.
func PtrV(c Cell) Value {
	v := Value{Kind: KPtr, cell: c.Kind, field: int32(c.Field), I: int64(c.Idx)}
	if c.Kind == CLocal {
		v.I = int64(c.FrameID)
	}
	return v
}

// NullV returns the null value.
func NullV() Value { return Value{Kind: KNull} }

// UnitV returns the unit value.
func UnitV() Value { return Value{Kind: KUnit} }

// Bool reports the boolean content; callers must ensure Kind==KBool.
func (v Value) Bool() bool { return v.I != 0 }

// Ptr returns the cell a pointer value addresses; callers must ensure
// Kind==KPtr.
func (v Value) Ptr() Cell {
	c := Cell{Kind: v.cell, Field: int(v.field)}
	if v.cell == CLocal {
		c.FrameID = int(v.I)
	} else {
		c.Idx = int(v.I)
	}
	return c
}

// Fn returns the name of a function value of program c; callers must
// ensure Kind==KFunc.
func (v Value) Fn(c *Compiled) string { return c.FuncNames[v.I] }

// Equal reports value equality. Values of different kinds are unequal,
// except that null compares equal to null only. Every constructor leaves
// the fields its kind does not use zero, so equal values are equal words.
func (v Value) Equal(w Value) bool { return v == w }

// Text renders v as traces and error messages print it, naming function
// values through c's table.
func (v Value) Text(c *Compiled) string {
	switch v.Kind {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KFunc:
		return "@" + v.Fn(c)
	case KPtr:
		return v.Ptr().String()
	case KNull:
		return "null"
	case KUnit:
		return "unit"
	}
	return "?"
}

// CellKind classifies pointer targets.
type CellKind uint8

const (
	// CGlobal points at a global variable; Idx is the global index.
	CGlobal CellKind = iota
	// CHeapField points at one field of a heap object; Idx is the object
	// index, Field the field index.
	CHeapField
	// CLocal points at a local variable of a live frame; FrameID is the
	// frame's unique id, Field the local's index.
	CLocal
	// CObject points at a whole heap object (the result of `new`); Idx is
	// the object index. Dereferencing a CObject pointer is an error;
	// fields are accessed with p->f.
	CObject
)

// Cell identifies a memory location (or whole object). Cells are compared
// with ==; heap object indices are stable for the lifetime of a state
// lineage because objects are never deallocated.
type Cell struct {
	Kind    CellKind
	Idx     int // global index or heap object index
	Field   int // field index (CHeapField) or local index (CLocal)
	FrameID int // frame id (CLocal)
}

func (c Cell) String() string {
	switch c.Kind {
	case CGlobal:
		return fmt.Sprintf("&global[%d]", c.Idx)
	case CHeapField:
		return fmt.Sprintf("&obj%d.f%d", c.Idx, c.Field)
	case CLocal:
		return fmt.Sprintf("&frame%d.l%d", c.FrameID, c.Field)
	case CObject:
		return fmt.Sprintf("obj%d", c.Idx)
	}
	return "?cell"
}
