package sem

import (
	"fmt"

	"repro/internal/ast"
)

// RuntimeError describes a dynamic type or memory error ("the program goes
// wrong" in a way other than an assertion failure).
type RuntimeError struct {
	Pos ast.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg) }

func rterrf(pos ast.Pos, format string, args ...any) *RuntimeError {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// nodeOp is the opcode of a compiled expression node.
type nodeOp uint8

// Expression node opcodes. Compile resolves every name of an
// expression once: a variable to a local slot or a global index, a
// constant (function constants and the address of a global included) to
// its Value, an operator to its opcode.
const (
	nConst     nodeOp = iota // Compiled.consts[x]
	nLocal                   // local slot x of the evaluating frame
	nGlobal                  // global x
	nAddrLocal               // &local slot x of the evaluating frame
	nUndef                   // undefined variable Compiled.names[x]
	nDeref                   // *x; as an assignment target, the cell x points to
	nField                   // x->names[z]; as an assignment target, that field's cell
	nAddrField               // &x->names[z]
	nNew                     // new record names[x] with y fields
	nTsSize                  // size of ts
	nRaceCell                // x addresses the race target
	nErr                     // fails with names[x], after evaluating y and z if >= 0
	nNot                     // !x
	nNeg                     // -x
	// Binary operators, on x and y: eval hands binop every opcode its
	// switch does not name.
	nAdd
	nSub
	nMul
	nEq
	nNe
	nLt
	nLe
	nGt
	nGe
	nAnd
	nOr
)

// binOps maps each binary operator of the language to its opcode;
// opText renders an opcode back for error messages.
var (
	binOps = map[string]nodeOp{
		"+": nAdd, "-": nSub, "*": nMul, "==": nEq, "!=": nNe,
		"<": nLt, "<=": nLe, ">": nGt, ">=": nGe, "&&": nAnd, "||": nOr,
	}
	opText = [...]string{
		nAdd: "+", nSub: "-", nMul: "*", nEq: "==", nNe: "!=",
		nLt: "<", nLe: "<=", nGt: ">", nGe: ">=", nAnd: "&&", nOr: "||",
	}
)

// node is one compiled expression node. Its operands x, y and z are
// child node indices, slots, global indices or indices into the
// program's constant and name tables, as its opcode says. Nodes hold no
// Go pointer and are never written after Compile, so every state and
// every search worker of a program shares them.
type node struct {
	op        nodeOp
	x, y, z   int32
	line, col int32
}

func (n *node) pos() ast.Pos { return ast.Pos{Line: int(n.line), Col: int(n.col)} }

// Load reads the value stored in a cell.
func (s *State) Load(c Cell, pos ast.Pos) (Value, *RuntimeError) {
	switch c.Kind {
	case CGlobal:
		return s.Globals[c.Idx], nil
	case CHeapField:
		return s.Heap[c.Idx].Fields[c.Field], nil
	case CLocal:
		fr := s.findFrame(c.FrameID)
		if fr == nil {
			return Value{}, rterrf(pos, "dangling pointer to local of a popped frame")
		}
		return fr.Locals[c.Field], nil
	case CObject:
		return Value{}, rterrf(pos, "cannot load a whole object; use p->field")
	}
	return Value{}, rterrf(pos, "bad cell")
}

// Store writes a value into a cell, path-copying any component still
// shared with other states of the lineage (see State.Clone).
func (s *State) Store(c Cell, v Value, pos ast.Pos) *RuntimeError {
	switch c.Kind {
	case CGlobal:
		s.mutableGlobals()[c.Idx] = v
		return nil
	case CHeapField:
		s.mutableObject(c.Idx).Fields[c.Field] = v
		return nil
	case CLocal:
		ti, fi := s.findFrameIndex(c.FrameID)
		if ti < 0 {
			return rterrf(pos, "dangling pointer to local of a popped frame")
		}
		s.mutableFrame(ti, fi).Locals[c.Field] = v
		return nil
	case CObject:
		return rterrf(pos, "cannot store to a whole object; use p->field")
	}
	return rterrf(pos, "bad cell")
}

// fieldCell resolves p->field for a pointer value p to the cell of that
// field.
func (s *State) fieldCell(pv Value, field string, pos ast.Pos) (Cell, *RuntimeError) {
	if pv.Kind == KNull {
		return Cell{}, rterrf(pos, "null pointer dereference (->%s)", field)
	}
	if pv.Kind != KPtr || pv.cell != CObject {
		return Cell{}, rterrf(pos, "->%s applied to non-object value %s", field, pv.Text(s.C))
	}
	obj := s.Heap[pv.I]
	rec := s.C.Records[obj.Rec]
	fi := rec.FieldIndex(field)
	if fi < 0 {
		return Cell{}, rterrf(pos, "record %s has no field %q", obj.Rec, field)
	}
	return Cell{Kind: CHeapField, Idx: int(pv.I), Field: fi}, nil
}

// eval evaluates compiled expression node i in the scope of frame fr,
// which must be the frame of s executing the node's instruction: a local
// is read from fr directly. `new` allocates in s. eval never blocks;
// blocking is handled by OpAssume.
func (s *State) eval(fr *Frame, i int32) (Value, *RuntimeError) {
	n := &s.C.nodes[i]
	switch n.op {
	case nConst:
		return s.C.consts[n.x], nil
	case nLocal:
		return fr.Locals[n.x], nil
	case nGlobal:
		return s.Globals[n.x], nil
	case nAddrLocal:
		return PtrV(Cell{Kind: CLocal, FrameID: fr.ID, Field: int(n.x)}), nil
	case nUndef:
		return Value{}, rterrf(n.pos(), "undefined variable %q", s.C.names[n.x])
	case nDeref:
		pv, err := s.eval(fr, n.x)
		if err != nil {
			return Value{}, err
		}
		if pv.Kind == KNull {
			return Value{}, rterrf(n.pos(), "null pointer dereference")
		}
		if pv.Kind != KPtr {
			return Value{}, rterrf(n.pos(), "dereference of non-pointer value %s", pv.Text(s.C))
		}
		return s.Load(pv.Ptr(), n.pos())
	case nField, nAddrField:
		pv, err := s.eval(fr, n.x)
		if err != nil {
			return Value{}, err
		}
		c, err := s.fieldCell(pv, s.C.names[n.z], n.pos())
		if err != nil {
			return Value{}, err
		}
		if n.op == nAddrField {
			return PtrV(c), nil
		}
		return s.Load(c, n.pos())
	case nNew:
		// Fields start as the integer 0, the zero Value.
		o := &Object{Rec: s.C.names[n.x], Fields: make([]Value, n.y)}
		idx := s.appendObject(o)
		return PtrV(Cell{Kind: CObject, Idx: idx}), nil
	case nTsSize:
		return IntV(int64(len(s.Ts))), nil
	case nRaceCell:
		x, err := s.eval(fr, n.x)
		if err != nil {
			return Value{}, err
		}
		return BoolV(s.isRaceCell(x)), nil
	case nErr:
		return Value{}, s.evalErr(fr, n)
	case nNot:
		x, err := s.eval(fr, n.x)
		if err != nil {
			return Value{}, err
		}
		if x.Kind != KBool {
			return Value{}, rterrf(n.pos(), "'!' applied to non-boolean %s", x.Text(s.C))
		}
		return BoolV(!x.Bool()), nil
	case nNeg:
		x, err := s.eval(fr, n.x)
		if err != nil {
			return Value{}, err
		}
		if x.Kind != KInt {
			return Value{}, rterrf(n.pos(), "unary '-' applied to non-integer %s", x.Text(s.C))
		}
		return IntV(-x.I), nil
	}
	x, err := s.eval(fr, n.x)
	if err != nil {
		return Value{}, err
	}
	y, err := s.eval(fr, n.y)
	if err != nil {
		return Value{}, err
	}
	return binop(s.C, n, x, y)
}

// evalErr returns the failure of an nErr node: its operands, if any, are
// evaluated first, as the node they stand for would evaluate them.
func (s *State) evalErr(fr *Frame, n *node) *RuntimeError {
	for _, i := range [2]int32{n.y, n.z} {
		if i >= 0 {
			if _, err := s.eval(fr, i); err != nil {
				return err
			}
		}
	}
	return &RuntimeError{Pos: n.pos(), Msg: s.C.names[n.x]}
}

// isRaceCell implements the distinguished-cell test of the race-checking
// instrumentation (Section 5): the pointer x addresses the race target —
// the target global's cell, or a field named Field of an object of record
// type Record.
func (s *State) isRaceCell(x Value) bool {
	t := s.C.Prog.RaceTarget
	if t == nil || x.Kind != KPtr {
		return false
	}
	c := x.Ptr()
	if t.Global != "" {
		return c.Kind == CGlobal && c.Idx == s.C.RaceGlobalIdx
	}
	return c.Kind == CHeapField && s.Heap[c.Idx].Rec == t.Record && c.Field == s.C.raceField
}

// binop applies the binary operator node n to its evaluated operands.
func binop(c *Compiled, n *node, x, y Value) (Value, *RuntimeError) {
	switch op := n.op; op {
	case nAdd, nSub, nMul:
		if x.Kind != KInt || y.Kind != KInt {
			return Value{}, rterrf(n.pos(), "arithmetic %q on non-integers %s, %s", opText[op], x.Text(c), y.Text(c))
		}
		switch op {
		case nAdd:
			return IntV(x.I + y.I), nil
		case nSub:
			return IntV(x.I - y.I), nil
		default:
			return IntV(x.I * y.I), nil
		}
	case nEq:
		return BoolV(x.Equal(y)), nil
	case nNe:
		return BoolV(!x.Equal(y)), nil
	case nLt, nLe, nGt, nGe:
		if x.Kind != KInt || y.Kind != KInt {
			return Value{}, rterrf(n.pos(), "comparison %q on non-integers %s, %s", opText[op], x.Text(c), y.Text(c))
		}
		switch op {
		case nLt:
			return BoolV(x.I < y.I), nil
		case nLe:
			return BoolV(x.I <= y.I), nil
		case nGt:
			return BoolV(x.I > y.I), nil
		default:
			return BoolV(x.I >= y.I), nil
		}
	default: // nAnd, nOr
		if x.Kind != KBool || y.Kind != KBool {
			return Value{}, rterrf(n.pos(), "boolean %q on non-booleans %s, %s", opText[op], x.Text(c), y.Text(c))
		}
		if op == nAnd {
			return BoolV(x.Bool() && y.Bool()), nil
		}
		return BoolV(x.Bool() || y.Bool()), nil
	}
}

// cond evaluates the condition node i and requires a boolean result.
func (s *State) cond(fr *Frame, i int32) (bool, *RuntimeError) {
	v, err := s.eval(fr, i)
	if err != nil {
		return false, err
	}
	if v.Kind != KBool {
		n := &s.C.nodes[i]
		return false, rterrf(n.pos(), "condition evaluated to non-boolean %s", v.Text(s.C))
	}
	return v.Bool(), nil
}

// assign executes the assignment in in frame fr, which must be s's
// owned top frame of the stepped thread (State.MutableTopFrame): a local
// target is stored into fr directly. The right-hand side is evaluated
// before the target, as the source order has it.
func (s *State) assign(fr *Frame, in *Instr) *RuntimeError {
	v, err := s.eval(fr, in.y)
	if err != nil {
		return err
	}
	n := &s.C.nodes[in.x]
	switch n.op {
	case nLocal:
		fr.Locals[n.x] = v
		return nil
	case nGlobal:
		s.mutableGlobals()[n.x] = v
		return nil
	case nDeref:
		pv, err := s.eval(fr, n.x)
		if err != nil {
			return err
		}
		if pv.Kind == KNull {
			return rterrf(n.pos(), "null pointer dereference in assignment")
		}
		if pv.Kind != KPtr {
			return rterrf(n.pos(), "assignment through non-pointer value %s", pv.Text(s.C))
		}
		return s.Store(pv.Ptr(), v, in.Pos)
	case nField:
		pv, err := s.eval(fr, n.x)
		if err != nil {
			return err
		}
		c, err := s.fieldCell(pv, s.C.names[n.z], n.pos())
		if err != nil {
			return err
		}
		return s.Store(c, v, in.Pos)
	}
	// nUndef or nErr: an assignment target fails as its evaluation does.
	_, err = s.eval(fr, in.x)
	return err
}

// ReturnValue evaluates the value that in, a return instruction, returns
// in frame fr of s: the unit value for a bare return.
func (s *State) ReturnValue(fr *Frame, in *Instr) (Value, *RuntimeError) {
	if in.x < 0 {
		return UnitV(), nil
	}
	return s.eval(fr, in.x)
}
