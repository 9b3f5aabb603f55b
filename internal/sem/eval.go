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

// lookupVar finds the cell for a variable name in the given frame's scope:
// frame-local first, then global.
func (s *State) lookupVar(fr *Frame, name string, pos ast.Pos) (Cell, *RuntimeError) {
	if idx, ok := fr.CF.VarIdx[name]; ok {
		return Cell{Kind: CLocal, FrameID: fr.ID, Field: idx}, nil
	}
	if idx, ok := s.C.GlobalIdx[name]; ok {
		return Cell{Kind: CGlobal, Idx: idx}, nil
	}
	return Cell{}, rterrf(pos, "undefined variable %q", name)
}

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

// Eval evaluates a core expression in the scope of frame fr. `new`
// allocates in s. Eval never blocks; blocking is handled by OpAssume.
func (s *State) Eval(fr *Frame, e ast.Expr) (Value, *RuntimeError) {
	switch e := e.(type) {
	case *ast.IntLit:
		return IntV(e.Value), nil
	case *ast.BoolLit:
		return BoolV(e.Value), nil
	case *ast.FuncLit:
		return s.C.FuncV(e.Name), nil
	case *ast.NullLit:
		return NullV(), nil
	case *ast.VarExpr:
		c, err := s.lookupVar(fr, e.Name, e.Pos)
		if err != nil {
			return Value{}, err
		}
		return s.Load(c, e.Pos)
	case *ast.AddrOfExpr:
		c, err := s.lookupVar(fr, e.Name, e.Pos)
		if err != nil {
			return Value{}, err
		}
		return PtrV(c), nil
	case *ast.DerefExpr:
		pv, err := s.Eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if pv.Kind == KNull {
			return Value{}, rterrf(e.Pos, "null pointer dereference")
		}
		if pv.Kind != KPtr {
			return Value{}, rterrf(e.Pos, "dereference of non-pointer value %s", pv.Text(s.C))
		}
		return s.Load(pv.Ptr(), e.Pos)
	case *ast.FieldExpr:
		pv, err := s.Eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		c, err := s.fieldCell(pv, e.Field, e.Pos)
		if err != nil {
			return Value{}, err
		}
		return s.Load(c, e.Pos)
	case *ast.AddrFieldExpr:
		pv, err := s.Eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		c, err := s.fieldCell(pv, e.Field, e.Pos)
		if err != nil {
			return Value{}, err
		}
		return PtrV(c), nil
	case *ast.UnaryExpr:
		x, err := s.Eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case "!":
			if x.Kind != KBool {
				return Value{}, rterrf(e.Pos, "'!' applied to non-boolean %s", x.Text(s.C))
			}
			return BoolV(!x.Bool()), nil
		case "-":
			if x.Kind != KInt {
				return Value{}, rterrf(e.Pos, "unary '-' applied to non-integer %s", x.Text(s.C))
			}
			return IntV(-x.I), nil
		}
		return Value{}, rterrf(e.Pos, "unknown unary operator %q", e.Op)
	case *ast.BinaryExpr:
		x, err := s.Eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		y, err := s.Eval(fr, e.Y)
		if err != nil {
			return Value{}, err
		}
		return binop(s.C, e.Op, x, y, e.Pos)
	case *ast.NewExpr:
		rec, ok := s.C.Records[e.Record]
		if !ok {
			return Value{}, rterrf(e.Pos, "new of unknown record %q", e.Record)
		}
		o := &Object{Rec: rec.Name, Fields: make([]Value, len(rec.Fields))}
		for i := range o.Fields {
			o.Fields[i] = IntV(0)
		}
		idx := s.appendObject(o)
		return PtrV(Cell{Kind: CObject, Idx: idx}), nil
	case *ast.TsSizeExpr:
		return IntV(int64(len(s.Ts))), nil
	case *ast.RaceCellExpr:
		x, err := s.Eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		return BoolV(s.isRaceCell(x)), nil
	}
	return Value{}, rterrf(e.ExprPos(), "cannot evaluate expression %T", e)
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
	if c.Kind != CHeapField {
		return false
	}
	obj := s.Heap[c.Idx]
	if obj.Rec != t.Record {
		return false
	}
	rec := s.C.Records[obj.Rec]
	return rec.FieldIndex(t.Field) == c.Field
}

func binop(c *Compiled, op string, x, y Value, pos ast.Pos) (Value, *RuntimeError) {
	switch op {
	case "+", "-", "*":
		if x.Kind != KInt || y.Kind != KInt {
			return Value{}, rterrf(pos, "arithmetic %q on non-integers %s, %s", op, x.Text(c), y.Text(c))
		}
		switch op {
		case "+":
			return IntV(x.I + y.I), nil
		case "-":
			return IntV(x.I - y.I), nil
		default:
			return IntV(x.I * y.I), nil
		}
	case "==":
		return BoolV(x.Equal(y)), nil
	case "!=":
		return BoolV(!x.Equal(y)), nil
	case "<", "<=", ">", ">=":
		if x.Kind != KInt || y.Kind != KInt {
			return Value{}, rterrf(pos, "comparison %q on non-integers %s, %s", op, x.Text(c), y.Text(c))
		}
		switch op {
		case "<":
			return BoolV(x.I < y.I), nil
		case "<=":
			return BoolV(x.I <= y.I), nil
		case ">":
			return BoolV(x.I > y.I), nil
		default:
			return BoolV(x.I >= y.I), nil
		}
	case "&&", "||":
		if x.Kind != KBool || y.Kind != KBool {
			return Value{}, rterrf(pos, "boolean %q on non-booleans %s, %s", op, x.Text(c), y.Text(c))
		}
		if op == "&&" {
			return BoolV(x.Bool() && y.Bool()), nil
		}
		return BoolV(x.Bool() || y.Bool()), nil
	}
	return Value{}, rterrf(pos, "unknown binary operator %q", op)
}

// evalBool evaluates a condition and requires a boolean result.
func (s *State) evalBool(fr *Frame, e ast.Expr) (bool, *RuntimeError) {
	v, err := s.Eval(fr, e)
	if err != nil {
		return false, err
	}
	if v.Kind != KBool {
		return false, rterrf(e.ExprPos(), "condition evaluated to non-boolean %s", v.Text(s.C))
	}
	return v.Bool(), nil
}

// lvalueCell resolves a core-form assignment target to a cell.
func (s *State) lvalueCell(fr *Frame, lhs ast.Expr) (Cell, *RuntimeError) {
	switch l := lhs.(type) {
	case *ast.VarExpr:
		return s.lookupVar(fr, l.Name, l.Pos)
	case *ast.DerefExpr:
		pv, err := s.Eval(fr, l.X)
		if err != nil {
			return Cell{}, err
		}
		if pv.Kind == KNull {
			return Cell{}, rterrf(l.Pos, "null pointer dereference in assignment")
		}
		if pv.Kind != KPtr {
			return Cell{}, rterrf(l.Pos, "assignment through non-pointer value %s", pv.Text(s.C))
		}
		return pv.Ptr(), nil
	case *ast.FieldExpr:
		pv, err := s.Eval(fr, l.X)
		if err != nil {
			return Cell{}, err
		}
		return s.fieldCell(pv, l.Field, l.Pos)
	}
	return Cell{}, rterrf(lhs.ExprPos(), "invalid assignment target %T", lhs)
}
