package sem

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/lower"
)

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes.
const (
	OpAssign Op = iota
	OpAssert
	OpAssume
	OpCall
	OpAsync
	OpReturn
	OpJump       // unconditional jump to Targets[0]
	OpNondetJump // nondeterministic jump to one of Targets
	OpSkip
	OpAtomic // execute Atomic sub-instructions without interruption
	OpTsPut
	OpTsDispatch
)

// Instr is one flat instruction. Instructions are immutable after
// compilation and shared by all states.
//
// Compile resolves an instruction's operand expressions to nodes of the
// program's node table (Compiled.nodes), named by index: the assignment
// target x and value y of OpAssign, the condition x of OpAssert and
// OpAssume, the callee x and the nargs argument roots args, args+1, ...
// of OpCall, OpAsync and OpTsPut, and the value x of OpReturn (-1 for a
// bare return). Src keeps the source statement for Text and the
// assertion message.
type Instr struct {
	Op                Op
	x, y, args, nargs int32
	Src               ast.Stmt
	Result            string  // OpCall: variable receiving the return value ("" if none)
	Targets           []int   // OpJump (1), OpNondetJump (>=2)
	Atomic            []Instr // OpAtomic: sub-program; jump targets index into it
	Pos               ast.Pos
}

// Text returns a short human-readable rendering for traces and dot
// graphs. It renders on every call: only trace replay and Dot ask, never
// the search.
func (in *Instr) Text() string {
	switch in.Op {
	case OpAssign:
		s := in.Src.(*ast.AssignStmt)
		return ast.PrintExpr(s.Lhs) + " = " + ast.PrintExpr(s.Rhs)
	case OpAssert:
		return "assert(" + ast.PrintExpr(in.Src.(*ast.AssertStmt).Cond) + ")"
	case OpAssume:
		return "assume(" + ast.PrintExpr(in.Src.(*ast.AssumeStmt).Cond) + ")"
	case OpCall:
		s := ast.PrintExpr(in.Src.(*ast.CallStmt).Fn) + "(...)"
		if in.Result != "" {
			s = in.Result + " = " + s
		}
		return s
	case OpAsync:
		return "async " + ast.PrintExpr(in.Src.(*ast.AsyncStmt).Fn) + "(...)"
	case OpReturn:
		if v := in.Src.(*ast.ReturnStmt).Value; v != nil {
			return "return " + ast.PrintExpr(v)
		}
		return "return"
	case OpJump:
		return fmt.Sprintf("jump %d", in.Targets[0])
	case OpNondetJump:
		return fmt.Sprintf("nondet %v", in.Targets)
	case OpSkip:
		return "skip"
	case OpAtomic:
		return "atomic{...}"
	case OpTsPut:
		return "__ts_put(" + ast.PrintExpr(in.Src.(*ast.TsPutStmt).Fn) + ", ...)"
	case OpTsDispatch:
		return "__ts_dispatch()"
	}
	return "?"
}

// violation returns the message of a failed OpAssert.
func (in *Instr) violation() string {
	return "assertion violated: " + ast.PrintExpr(in.Src.(*ast.AssertStmt).Cond)
}

// CompiledFunc is a function lowered to instruction form. Execution starts
// at Code[0]; "falling off the end" (PC == len(Code)) is an implicit bare
// return.
type CompiledFunc struct {
	Fn   *ast.Func
	Code []Instr
	Vars []string // parameters first, then locals
	// VarIdx maps a name to its index into Vars. Compile resolves every
	// variable of the code through it; at run time only a return's
	// delivery to its caller's result variable, a name a frame carries,
	// still looks a name up.
	VarIdx   map[string]int
	NumParam int
	nameHash uint64 // hashString(Fn.Name), precomputed for fingerprints
}

// Compiled is a whole program in instruction form, shared immutably by all
// states derived from it.
type Compiled struct {
	Prog      *ast.Program
	Funcs     map[string]*CompiledFunc
	Globals   []string
	GlobalIdx map[string]int
	Records   map[string]*ast.Record
	// RaceGlobalIdx is the global index of a global race target, or -1.
	RaceGlobalIdx int
	// FuncNames is the program's function-name table: a KFunc value
	// holds an index into it. It lists the defined functions in program
	// order, then every other name a function constant of the code
	// mentions. Function values arise only from constants, so the table
	// is complete for every state of the program.
	FuncNames []string

	funcID   map[string]int64 // name -> index into FuncNames
	funcHash []uint64         // hashString of each name, for fingerprints
	funcDef  []*CompiledFunc  // definition of each name, nil if undefined

	// The compiled operands of every instruction (see Instr), and the
	// constants and names their nodes refer to by index.
	nodes  []node
	consts []Value
	names  []string
	// raceField is the field index of a record-field race target in its
	// record, or -1.
	raceField int
}

// FuncV returns the value of the program's function constant @name.
// Compile puts every function constant of the code into the name table,
// so a name that is not there is a caller's bug and FuncV panics.
func (c *Compiled) FuncV(name string) Value {
	v, ok := c.lookupFunc(name)
	if !ok {
		panic("sem: function constant @" + name + " missing from the name table")
	}
	return v
}

// lookupFunc returns the function value naming name, and false if no
// function constant of the program names it.
func (c *Compiled) lookupFunc(name string) (Value, bool) {
	id, ok := c.funcID[name]
	return Value{Kind: KFunc, I: id}, ok
}

// internFunc adds name to the function-name table if it is new.
func (c *Compiled) internFunc(name string) {
	if _, ok := c.funcID[name]; ok {
		return
	}
	c.funcID[name] = int64(len(c.FuncNames))
	c.FuncNames = append(c.FuncNames, name)
	c.funcHash = append(c.funcHash, hashString(name))
	c.funcDef = append(c.funcDef, c.Funcs[name])
}

// Compile translates a core-form program into instruction form. The
// program must be in core form (lower.Program output); Compile verifies
// this and returns an error otherwise. Compile never writes p: the
// compiled operands live in the returned program, so concurrent checks
// may share one parsed program.
func Compile(p *ast.Program) (*Compiled, error) {
	if ok, why := lower.IsCore(p); !ok {
		return nil, fmt.Errorf("sem: program not in core form: %s", why)
	}
	c := &Compiled{
		Prog:          p,
		Funcs:         make(map[string]*CompiledFunc, len(p.Funcs)),
		GlobalIdx:     make(map[string]int, len(p.Globals)),
		Records:       make(map[string]*ast.Record, len(p.Records)),
		RaceGlobalIdx: -1,
		raceField:     -1,
		funcID:        make(map[string]int64, len(p.Funcs)),
	}
	for i, g := range p.Globals {
		c.Globals = append(c.Globals, g.Name)
		c.GlobalIdx[g.Name] = i
	}
	for _, r := range p.Records {
		c.Records[r.Name] = r
	}
	if t := p.RaceTarget; t != nil && t.Global != "" {
		if idx, ok := c.GlobalIdx[t.Global]; ok {
			c.RaceGlobalIdx = idx
		}
	} else if t != nil {
		if r, ok := c.Records[t.Record]; ok {
			c.raceField = r.FieldIndex(t.Field)
		}
	}
	cfs := make([]*CompiledFunc, len(p.Funcs))
	for i, f := range p.Funcs {
		cf, err := newCompiledFunc(f)
		if err != nil {
			return nil, err
		}
		cfs[i] = cf
		c.Funcs[f.Name] = cf
	}
	if _, ok := c.Funcs["main"]; !ok {
		return nil, fmt.Errorf("sem: program has no main function")
	}
	for _, f := range p.Funcs {
		c.internFunc(f.Name)
	}
	// Intern the function constants, and size the node, constant and
	// name tables: every expression of the code becomes one node.
	var nodes, consts, names int
	for _, f := range p.Funcs {
		ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
			ast.WalkExprs(s, func(e ast.Expr) {
				nodes++
				switch e := e.(type) {
				case *ast.FuncLit:
					c.internFunc(e.Name)
					consts++
				case *ast.IntLit, *ast.BoolLit, *ast.NullLit, *ast.AddrOfExpr:
					consts++
				case *ast.FieldExpr, *ast.AddrFieldExpr, *ast.NewExpr:
					names++
				}
			})
			return true
		})
	}
	c.nodes = make([]node, 0, nodes)
	c.consts = make([]Value, 0, consts)
	c.names = make([]string, 0, names)
	fc := &funcCompiler{c: c}
	for i, f := range p.Funcs {
		fc.cf = cfs[i]
		fc.cf.Code = fc.body(f.Body)
	}
	return c, nil
}

// newCompiledFunc returns f's compiled function with its variables laid
// out and no code yet.
func newCompiledFunc(f *ast.Func) (*CompiledFunc, error) {
	cf := &CompiledFunc{
		Fn:       f,
		VarIdx:   map[string]int{},
		NumParam: len(f.Params),
		nameHash: hashString(f.Name),
	}
	for _, p := range f.Params {
		cf.VarIdx[p] = len(cf.Vars)
		cf.Vars = append(cf.Vars, p)
	}
	for _, l := range f.Locals {
		if _, dup := cf.VarIdx[l.Name]; dup {
			return nil, fmt.Errorf("sem: function %s: duplicate variable %s", f.Name, l.Name)
		}
		cf.VarIdx[l.Name] = len(cf.Vars)
		cf.Vars = append(cf.Vars, l.Name)
	}
	return cf, nil
}

// funcCompiler emits instructions into one scratch buffer that a whole
// program's compilation reuses. The body being compiled occupies
// code[base:], and its jump targets index into that suffix.
//
// Its expressions are resolved in the scope of cf, the function being
// compiled, into c's node table.
type funcCompiler struct {
	code []Instr
	base int
	c    *Compiled
	cf   *CompiledFunc
}

// body compiles b and returns its code as an exact-size copy, leaving the
// scratch as it found it. An atomic body nests: it is compiled past the
// enclosing body's code, then removed from the scratch.
func (fc *funcCompiler) body(b *ast.Block) []Instr {
	outer := fc.base
	fc.base = len(fc.code)
	fc.block(b)
	code := make([]Instr, len(fc.code)-fc.base)
	copy(code, fc.code[fc.base:])
	fc.code, fc.base = fc.code[:fc.base], outer
	return code
}

// pc returns the index the next emitted instruction gets.
func (fc *funcCompiler) pc() int { return len(fc.code) - fc.base }

// at returns the instruction at index i of the body being compiled.
func (fc *funcCompiler) at(i int) *Instr { return &fc.code[fc.base+i] }

func (fc *funcCompiler) emit(in Instr) int {
	fc.code = append(fc.code, in)
	return fc.pc() - 1
}

func (fc *funcCompiler) block(b *ast.Block) {
	for _, s := range b.Stmts {
		fc.stmt(s)
	}
}

func (fc *funcCompiler) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		fc.block(s)
	case *ast.AssignStmt:
		fc.emit(Instr{Op: OpAssign, x: fc.target(s.Lhs), y: fc.expr(s.Rhs), Src: s, Pos: s.Pos})
	case *ast.AssertStmt:
		fc.emit(Instr{Op: OpAssert, x: fc.expr(s.Cond), Src: s, Pos: s.Pos})
	case *ast.AssumeStmt:
		fc.emit(Instr{Op: OpAssume, x: fc.expr(s.Cond), Src: s, Pos: s.Pos})
	case *ast.AtomicStmt:
		fc.emit(Instr{Op: OpAtomic, Atomic: fc.body(s.Body), Src: s, Pos: s.Pos})
	case *ast.BenignStmt:
		// The benign annotation affects only race instrumentation; at
		// execution level it is its body.
		fc.block(s.Body)
	case *ast.CallStmt:
		fc.emit(fc.call(Instr{Op: OpCall, Result: s.Result, Src: s, Pos: s.Pos}, s.Fn, s.Args))
	case *ast.AsyncStmt:
		fc.emit(fc.call(Instr{Op: OpAsync, Src: s, Pos: s.Pos}, s.Fn, s.Args))
	case *ast.ReturnStmt:
		x := int32(-1)
		if s.Value != nil {
			x = fc.expr(s.Value)
		}
		fc.emit(Instr{Op: OpReturn, x: x, Src: s, Pos: s.Pos})
	case *ast.ChoiceStmt:
		// nondet -> branch starts; each branch ends with jump to join.
		nd := fc.emit(Instr{Op: OpNondetJump, Src: s, Pos: s.Pos})
		starts := make([]int, len(s.Branches))
		var exits []int
		for i, b := range s.Branches {
			starts[i] = fc.pc()
			fc.block(b)
			exits = append(exits, fc.emit(Instr{Op: OpJump, Src: s, Pos: s.Pos}))
		}
		join := fc.pc()
		fc.at(nd).Targets = starts
		for _, e := range exits {
			fc.at(e).Targets = []int{join}
		}
	case *ast.IterStmt:
		// L: nondet {body, join}; body; jump L; join:
		nd := fc.emit(Instr{Op: OpNondetJump, Src: s, Pos: s.Pos})
		bodyStart := fc.pc()
		fc.block(s.Body)
		fc.emit(Instr{Op: OpJump, Targets: []int{nd}, Src: s, Pos: s.Pos})
		join := fc.pc()
		fc.at(nd).Targets = []int{bodyStart, join}
	case *ast.SkipStmt:
		fc.emit(Instr{Op: OpSkip, Src: s, Pos: s.Pos})
	case *ast.TsPutStmt:
		fc.emit(fc.call(Instr{Op: OpTsPut, Src: s, Pos: s.Pos}, s.Fn, s.Args))
	case *ast.TsDispatchStmt:
		fc.emit(Instr{Op: OpTsDispatch, Src: s, Pos: s.Pos})
	case *ast.IfStmt, *ast.WhileStmt:
		panic("sem: sugar statement survived lowering")
	default:
		panic(fmt.Sprintf("sem: unknown statement %T", s))
	}
}

// call compiles the callee and the arguments of a call, async or
// __ts_put into in. The argument roots take consecutive nodes, reserved
// before any argument's operands are compiled.
func (fc *funcCompiler) call(in Instr, fn ast.Expr, args []ast.Expr) Instr {
	in.x = fc.expr(fn)
	in.args, in.nargs = int32(len(fc.c.nodes)), int32(len(args))
	fc.c.nodes = append(fc.c.nodes, make([]node, len(args))...)
	for i, a := range args {
		n := fc.node(a)
		fc.c.nodes[in.args+int32(i)] = n
	}
	return in
}

// target compiles an assignment target: a variable, *v or v->f. Any
// other expression compiles to a node that fails as an invalid target.
func (fc *funcCompiler) target(e ast.Expr) int32 {
	switch e.(type) {
	case *ast.VarExpr, *ast.DerefExpr, *ast.FieldExpr:
		return fc.expr(e)
	}
	return fc.add(fc.fail(e.ExprPos(), fmt.Sprintf("invalid assignment target %T", e), -1, -1))
}

// expr compiles e into a new node, after its operands, and returns the
// node's index.
func (fc *funcCompiler) expr(e ast.Expr) int32 {
	return fc.add(fc.node(e))
}

// add appends n to the node table and returns its index.
func (fc *funcCompiler) add(n node) int32 {
	fc.c.nodes = append(fc.c.nodes, n)
	return int32(len(fc.c.nodes) - 1)
}

// node compiles e, appending its operands' nodes to the table, and
// returns e's own node.
func (fc *funcCompiler) node(e ast.Expr) node {
	pos := e.ExprPos()
	n := node{line: int32(pos.Line), col: int32(pos.Col)}
	switch e := e.(type) {
	case *ast.IntLit:
		n.op, n.x = nConst, fc.constant(IntV(e.Value))
	case *ast.BoolLit:
		n.op, n.x = nConst, fc.constant(BoolV(e.Value))
	case *ast.FuncLit:
		n.op, n.x = nConst, fc.constant(fc.c.FuncV(e.Name))
	case *ast.NullLit:
		n.op, n.x = nConst, fc.constant(NullV())
	case *ast.VarExpr:
		// A local shadows a global of the same name.
		if slot, ok := fc.cf.VarIdx[e.Name]; ok {
			n.op, n.x = nLocal, int32(slot)
		} else if g, ok := fc.c.GlobalIdx[e.Name]; ok {
			n.op, n.x = nGlobal, int32(g)
		} else {
			n.op, n.x = nUndef, fc.name(e.Name)
		}
	case *ast.AddrOfExpr:
		if slot, ok := fc.cf.VarIdx[e.Name]; ok {
			n.op, n.x = nAddrLocal, int32(slot)
		} else if g, ok := fc.c.GlobalIdx[e.Name]; ok {
			n.op, n.x = nConst, fc.constant(PtrV(Cell{Kind: CGlobal, Idx: g}))
		} else {
			n.op, n.x = nUndef, fc.name(e.Name)
		}
	case *ast.DerefExpr:
		n.op, n.x = nDeref, fc.expr(e.X)
	case *ast.FieldExpr:
		n.op, n.x, n.z = nField, fc.expr(e.X), fc.name(e.Field)
	case *ast.AddrFieldExpr:
		n.op, n.x, n.z = nAddrField, fc.expr(e.X), fc.name(e.Field)
	case *ast.UnaryExpr:
		x := fc.expr(e.X)
		switch e.Op {
		case "!":
			n.op, n.x = nNot, x
		case "-":
			n.op, n.x = nNeg, x
		default:
			return fc.fail(pos, fmt.Sprintf("unknown unary operator %q", e.Op), x, -1)
		}
	case *ast.BinaryExpr:
		x := fc.expr(e.X)
		y := fc.expr(e.Y)
		op, ok := binOps[e.Op]
		if !ok {
			return fc.fail(pos, fmt.Sprintf("unknown binary operator %q", e.Op), x, y)
		}
		n.op, n.x, n.y = op, x, y
	case *ast.NewExpr:
		rec, ok := fc.c.Records[e.Record]
		if !ok {
			return fc.fail(pos, fmt.Sprintf("new of unknown record %q", e.Record), -1, -1)
		}
		n.op, n.x, n.y = nNew, fc.name(rec.Name), int32(len(rec.Fields))
	case *ast.TsSizeExpr:
		n.op = nTsSize
	case *ast.RaceCellExpr:
		n.op, n.x = nRaceCell, fc.expr(e.X)
	default:
		return fc.fail(pos, fmt.Sprintf("cannot evaluate expression %T", e), -1, -1)
	}
	return n
}

// fail returns a node that, once its operands y and z (if >= 0) are
// evaluated, fails at pos with msg.
func (fc *funcCompiler) fail(pos ast.Pos, msg string, y, z int32) node {
	return node{op: nErr, x: fc.name(msg), y: y, z: z, line: int32(pos.Line), col: int32(pos.Col)}
}

// constant adds v to the constant table and returns its index.
func (fc *funcCompiler) constant(v Value) int32 {
	fc.c.consts = append(fc.c.consts, v)
	return int32(len(fc.c.consts) - 1)
}

// name adds s to the name table and returns its index.
func (fc *funcCompiler) name(s string) int32 {
	fc.c.names = append(fc.c.names, s)
	return int32(len(fc.c.names) - 1)
}
