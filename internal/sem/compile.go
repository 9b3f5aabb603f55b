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
type Instr struct {
	Op      Op
	Lhs     ast.Expr   // OpAssign
	Rhs     ast.Expr   // OpAssign
	Cond    ast.Expr   // OpAssert, OpAssume
	Result  string     // OpCall: variable receiving the return value ("" if none)
	Fn      ast.Expr   // OpCall, OpAsync, OpTsPut
	Args    []ast.Expr // OpCall, OpAsync, OpTsPut
	Value   ast.Expr   // OpReturn (nil for bare return)
	Targets []int      // OpJump (1), OpNondetJump (>=2)
	Atomic  []Instr    // OpAtomic: sub-program; jump targets index into it
	Pos     ast.Pos
	text    string // rendering cache, filled once after compilation
}

// Text returns a short human-readable rendering for traces. Compiled
// programs carry the rendering precomputed (Step builds an event per
// executed instruction; rendering there would put fmt on the hot path);
// hand-built instructions fall back to rendering on demand.
func (in *Instr) Text() string {
	if in.text != "" {
		return in.text
	}
	return in.render()
}

func (in *Instr) render() string {
	switch in.Op {
	case OpAssign:
		return ast.PrintExpr(in.Lhs) + " = " + ast.PrintExpr(in.Rhs)
	case OpAssert:
		return "assert(" + ast.PrintExpr(in.Cond) + ")"
	case OpAssume:
		return "assume(" + ast.PrintExpr(in.Cond) + ")"
	case OpCall:
		s := ast.PrintExpr(in.Fn) + "(...)"
		if in.Result != "" {
			s = in.Result + " = " + s
		}
		return s
	case OpAsync:
		return "async " + ast.PrintExpr(in.Fn) + "(...)"
	case OpReturn:
		if in.Value != nil {
			return "return " + ast.PrintExpr(in.Value)
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
		return "__ts_put(" + ast.PrintExpr(in.Fn) + ", ...)"
	case OpTsDispatch:
		return "__ts_dispatch()"
	}
	return "?"
}

// CompiledFunc is a function lowered to instruction form. Execution starts
// at Code[0]; "falling off the end" (PC == len(Code)) is an implicit bare
// return.
type CompiledFunc struct {
	Fn       *ast.Func
	Code     []Instr
	Vars     []string       // parameters first, then locals
	VarIdx   map[string]int // name -> index into Vars
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
// this and returns an error otherwise.
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
	}
	for _, f := range p.Funcs {
		cf, err := compileFunc(f)
		if err != nil {
			return nil, err
		}
		c.Funcs[f.Name] = cf
	}
	if _, ok := c.Funcs["main"]; !ok {
		return nil, fmt.Errorf("sem: program has no main function")
	}
	for _, f := range p.Funcs {
		c.internFunc(f.Name)
	}
	for _, f := range p.Funcs {
		ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
			ast.WalkExprs(s, func(e ast.Expr) {
				if fl, ok := e.(*ast.FuncLit); ok {
					c.internFunc(fl.Name)
				}
			})
			return true
		})
	}
	return c, nil
}

func compileFunc(f *ast.Func) (*CompiledFunc, error) {
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
	fc := &funcCompiler{cf: cf}
	fc.block(f.Body)
	cf.Code = fc.code
	cacheText(cf.Code)
	return cf, nil
}

// cacheText fills the rendering cache. Must run after jump targets are
// patched — OpJump/OpNondetJump render their targets.
func cacheText(code []Instr) {
	for i := range code {
		cacheText(code[i].Atomic)
		code[i].text = code[i].render()
	}
}

type funcCompiler struct {
	cf   *CompiledFunc
	code []Instr
}

func (fc *funcCompiler) emit(in Instr) int {
	fc.code = append(fc.code, in)
	return len(fc.code) - 1
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
		fc.emit(Instr{Op: OpAssign, Lhs: s.Lhs, Rhs: s.Rhs, Pos: s.Pos})
	case *ast.AssertStmt:
		fc.emit(Instr{Op: OpAssert, Cond: s.Cond, Pos: s.Pos})
	case *ast.AssumeStmt:
		fc.emit(Instr{Op: OpAssume, Cond: s.Cond, Pos: s.Pos})
	case *ast.AtomicStmt:
		sub := &funcCompiler{cf: fc.cf}
		sub.block(s.Body)
		fc.emit(Instr{Op: OpAtomic, Atomic: sub.code, Pos: s.Pos})
	case *ast.BenignStmt:
		// The benign annotation affects only race instrumentation; at
		// execution level it is its body.
		fc.block(s.Body)
	case *ast.CallStmt:
		fc.emit(Instr{Op: OpCall, Result: s.Result, Fn: s.Fn, Args: s.Args, Pos: s.Pos})
	case *ast.AsyncStmt:
		fc.emit(Instr{Op: OpAsync, Fn: s.Fn, Args: s.Args, Pos: s.Pos})
	case *ast.ReturnStmt:
		fc.emit(Instr{Op: OpReturn, Value: s.Value, Pos: s.Pos})
	case *ast.ChoiceStmt:
		// nondet -> branch starts; each branch ends with jump to join.
		nd := fc.emit(Instr{Op: OpNondetJump, Pos: s.Pos})
		starts := make([]int, len(s.Branches))
		var exits []int
		for i, b := range s.Branches {
			starts[i] = len(fc.code)
			fc.block(b)
			exits = append(exits, fc.emit(Instr{Op: OpJump, Pos: s.Pos}))
		}
		join := len(fc.code)
		fc.code[nd].Targets = starts
		for _, e := range exits {
			fc.code[e].Targets = []int{join}
		}
	case *ast.IterStmt:
		// L: nondet {body, join}; body; jump L; join:
		nd := fc.emit(Instr{Op: OpNondetJump, Pos: s.Pos})
		bodyStart := len(fc.code)
		fc.block(s.Body)
		fc.emit(Instr{Op: OpJump, Targets: []int{nd}, Pos: s.Pos})
		join := len(fc.code)
		fc.code[nd].Targets = []int{bodyStart, join}
	case *ast.SkipStmt:
		fc.emit(Instr{Op: OpSkip, Pos: s.Pos})
	case *ast.TsPutStmt:
		fc.emit(Instr{Op: OpTsPut, Fn: s.Fn, Args: s.Args, Pos: s.Pos})
	case *ast.TsDispatchStmt:
		fc.emit(Instr{Op: OpTsDispatch, Pos: s.Pos})
	case *ast.IfStmt, *ast.WhileStmt:
		panic("sem: sugar statement survived lowering")
	default:
		panic(fmt.Sprintf("sem: unknown statement %T", s))
	}
}
