// Package lower normalizes surface-syntax programs into the core layer on
// which the KISS transformation and the operational semantics are defined.
//
// Lowering performs, in one pass:
//
//   - Desugaring of if and while exactly as defined in Section 3 of the
//     paper:
//
//     if (v) s1 else s2  ==  choice{assume(v); s1 [] assume(!v); s2}
//     while (v) s        ==  iter{assume(v); s}; assume(!v)
//
//     Conditions richer than a core expression are first assigned to a
//     fresh temporary ("Decisions on an expression can be modeled by first
//     assigning the expression to a fresh variable").
//
//   - Hoisting of calls in expression position into call statements that
//     assign fresh temporaries.
//
//   - Flattening of nested expressions into three-address form: after
//     lowering, every assignment has one of the right-hand-side shapes of
//     Figure 3 (constant, variable, &v, *v, v->f, &v->f, unary/binary over
//     operands, new R) and every statement operand is a literal or a
//     variable.
//
// Lowered programs satisfy IsCore, which the semantics and transformation
// check on entry.
package lower

import (
	"fmt"

	"repro/internal/ast"
)

// Program lowers every function of p in place and returns p. Fresh
// temporaries are appended to each function's locals.
func Program(p *ast.Program) *ast.Program {
	for _, f := range p.Funcs {
		lowerFunc(f)
	}
	return p
}

type funcLowerer struct {
	fn      *ast.Func
	tmpSeq  int
	declSet map[string]bool
}

func lowerFunc(f *ast.Func) {
	fl := &funcLowerer{fn: f, declSet: map[string]bool{}}
	for _, p := range f.Params {
		fl.declSet[p] = true
	}
	for _, l := range f.Locals {
		fl.declSet[l.Name] = true
	}
	f.Body = fl.block(f.Body)
}

func (fl *funcLowerer) fresh(pos ast.Pos) string {
	for {
		name := fmt.Sprintf("__t%d", fl.tmpSeq)
		fl.tmpSeq++
		if !fl.declSet[name] {
			fl.declSet[name] = true
			fl.fn.Locals = append(fl.fn.Locals, &ast.VarDecl{Name: name, Pos: pos})
			return name
		}
	}
}

func (fl *funcLowerer) block(b *ast.Block) *ast.Block {
	out := &ast.Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, fl.stmt(s)...)
	}
	return out
}

// stmt lowers one statement into a sequence of core statements.
func (fl *funcLowerer) stmt(s ast.Stmt) []ast.Stmt {
	if coreLeaf(s) {
		// Lowering would rebuild it unchanged; keeping the node lets a
		// caller follow a statement through lowering.
		return []ast.Stmt{s}
	}
	switch s := s.(type) {
	case *ast.Block:
		return []ast.Stmt{fl.block(s)}

	case *ast.AssignStmt:
		return fl.assign(s)

	case *ast.AssertStmt:
		pre, cond := fl.coreCond(s.Cond, false)
		return append(pre, &ast.AssertStmt{Cond: cond, Pos: s.Pos})

	case *ast.AssumeStmt:
		// Assume conditions stay as core expressions (no temporaries for
		// the condition itself) so that blocking re-evaluates the actual
		// condition: extracting `t = *l == 0; assume(t)` would block on a
		// stale snapshot forever. Calls inside assume conditions are
		// rejected by sema.
		pre, cond := fl.coreCond(s.Cond, true)
		return append(pre, &ast.AssumeStmt{Cond: cond, Pos: s.Pos})

	case *ast.AtomicStmt:
		return []ast.Stmt{&ast.AtomicStmt{Body: fl.block(s.Body), Pos: s.Pos}}

	case *ast.BenignStmt:
		return []ast.Stmt{&ast.BenignStmt{Body: fl.block(s.Body), Pos: s.Pos}}

	case *ast.CallStmt:
		var pre []ast.Stmt
		fn := s.Fn
		if !isCallTarget(fn) {
			p, op := fl.operand(fn)
			pre, fn = append(pre, p...), op
		}
		args := make([]ast.Expr, len(s.Args))
		for i, a := range s.Args {
			p, op := fl.operand(a)
			pre = append(pre, p...)
			args[i] = op
		}
		return append(pre, &ast.CallStmt{Result: s.Result, Fn: fn, Args: args, Pos: s.Pos})

	case *ast.AsyncStmt:
		var pre []ast.Stmt
		fn := s.Fn
		if !isCallTarget(fn) {
			p, op := fl.operand(fn)
			pre, fn = append(pre, p...), op
		}
		args := make([]ast.Expr, len(s.Args))
		for i, a := range s.Args {
			p, op := fl.operand(a)
			pre = append(pre, p...)
			args[i] = op
		}
		return append(pre, &ast.AsyncStmt{Fn: fn, Args: args, Pos: s.Pos})

	case *ast.ReturnStmt:
		if s.Value == nil {
			return []ast.Stmt{s}
		}
		pre, op := fl.operandOrCore(s.Value)
		return append(pre, &ast.ReturnStmt{Value: op, Pos: s.Pos})

	case *ast.IfStmt:
		// Section 3: if (v) s1 else s2 == choice{assume(v); s1 [] assume(!v); s2}
		pre, cond := fl.coreCond(s.Cond, false)
		then := fl.block(s.Then)
		var els *ast.Block
		if s.Else != nil {
			els = fl.block(s.Else)
		} else {
			els = &ast.Block{Pos: s.Pos}
		}
		thenBr := &ast.Block{Pos: s.Pos}
		thenBr.Stmts = append([]ast.Stmt{&ast.AssumeStmt{Cond: cond, Pos: s.Pos}}, then.Stmts...)
		elseBr := &ast.Block{Pos: s.Pos}
		elseBr.Stmts = append([]ast.Stmt{&ast.AssumeStmt{Cond: negate(cond, s.Pos), Pos: s.Pos}}, els.Stmts...)
		return append(pre, &ast.ChoiceStmt{Branches: []*ast.Block{thenBr, elseBr}, Pos: s.Pos})

	case *ast.WhileStmt:
		// Section 3: while (v) s == iter{assume(v); s}; assume(!v).
		// A condition needing preparatory statements (e.g. a call) is
		// re-prepared on every iteration and once more after the loop.
		pre, cond := fl.coreCond(s.Cond, false)
		body := fl.block(s.Body)
		iterBody := &ast.Block{Pos: s.Pos}
		iterBody.Stmts = append(iterBody.Stmts, pre...)
		iterBody.Stmts = append(iterBody.Stmts, &ast.AssumeStmt{Cond: ast.CloneExpr(cond), Pos: s.Pos})
		iterBody.Stmts = append(iterBody.Stmts, body.Stmts...)
		var out []ast.Stmt
		out = append(out, &ast.IterStmt{Body: iterBody, Pos: s.Pos})
		for _, p := range pre {
			out = append(out, ast.CloneStmt(p))
		}
		out = append(out, &ast.AssumeStmt{Cond: negate(cond, s.Pos), Pos: s.Pos})
		return out

	case *ast.ChoiceStmt:
		c := &ast.ChoiceStmt{Pos: s.Pos}
		for _, b := range s.Branches {
			c.Branches = append(c.Branches, fl.block(b))
		}
		return []ast.Stmt{c}

	case *ast.IterStmt:
		return []ast.Stmt{&ast.IterStmt{Body: fl.block(s.Body), Pos: s.Pos}}

	case *ast.SkipStmt:
		return []ast.Stmt{s}

	case *ast.TsPutStmt, *ast.TsDispatchStmt:
		return []ast.Stmt{s}

	default:
		panic(fmt.Sprintf("lower: unknown statement %T", s))
	}
}

func (fl *funcLowerer) assign(s *ast.AssignStmt) []ast.Stmt {
	var pre []ast.Stmt

	// Normalize the left-hand side: bases of *e and e->f must be variables.
	lhs := s.Lhs
	switch l := lhs.(type) {
	case *ast.VarExpr:
	case *ast.DerefExpr:
		p, base := fl.operand(l.X)
		pre = append(pre, p...)
		lhs = &ast.DerefExpr{X: base, Pos: l.Pos}
	case *ast.FieldExpr:
		p, base := fl.operand(l.X)
		pre = append(pre, p...)
		lhs = &ast.FieldExpr{X: base, Field: l.Field, Pos: l.Pos}
	default:
		panic(fmt.Sprintf("lower: invalid assignment target %T", lhs))
	}

	// Figure 3 has no *v0 = <compound>: when the target is a memory cell,
	// the right-hand side must be an operand.
	if _, isVar := lhs.(*ast.VarExpr); !isVar {
		p, op := fl.operand(s.Rhs)
		pre = append(pre, p...)
		return append(pre, &ast.AssignStmt{Lhs: lhs, Rhs: op, Pos: s.Pos})
	}
	p, rhs := fl.operandOrCore(s.Rhs)
	pre = append(pre, p...)
	return append(pre, &ast.AssignStmt{Lhs: lhs, Rhs: rhs, Pos: s.Pos})
}

// operand lowers e to a literal or variable, emitting preparatory
// statements as needed.
func (fl *funcLowerer) operand(e ast.Expr) ([]ast.Stmt, ast.Expr) {
	if isOperand(e) {
		return nil, e
	}
	pre, core := fl.operandOrCore(e)
	tmp := fl.fresh(e.ExprPos())
	pre = append(pre, &ast.AssignStmt{Lhs: &ast.VarExpr{Name: tmp, Pos: e.ExprPos()}, Rhs: core, Pos: e.ExprPos()})
	return pre, &ast.VarExpr{Name: tmp, Pos: e.ExprPos()}
}

// operandOrCore lowers e to a core right-hand-side expression (one level of
// structure over operands), emitting preparatory statements as needed.
func (fl *funcLowerer) operandOrCore(e ast.Expr) ([]ast.Stmt, ast.Expr) {
	switch e := e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.FuncLit, *ast.NullLit, *ast.VarExpr,
		*ast.AddrOfExpr, *ast.NewExpr, *ast.TsSizeExpr:
		return nil, e
	case *ast.DerefExpr:
		pre, base := fl.operand(e.X)
		return pre, &ast.DerefExpr{X: base, Pos: e.Pos}
	case *ast.FieldExpr:
		pre, base := fl.operand(e.X)
		return pre, &ast.FieldExpr{X: base, Field: e.Field, Pos: e.Pos}
	case *ast.AddrFieldExpr:
		pre, base := fl.operand(e.X)
		return pre, &ast.AddrFieldExpr{X: base, Field: e.Field, Pos: e.Pos}
	case *ast.UnaryExpr:
		pre, x := fl.operand(e.X)
		return pre, &ast.UnaryExpr{Op: e.Op, X: x, Pos: e.Pos}
	case *ast.BinaryExpr:
		pre, x := fl.operand(e.X)
		p2, y := fl.operand(e.Y)
		pre = append(pre, p2...)
		return pre, &ast.BinaryExpr{Op: e.Op, X: x, Y: y, Pos: e.Pos}
	case *ast.RaceCellExpr:
		pre, x := fl.operand(e.X)
		return pre, &ast.RaceCellExpr{X: x, Pos: e.Pos}
	case *ast.CallExpr:
		var pre []ast.Stmt
		fn := e.Fn
		if !isCallTarget(fn) {
			p, op := fl.operand(fn)
			pre, fn = append(pre, p...), op
		}
		args := make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			p, op := fl.operand(a)
			pre = append(pre, p...)
			args[i] = op
		}
		tmp := fl.fresh(e.Pos)
		pre = append(pre, &ast.CallStmt{Result: tmp, Fn: fn, Args: args, Pos: e.Pos})
		return pre, &ast.VarExpr{Name: tmp, Pos: e.Pos}
	default:
		panic(fmt.Sprintf("lower: unknown expression %T", e))
	}
}

// coreCond lowers a condition. When keepShape is true (assume conditions),
// call-free conditions are preserved structurally even if not core, so that
// blocking re-evaluates them; they are decomposed only when they contain
// calls, in which case lowering falls back to a temporary.
func (fl *funcLowerer) coreCond(e ast.Expr, keepShape bool) ([]ast.Stmt, ast.Expr) {
	if keepShape && !containsCall(e) {
		return nil, e
	}
	if isCoreExpr(e) {
		return nil, e
	}
	return fl.operandOrCore(e)
}

func containsCall(e ast.Expr) bool {
	found := false
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if e == nil || found {
			return
		}
		switch e := e.(type) {
		case *ast.CallExpr:
			found = true
		case *ast.DerefExpr:
			walk(e.X)
		case *ast.FieldExpr:
			walk(e.X)
		case *ast.AddrFieldExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.RaceCellExpr:
			walk(e.X)
		}
	}
	walk(e)
	return found
}

func negate(e ast.Expr, pos ast.Pos) ast.Expr {
	return &ast.UnaryExpr{Op: "!", X: ast.CloneExpr(e), Pos: pos}
}

func isOperand(e ast.Expr) bool {
	switch e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.FuncLit, *ast.NullLit, *ast.VarExpr:
		return true
	}
	return false
}

func isCallTarget(e ast.Expr) bool {
	switch e.(type) {
	case *ast.VarExpr, *ast.FuncLit:
		return true
	}
	return false
}

// coreLeaf reports whether s is a leaf statement that lowering leaves
// exactly as it is.
func coreLeaf(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		switch l := s.Lhs.(type) {
		case *ast.VarExpr:
			return isCoreExpr(s.Rhs)
		case *ast.DerefExpr:
			return isOperand(l.X) && isOperand(s.Rhs)
		case *ast.FieldExpr:
			return isOperand(l.X) && isOperand(s.Rhs)
		}
	case *ast.AssertStmt:
		return isCoreExpr(s.Cond)
	case *ast.AssumeStmt:
		return !containsCall(s.Cond)
	case *ast.CallStmt:
		return isCallTarget(s.Fn) && allOperands(s.Args)
	case *ast.AsyncStmt:
		return isCallTarget(s.Fn) && allOperands(s.Args)
	case *ast.ReturnStmt:
		return s.Value == nil || isCoreExpr(s.Value)
	}
	return false
}

func allOperands(es []ast.Expr) bool {
	for _, e := range es {
		if !isOperand(e) {
			return false
		}
	}
	return true
}

// isCoreExpr reports whether e is a core right-hand-side expression: at
// most one level of structure whose children are operands.
func isCoreExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.FuncLit, *ast.NullLit, *ast.VarExpr,
		*ast.AddrOfExpr, *ast.NewExpr, *ast.TsSizeExpr:
		return true
	case *ast.DerefExpr:
		return isOperand(e.X)
	case *ast.FieldExpr:
		return isOperand(e.X)
	case *ast.AddrFieldExpr:
		return isOperand(e.X)
	case *ast.UnaryExpr:
		return isOperand(e.X)
	case *ast.BinaryExpr:
		return isOperand(e.X) && isOperand(e.Y)
	case *ast.RaceCellExpr:
		return isOperand(e.X)
	}
	return false
}

// IsCore reports whether the program is fully in core form: no if/while
// sugar, no calls in expression position, and all statements in
// three-address shape. The returned string describes the first violation
// when the program is not core.
func IsCore(p *ast.Program) (bool, string) {
	for _, f := range p.Funcs {
		var violation string
		ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
			if violation != "" {
				return false
			}
			switch s := s.(type) {
			case *ast.IfStmt:
				violation = fmt.Sprintf("%s: if statement not desugared", s.Pos)
			case *ast.WhileStmt:
				violation = fmt.Sprintf("%s: while statement not desugared", s.Pos)
			case *ast.AssignStmt:
				ok := false
				switch l := s.Lhs.(type) {
				case *ast.VarExpr:
					ok = isCoreExpr(s.Rhs)
				case *ast.DerefExpr:
					ok = isOperand(l.X) && isOperand(s.Rhs)
				case *ast.FieldExpr:
					ok = isOperand(l.X) && isOperand(s.Rhs)
				}
				if !ok {
					violation = fmt.Sprintf("%s: assignment not in core form: %s", s.Pos, ast.PrintStmt(s))
				}
			case *ast.AssertStmt:
				if !isCoreExprTree(s.Cond) {
					violation = fmt.Sprintf("%s: assert condition not core", s.Pos)
				}
			case *ast.AssumeStmt:
				if !isCoreExprTree(s.Cond) {
					violation = fmt.Sprintf("%s: assume condition not core", s.Pos)
				}
			case *ast.CallStmt:
				if !isCallTarget(s.Fn) {
					violation = fmt.Sprintf("%s: call target not a variable or function name", s.Pos)
				}
				for _, a := range s.Args {
					if !isOperand(a) {
						violation = fmt.Sprintf("%s: call argument not an operand", s.Pos)
					}
				}
			case *ast.AsyncStmt:
				if !isCallTarget(s.Fn) {
					violation = fmt.Sprintf("%s: async target not a variable or function name", s.Pos)
				}
				for _, a := range s.Args {
					if !isOperand(a) {
						violation = fmt.Sprintf("%s: async argument not an operand", s.Pos)
					}
				}
			case *ast.ReturnStmt:
				if s.Value != nil && !isCoreExpr(s.Value) {
					violation = fmt.Sprintf("%s: return value not core", s.Pos)
				}
			}
			return violation == ""
		})
		if violation != "" {
			return false, f.Name + ": " + violation
		}
	}
	return true, ""
}

// isCoreExprTree accepts effect-free expression trees of arbitrary depth
// built from core constructors (used for assume/assert conditions, which
// may keep their shape for faithful blocking semantics).
func isCoreExprTree(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.FuncLit, *ast.NullLit, *ast.VarExpr,
		*ast.AddrOfExpr, *ast.TsSizeExpr:
		return true
	case *ast.DerefExpr:
		return isCoreExprTree(e.X)
	case *ast.FieldExpr:
		return isCoreExprTree(e.X)
	case *ast.AddrFieldExpr:
		return isCoreExprTree(e.X)
	case *ast.UnaryExpr:
		return isCoreExprTree(e.X)
	case *ast.BinaryExpr:
		return isCoreExprTree(e.X) && isCoreExprTree(e.Y)
	case *ast.RaceCellExpr:
		return isCoreExprTree(e.X)
	}
	return false
}
