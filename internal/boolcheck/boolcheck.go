// Package boolcheck is a summary-based interprocedural reachability
// checker for the pointer-free, finite-data fragment of the sequential
// language — the architecture of SLAM's Bebop engine and the basis of the
// KISS paper's complexity claim: "For a sequential program with boolean
// variables, the complexity of model checking (or interprocedural dataflow
// analysis) is O(|C| · 2^(g+l))" (Section 4), citing Sharir-Pnueli [37]
// and Reps-Horwitz-Sagiv [34].
//
// Where package seqcheck explores whole configurations (stack included)
// and therefore diverges on unbounded recursion, boolcheck tabulates
// *procedure summaries*: path edges (proc, entry valuation, pc, current
// valuation) and summary edges (proc, entry valuation) -> (exit globals,
// return value). Recursive programs with finite data terminate — the
// decidability result the paper leans on.
//
// Supported fragment: no heap (new/records), no pointers (&v, *p, p->f),
// no async/atomic (i.e. KISS-transformed programs in assertion mode whose
// source is pointer-free — for example every program produced by
// internal/randprog). The ts intrinsics are supported: the pending-call
// multiset travels with the global valuation, and __ts_dispatch is an
// interprocedural call edge like any other.
package boolcheck

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/stats"
)

// Verdict mirrors seqcheck's verdicts.
type Verdict int

const (
	Safe Verdict = iota
	Error
	ResourceBound
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Error:
		return "error"
	default:
		return "resource-bound"
	}
}

// Options bound the tabulation. Zero means unlimited.
type Options struct {
	// MaxPathEdges bounds the number of distinct path edges tabulated
	// (the |C| · 2^(g+l) quantity of the complexity claim).
	MaxPathEdges int
	// Context, when non-nil, is polled during the tabulation; cancellation
	// or deadline expiry stops it with a ResourceBound verdict and the
	// matching Reason (a partial result, not an error).
	Context context.Context
	// Collector, when non-nil, receives progress samples (path edges play
	// the role of states; the worklist length is the frontier).
	Collector *stats.Collector
}

// ctxPollStride amortizes ctx.Err's mutex over the worklist loop.
const ctxPollStride = 512

// Result reports the verdict and tabulation statistics. Summary-based
// search does not retain linear counterexample traces (a path edge
// conflates all call stacks reaching it); use seqcheck when a trace is
// needed.
type Result struct {
	Verdict   Verdict
	Failure   *sem.Failure
	PathEdges int
	Summaries int
	// Reason names which bound ended the tabulation (ResourceBound
	// verdicts): the path-edge budget reports ReasonStates (path edges
	// are this engine's state analogue), context expiry reports
	// ReasonDeadline/ReasonCanceled.
	Reason stats.Reason
}

func (r *Result) String() string {
	switch r.Verdict {
	case Error:
		return fmt.Sprintf("error: %s (path edges=%d summaries=%d)", r.Failure, r.PathEdges, r.Summaries)
	case Safe:
		return fmt.Sprintf("safe (path edges=%d summaries=%d)", r.PathEdges, r.Summaries)
	default:
		return fmt.Sprintf("resource bound exhausted (%s; path edges=%d)", boundName(r.Reason), r.PathEdges)
	}
}

// boundName renders the tripped bound; zero falls back to the generic word.
func boundName(r stats.Reason) string {
	if r == stats.ReasonNone {
		return "budget"
	}
	return r.String()
}

// env is a valuation of the shared state (globals + ts) and the current
// procedure's locals. Values are scalars only.
type env struct {
	globals []sem.Value
	ts      []sem.Pending
	locals  []sem.Value
}

func (e *env) clone() *env {
	n := &env{
		globals: append([]sem.Value(nil), e.globals...),
		locals:  append([]sem.Value(nil), e.locals...),
	}
	if len(e.ts) > 0 {
		n.ts = make([]sem.Pending, len(e.ts))
		for i, p := range e.ts {
			n.ts[i] = sem.Pending{Fn: p.Fn, Args: append([]sem.Value(nil), p.Args...)}
		}
	}
	return n
}

func encodeVal(b *strings.Builder, v sem.Value) {
	switch v.Kind {
	case sem.KInt:
		fmt.Fprintf(b, "i%d,", v.I)
	case sem.KBool:
		fmt.Fprintf(b, "b%d,", v.I)
	case sem.KFunc:
		fmt.Fprintf(b, "f%d,", v.I) // an index into the program's name table
	case sem.KNull:
		b.WriteString("n,")
	case sem.KUnit:
		b.WriteString("u,")
	default:
		b.WriteString("?,")
	}
}

// sharedKey encodes globals+ts (the interprocedurally shared part).
func sharedKey(globals []sem.Value, ts []sem.Pending) string {
	var b strings.Builder
	for _, v := range globals {
		encodeVal(&b, v)
	}
	if len(ts) > 0 {
		entries := make([]string, len(ts))
		for i, p := range ts {
			var eb strings.Builder
			eb.WriteString(p.Fn)
			eb.WriteString("(")
			for _, a := range p.Args {
				encodeVal(&eb, a)
			}
			eb.WriteString(")")
			entries[i] = eb.String()
		}
		sort.Strings(entries)
		b.WriteString("T:")
		b.WriteString(strings.Join(entries, "|"))
	}
	return b.String()
}

func localsKey(locals []sem.Value) string {
	var b strings.Builder
	for _, v := range locals {
		encodeVal(&b, v)
	}
	return b.String()
}

// entryKey identifies a procedure instance: name + shared state + actuals.
type entryKey struct {
	fn     string
	shared string
	args   string
}

// exit is one summarized outcome of a procedure instance.
type exit struct {
	globals []sem.Value
	ts      []sem.Pending
	ret     sem.Value
}

func exitKey(x exit) string {
	var b strings.Builder
	b.WriteString(sharedKey(x.globals, x.ts))
	b.WriteString("R:")
	encodeVal(&b, x.ret)
	return b.String()
}

// pathEdge is a tabulated reachability fact.
type pathEdge struct {
	entry entryKey
	pc    int
	e     *env
}

// callSite records a suspended caller waiting on a callee summary.
type callSite struct {
	caller pathEdge // the edge *at* the call instruction
	result string   // variable receiving the return value ("" if none)
}

type checker struct {
	c    *sem.Compiled
	opts Options
	res  *Result

	// visited path edges: entry -> "pc|locals|shared" set
	visited map[entryKey]map[string]bool
	// summaries: entry -> exitKey -> exit
	summaries map[entryKey]map[string]exit
	// callers: callee entry -> suspended call sites
	callers map[entryKey][]callSite

	work []pathEdge
}

// Check runs the tabulation. It returns an error (distinct from an Error
// verdict) when the program falls outside the supported fragment.
func Check(c *sem.Compiled, opts Options) (*Result, error) {
	if err := supported(c); err != nil {
		return nil, err
	}
	ck := &checker{
		c: c, opts: opts,
		res:       &Result{},
		visited:   map[entryKey]map[string]bool{},
		summaries: map[entryKey]map[string]exit{},
		callers:   map[entryKey][]callSite{},
	}

	main := c.Funcs["main"]
	globals := make([]sem.Value, len(c.Globals))
	for i := range globals {
		globals[i] = sem.IntV(0)
	}
	entryEnv := &env{globals: globals, locals: zeroLocals(main, nil)}
	entry := entryKey{fn: "main", shared: sharedKey(globals, nil), args: ""}
	ck.enqueue(pathEdge{entry: entry, pc: 0, e: entryEnv})

	ctxCountdown := 1 // poll the context on the first iteration
	for len(ck.work) > 0 {
		if opts.Context != nil {
			if ctxCountdown--; ctxCountdown <= 0 {
				ctxCountdown = ctxPollStride
				if err := opts.Context.Err(); err != nil {
					ck.res.Verdict = ResourceBound
					if errors.Is(err, context.DeadlineExceeded) {
						ck.res.Reason = stats.ReasonDeadline
					} else {
						ck.res.Reason = stats.ReasonCanceled
					}
					return ck.res, nil
				}
			}
		}
		pe := ck.work[len(ck.work)-1]
		ck.work = ck.work[:len(ck.work)-1]
		opts.Collector.Sample(ck.res.PathEdges, ck.res.PathEdges, len(ck.work), 0, ck.res.PathEdges)
		if fail := ck.step(pe); fail != nil {
			ck.res.Verdict = Error
			ck.res.Failure = fail
			return ck.res, nil
		}
		if ck.opts.MaxPathEdges > 0 && ck.res.PathEdges > ck.opts.MaxPathEdges {
			ck.res.Verdict = ResourceBound
			ck.res.Reason = stats.ReasonStates
			return ck.res, nil
		}
	}
	ck.res.Verdict = Safe
	for _, m := range ck.summaries {
		ck.res.Summaries += len(m)
	}
	return ck.res, nil
}

// supported rejects programs outside the pointer-free fragment.
func supported(c *sem.Compiled) error {
	if len(c.Prog.Records) > 0 {
		return fmt.Errorf("boolcheck: records/heap not supported")
	}
	var bad error
	for _, f := range c.Prog.Funcs {
		ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
			if bad != nil {
				return false
			}
			switch s.(type) {
			case *ast.AsyncStmt:
				bad = fmt.Errorf("boolcheck: %s: async not supported (sequential fragment only)", f.Name)
			case *ast.AtomicStmt:
				bad = fmt.Errorf("boolcheck: %s: atomic not supported (sequential fragment only)", f.Name)
			}
			ast.WalkExprs(s, func(e ast.Expr) {
				switch e.(type) {
				case *ast.AddrOfExpr, *ast.DerefExpr, *ast.FieldExpr, *ast.AddrFieldExpr,
					*ast.NewExpr, *ast.NullLit, *ast.RaceCellExpr:
					if bad == nil {
						bad = fmt.Errorf("boolcheck: %s: pointer/heap expression %s not supported",
							f.Name, ast.PrintExpr(e))
					}
				}
			})
			return bad == nil
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

func zeroLocals(cf *sem.CompiledFunc, args []sem.Value) []sem.Value {
	locals := make([]sem.Value, len(cf.Vars))
	for i := range locals {
		if i < len(args) {
			locals[i] = args[i]
		} else {
			locals[i] = sem.IntV(0)
		}
	}
	return locals
}

func (ck *checker) enqueue(pe pathEdge) {
	key := fmt.Sprintf("%d|%s|%s", pe.pc, localsKey(pe.e.locals), sharedKey(pe.e.globals, pe.e.ts))
	m := ck.visited[pe.entry]
	if m == nil {
		m = map[string]bool{}
		ck.visited[pe.entry] = m
	}
	if m[key] {
		return
	}
	m[key] = true
	ck.res.PathEdges++
	ck.work = append(ck.work, pe)
}

// failf builds a failure.
func failf(kind sem.FailKind, fn string, pos ast.Pos, msg string) *sem.Failure {
	return &sem.Failure{Kind: kind, Pos: pos, Msg: msg, Fn: fn}
}

// step processes one path edge.
func (ck *checker) step(pe pathEdge) *sem.Failure {
	cf := ck.c.Funcs[pe.entry.fn]
	if pe.pc >= len(cf.Code) {
		// implicit bare return
		ck.addSummary(pe, sem.UnitV())
		return nil
	}
	in := &cf.Code[pe.pc]
	switch in.Op {
	case sem.OpSkip:
		ck.advance(pe, 1)
	case sem.OpJump:
		ck.jump(pe, in.Targets[0])
	case sem.OpNondetJump:
		for _, t := range in.Targets {
			ck.jump(pe, t)
		}
	case sem.OpAssign:
		ne := pe.e.clone()
		v, err := ck.eval(cf, ne, in.Rhs)
		if err != nil {
			return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
		}
		if err := ck.store(cf, ne, in.Lhs, v); err != nil {
			return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
		}
		ck.enqueue(pathEdge{entry: pe.entry, pc: pe.pc + 1, e: ne})
	case sem.OpAssert:
		ok, err := ck.evalBool(cf, pe.e, in.Cond)
		if err != nil {
			return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
		}
		if !ok {
			return failf(sem.AssertFail, pe.entry.fn, in.Pos,
				"assertion violated: "+ast.PrintExpr(in.Cond))
		}
		ck.advance(pe, 1)
	case sem.OpAssume:
		ok, err := ck.evalBool(cf, pe.e, in.Cond)
		if err != nil {
			return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
		}
		if ok {
			ck.advance(pe, 1)
		}
	case sem.OpReturn:
		rv := sem.UnitV()
		if in.Value != nil {
			v, err := ck.eval(cf, pe.e, in.Value)
			if err != nil {
				return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
			}
			rv = v
		}
		ck.addSummary(pe, rv)
	case sem.OpCall:
		return ck.call(pe, cf, in)
	case sem.OpTsPut:
		ne := pe.e.clone()
		fv, err := ck.eval(cf, ne, in.Fn)
		if err != nil {
			return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
		}
		args := make([]sem.Value, len(in.Args))
		for i, a := range in.Args {
			av, err := ck.eval(cf, ne, a)
			if err != nil {
				return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
			}
			args[i] = av
		}
		name := ""
		if fv.Kind == sem.KFunc {
			name = fv.Fn(ck.c)
		}
		ne.ts = append(ne.ts, sem.Pending{Fn: name, Args: args})
		ck.enqueue(pathEdge{entry: pe.entry, pc: pe.pc + 1, e: ne})
	case sem.OpTsDispatch:
		// One call edge per distinct pending entry.
		seen := map[string]bool{}
		for i := range pe.e.ts {
			p := pe.e.ts[i]
			var kb strings.Builder
			kb.WriteString(p.Fn)
			for _, a := range p.Args {
				encodeVal(&kb, a)
			}
			if seen[kb.String()] {
				continue
			}
			seen[kb.String()] = true
			ne := pe.e.clone()
			ne.ts = append(ne.ts[:i:i], ne.ts[i+1:]...)
			if f := ck.callInto(pe, ne, p.Fn, p.Args, ""); f != nil {
				return f
			}
		}
	default:
		return failf(sem.RuntimeFail, pe.entry.fn, in.Pos,
			fmt.Sprintf("boolcheck: unsupported opcode %d", in.Op))
	}
	return nil
}

func (ck *checker) advance(pe pathEdge, delta int) {
	ck.enqueue(pathEdge{entry: pe.entry, pc: pe.pc + delta, e: pe.e})
}

func (ck *checker) jump(pe pathEdge, target int) {
	ck.enqueue(pathEdge{entry: pe.entry, pc: target, e: pe.e})
}

// call handles OpCall.
func (ck *checker) call(pe pathEdge, cf *sem.CompiledFunc, in *sem.Instr) *sem.Failure {
	fv, err := ck.eval(cf, pe.e, in.Fn)
	if err != nil {
		return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
	}
	if fv.Kind != sem.KFunc {
		return failf(sem.RuntimeFail, pe.entry.fn, in.Pos, "call of non-function value "+fv.Text(ck.c))
	}
	args := make([]sem.Value, len(in.Args))
	for i, a := range in.Args {
		av, err := ck.eval(cf, pe.e, a)
		if err != nil {
			return failf(sem.RuntimeFail, pe.entry.fn, err.pos, err.msg)
		}
		args[i] = av
	}
	return ck.callInto(pe, pe.e, fv.Fn(ck.c), args, in.Result)
}

// callInto creates the interprocedural edge: suspend the caller at pe,
// start (or reuse) the callee instance, and apply any already-computed
// summaries.
func (ck *checker) callInto(pe pathEdge, callerEnv *env, callee string, args []sem.Value, result string) *sem.Failure {
	ccf, ok := ck.c.Funcs[callee]
	if !ok {
		return failf(sem.RuntimeFail, pe.entry.fn, ast.Pos{}, "call of undefined function "+callee)
	}
	if len(args) != ccf.NumParam {
		return failf(sem.RuntimeFail, pe.entry.fn, ast.Pos{},
			fmt.Sprintf("call of %q with %d arguments, want %d", callee, len(args), ccf.NumParam))
	}
	var ab strings.Builder
	for _, a := range args {
		encodeVal(&ab, a)
	}
	calleeEntry := entryKey{
		fn:     callee,
		shared: sharedKey(callerEnv.globals, callerEnv.ts),
		args:   ab.String(),
	}
	site := callSite{
		caller: pathEdge{entry: pe.entry, pc: pe.pc, e: callerEnv},
		result: result,
	}
	ck.callers[calleeEntry] = append(ck.callers[calleeEntry], site)

	// Start the callee instance if new.
	ck.enqueue(pathEdge{
		entry: calleeEntry,
		pc:    0,
		e: &env{
			globals: append([]sem.Value(nil), callerEnv.globals...),
			ts:      cloneTs(callerEnv.ts),
			locals:  zeroLocals(ccf, args),
		},
	})

	// Apply existing summaries.
	for _, x := range ck.summaries[calleeEntry] {
		ck.applySummary(site, x)
	}
	return nil
}

func cloneTs(ts []sem.Pending) []sem.Pending {
	if len(ts) == 0 {
		return nil
	}
	out := make([]sem.Pending, len(ts))
	for i, p := range ts {
		out[i] = sem.Pending{Fn: p.Fn, Args: append([]sem.Value(nil), p.Args...)}
	}
	return out
}

// addSummary records a procedure exit and resumes every suspended caller.
func (ck *checker) addSummary(pe pathEdge, ret sem.Value) {
	x := exit{
		globals: append([]sem.Value(nil), pe.e.globals...),
		ts:      cloneTs(pe.e.ts),
		ret:     ret,
	}
	key := exitKey(x)
	m := ck.summaries[pe.entry]
	if m == nil {
		m = map[string]exit{}
		ck.summaries[pe.entry] = m
	}
	if _, dup := m[key]; dup {
		return
	}
	m[key] = x
	for _, site := range ck.callers[pe.entry] {
		ck.applySummary(site, x)
	}
}

// applySummary resumes a caller after the call with the callee's exit
// effect applied.
func (ck *checker) applySummary(site callSite, x exit) {
	ne := site.caller.e.clone()
	ne.globals = append([]sem.Value(nil), x.globals...)
	ne.ts = cloneTs(x.ts)
	if site.result != "" {
		cf := ck.c.Funcs[site.caller.entry.fn]
		if idx, ok := cf.VarIdx[site.result]; ok {
			ne.locals[idx] = x.ret
		} else if gidx, ok := ck.c.GlobalIdx[site.result]; ok {
			ne.globals[gidx] = x.ret
		}
	}
	ck.enqueue(pathEdge{entry: site.caller.entry, pc: site.caller.pc + 1, e: ne})
}

// ---------------------------------------------------------------------------
// Expression evaluation over env (pointer-free)
// ---------------------------------------------------------------------------

type evalErr struct {
	pos ast.Pos
	msg string
}

func (ck *checker) eval(cf *sem.CompiledFunc, e *env, x ast.Expr) (sem.Value, *evalErr) {
	switch x := x.(type) {
	case *ast.IntLit:
		return sem.IntV(x.Value), nil
	case *ast.BoolLit:
		return sem.BoolV(x.Value), nil
	case *ast.FuncLit:
		return ck.c.FuncV(x.Name), nil
	case *ast.VarExpr:
		if idx, ok := cf.VarIdx[x.Name]; ok {
			return e.locals[idx], nil
		}
		if gidx, ok := ck.c.GlobalIdx[x.Name]; ok {
			return e.globals[gidx], nil
		}
		return sem.Value{}, &evalErr{x.Pos, "undefined variable " + x.Name}
	case *ast.UnaryExpr:
		v, err := ck.eval(cf, e, x.X)
		if err != nil {
			return sem.Value{}, err
		}
		switch x.Op {
		case "!":
			if v.Kind != sem.KBool {
				return sem.Value{}, &evalErr{x.Pos, "'!' on non-boolean"}
			}
			return sem.BoolV(!v.Bool()), nil
		case "-":
			if v.Kind != sem.KInt {
				return sem.Value{}, &evalErr{x.Pos, "unary '-' on non-integer"}
			}
			return sem.IntV(-v.I), nil
		}
		return sem.Value{}, &evalErr{x.Pos, "unknown unary op"}
	case *ast.BinaryExpr:
		a, err := ck.eval(cf, e, x.X)
		if err != nil {
			return sem.Value{}, err
		}
		b, err := ck.eval(cf, e, x.Y)
		if err != nil {
			return sem.Value{}, err
		}
		return binop(x.Op, a, b, x.Pos)
	case *ast.TsSizeExpr:
		return sem.IntV(int64(len(e.ts))), nil
	}
	return sem.Value{}, &evalErr{x.ExprPos(), fmt.Sprintf("unsupported expression %T", x)}
}

func binop(op string, a, b sem.Value, pos ast.Pos) (sem.Value, *evalErr) {
	bothInt := a.Kind == sem.KInt && b.Kind == sem.KInt
	bothBool := a.Kind == sem.KBool && b.Kind == sem.KBool
	switch op {
	case "+", "-", "*":
		if !bothInt {
			return sem.Value{}, &evalErr{pos, "arithmetic on non-integers"}
		}
		switch op {
		case "+":
			return sem.IntV(a.I + b.I), nil
		case "-":
			return sem.IntV(a.I - b.I), nil
		default:
			return sem.IntV(a.I * b.I), nil
		}
	case "==":
		return sem.BoolV(a.Equal(b)), nil
	case "!=":
		return sem.BoolV(!a.Equal(b)), nil
	case "<", "<=", ">", ">=":
		if !bothInt {
			return sem.Value{}, &evalErr{pos, "comparison on non-integers"}
		}
		switch op {
		case "<":
			return sem.BoolV(a.I < b.I), nil
		case "<=":
			return sem.BoolV(a.I <= b.I), nil
		case ">":
			return sem.BoolV(a.I > b.I), nil
		default:
			return sem.BoolV(a.I >= b.I), nil
		}
	case "&&", "||":
		if !bothBool {
			return sem.Value{}, &evalErr{pos, "boolean op on non-booleans"}
		}
		if op == "&&" {
			return sem.BoolV(a.Bool() && b.Bool()), nil
		}
		return sem.BoolV(a.Bool() || b.Bool()), nil
	}
	return sem.Value{}, &evalErr{pos, "unknown binary op " + op}
}

func (ck *checker) evalBool(cf *sem.CompiledFunc, e *env, x ast.Expr) (bool, *evalErr) {
	v, err := ck.eval(cf, e, x)
	if err != nil {
		return false, err
	}
	if v.Kind != sem.KBool {
		return false, &evalErr{x.ExprPos(), "condition is not boolean"}
	}
	return v.Bool(), nil
}

func (ck *checker) store(cf *sem.CompiledFunc, e *env, lhs ast.Expr, v sem.Value) *evalErr {
	l, ok := lhs.(*ast.VarExpr)
	if !ok {
		return &evalErr{lhs.ExprPos(), "only variable assignment targets supported"}
	}
	if idx, ok := cf.VarIdx[l.Name]; ok {
		e.locals[idx] = v
		return nil
	}
	if gidx, ok := ck.c.GlobalIdx[l.Name]; ok {
		e.globals[gidx] = v
		return nil
	}
	return &evalErr{l.Pos, "undefined variable " + l.Name}
}
