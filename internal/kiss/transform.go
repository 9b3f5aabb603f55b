// Package kiss implements the program transformation at the heart of
// "KISS: Keep It Simple and Sequential" (Qadeer & Wu, PLDI 2004): the
// translation of a concurrent program P into a sequential program P' that
// simulates a large subset of P's behaviors on a single stack.
//
// Two translations are provided, mirroring the paper:
//
//   - Transform (Figure 4) instruments for assertion checking: a fresh
//     global `raise` lets a thread terminate nondeterministically by
//     raising an exception that pops its stack frames; a bounded multiset
//     `ts` holds forked-but-unscheduled threads; a `schedule` function
//     runs a nondeterministically chosen set of pending threads. Figure 4
//     places both before every statement. Here they go only where another
//     thread can tell the difference: before each statement that touches
//     a global, the heap or a local whose address is taken, allocates,
//     blocks (assume), asserts, calls, forks or is atomic, and at each
//     loop head. A statement over a function's private locals commutes
//     with every step of every other thread, so a switch or termination
//     before it is equivalent to one at the next kept point (DESIGN.md
//     decision 20).
//
//   - TransformRace (Figure 5) additionally instruments every read and
//     write with check_r/check_w calls that detect conflicting accesses to
//     a distinguished variable r (Section 5), using a unification-based
//     alias analysis to elide checks that provably cannot touch r.
//
// The output is a program in the *sequential* fragment of the language
// (no async, no atomic), to be analyzed by any sequential checker — here
// package concheck at context bound 0, standing in for SLAM.
package kiss

import (
	"fmt"
	"strings"

	"repro/internal/alias"
	"repro/internal/ast"
	"repro/internal/lower"
	"repro/internal/sema"
)

// Reserved names introduced by the transformation.
const (
	// RaiseVar is the fresh global boolean `raise` of Section 4.
	RaiseVar = "__kiss_raise"
	// AccessVar is the fresh global `access` in {0,1,2} of Section 5.
	AccessVar = "__kiss_access"
	// ScheduleFn is the generated scheduler function.
	ScheduleFn = "__kiss_schedule"
	// CheckRFn and CheckWFn are the generated race-check functions.
	CheckRFn = "__kiss_check_r"
	CheckWFn = "__kiss_check_w"
	// FnPrefix prefixes every translated function: [[f]] is FnPrefix+f.
	FnPrefix = "__kiss_"
)

// TranslatedName returns the name of the translated version [[f]] of a
// source function f.
func TranslatedName(f string) string { return FnPrefix + f }

// OriginalName inverts TranslatedName; ok is false for generated helpers
// (schedule, check_r, check_w) and non-translated names.
func OriginalName(f string) (string, bool) {
	switch f {
	case ScheduleFn, CheckRFn, CheckWFn:
		return "", false
	}
	if rest, found := strings.CutPrefix(f, FnPrefix); found {
		return rest, true
	}
	return "", false
}

// Scheduler selects the implementation of the generated schedule
// function and the placement of its call sites. Section 4: "The function
// schedule encapsulates the scheduling policy for the concurrent program.
// The implementation of this function presented above assumes a
// completely nondeterministic scheduler. A more sophisticated scheduler
// can be provided by writing a different implementation of schedule."
type Scheduler int

const (
	// SchedulerNondet is the paper's scheduler: at every switch point
	// (see Transform), run a nondeterministically chosen multiset of
	// pending threads.
	SchedulerNondet Scheduler = iota
	// SchedulerDrainAll runs *all* pending threads to completion whenever
	// scheduling happens. Cheaper (no partial-drain nondeterminism) but
	// misses bugs that need one pending thread to run while another stays
	// deferred; still an under-approximation, so reports remain sound.
	SchedulerDrainAll
	// SchedulerAtCallsOnly keeps the nondeterministic scheduler but calls
	// it only before call/async statements and at returns, not at every
	// switch point. Cheaper; misses bugs that need a context switch
	// between two straight-line statements.
	SchedulerAtCallsOnly
)

func (s Scheduler) String() string {
	switch s {
	case SchedulerNondet:
		return "nondet"
	case SchedulerDrainAll:
		return "drain-all"
	case SchedulerAtCallsOnly:
		return "at-calls-only"
	}
	return "?"
}

// Options parameterize the transformation.
type Options struct {
	// MaxTS is the bound MAX on the multiset ts (Section 4): "The set ts
	// provides a tuning knob to trade off coverage for computational cost
	// of analysis." With MaxTS = 0 every asynchronous call is replaced by
	// a synchronous call (the configuration used for the Table 1 race
	// experiments); the refcount experiments of Section 6 use MaxTS = 1.
	MaxTS int
	// DisableAliasElision keeps every check_r/check_w call even when the
	// alias analysis proves it cannot touch the race target. Only useful
	// for the ablation benchmarks quantifying how much the elision of
	// Section 5 saves.
	DisableAliasElision bool
	// Scheduler selects the scheduling policy (default: the paper's fully
	// nondeterministic scheduler).
	Scheduler Scheduler
}

// Transform applies the assertion-checking translation of Figure 4 to a
// core-form concurrent program and returns the sequential program
// Check(s) = raise := false; ts := ∅; [[s]]; schedule().
func Transform(p *ast.Program, opts Options) (*ast.Program, error) {
	return (&transformer{opts: opts}).run(p)
}

// TransformRace applies the race-checking translation of Figure 5 for the
// distinguished variable identified by target.
func TransformRace(p *ast.Program, target ast.RaceTarget, opts Options) (*ast.Program, error) {
	return (&transformer{opts: opts, target: &target}).run(p)
}

// run translates p under tr's options and target.
func (tr *transformer) run(p *ast.Program) (*ast.Program, error) {
	opts, target := tr.opts, tr.target
	if opts.MaxTS < 0 {
		return nil, fmt.Errorf("kiss: negative ts bound %d", opts.MaxTS)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		return nil, fmt.Errorf("kiss: input program ill-formed: %w", err)
	}
	if ok, why := lower.IsCore(p); !ok {
		return nil, fmt.Errorf("kiss: input program not in core form (run lower first): %s", why)
	}
	if err := checkReservedNames(p); err != nil {
		return nil, err
	}
	if target != nil {
		if err := validateTarget(p, target); err != nil {
			return nil, err
		}
	}

	tr.src = p
	if target != nil {
		tr.alias = alias.Analyze(p)
	}

	out := &ast.Program{MaxTS: opts.MaxTS}
	if target != nil {
		t := *target
		out.RaceTarget = &t
	}
	for _, r := range p.Records {
		out.Records = append(out.Records, &ast.Record{
			Name: r.Name, Fields: append([]string(nil), r.Fields...), Pos: r.Pos,
		})
	}
	for _, g := range p.Globals {
		out.Globals = append(out.Globals, &ast.VarDecl{Name: g.Name, Pos: g.Pos})
	}
	out.Globals = append(out.Globals, &ast.VarDecl{Name: RaiseVar})
	if target != nil {
		out.Globals = append(out.Globals, &ast.VarDecl{Name: AccessVar})
	}

	for _, f := range p.Funcs {
		out.Funcs = append(out.Funcs, tr.function(f))
	}
	// With MAX = 0, ts is empty in every execution: schedule is a no-op
	// and is elided everywhere, so the function itself is not emitted.
	if opts.MaxTS > 0 {
		out.Funcs = append(out.Funcs, scheduleFunc(opts.Scheduler))
	}
	if target != nil {
		out.Funcs = append(out.Funcs, checkFunc(CheckRFn, false), checkFunc(CheckWFn, true))
	}
	out.Funcs = append(out.Funcs, mainWrapper(target != nil, opts.MaxTS > 0))

	lower.Program(out)
	if err := sema.Check(out, sema.Transformed); err != nil {
		return nil, fmt.Errorf("kiss: internal error: transformed program ill-formed: %w", err)
	}
	return out, nil
}

func checkReservedNames(p *ast.Program) error {
	bad := func(name string) bool { return strings.HasPrefix(name, "__") }
	for _, g := range p.Globals {
		if bad(g.Name) {
			return fmt.Errorf("kiss: global %q uses the reserved '__' prefix", g.Name)
		}
	}
	for _, f := range p.Funcs {
		if bad(f.Name) {
			return fmt.Errorf("kiss: function %q uses the reserved '__' prefix", f.Name)
		}
	}
	return nil
}

func validateTarget(p *ast.Program, t *ast.RaceTarget) error {
	if t.Global != "" {
		if p.FindGlobal(t.Global) == nil {
			return fmt.Errorf("kiss: race target global %q not declared", t.Global)
		}
		return nil
	}
	r := p.FindRecord(t.Record)
	if r == nil {
		return fmt.Errorf("kiss: race target record %q not declared", t.Record)
	}
	if r.FieldIndex(t.Field) < 0 {
		return fmt.Errorf("kiss: race target field %q not in record %q", t.Field, t.Record)
	}
	return nil
}

type transformer struct {
	src    *ast.Program
	opts   Options
	target *ast.RaceTarget
	alias  *alias.Analysis
	curFn  string // original name of the function being translated
	// benignDepth > 0 while translating the body of a benign{} annotation:
	// race checks are suppressed there (Section 6's proposed annotation).
	benignDepth int
	// private holds the params and locals of the function being
	// translated that no other thread can reach (see privateVars).
	private map[string]bool
	// everywhere puts a prefix before every statement, as Figure 4
	// draws it. Only the tests set it: that transform is the reference
	// the thinned one is checked against.
	everywhere bool
	// sim, when non-nil, collects the simulation map (see simMap).
	sim *simMap
}

// simMap relates P' to P for the simulation check in the tests. Keys are
// statements of P' and survive lowering and compilation unchanged.
type simMap struct {
	// at maps a P' statement to the source location of a thread whose
	// next step it is: the translated copy of a source statement, or the
	// first instruction of an atomic body.
	at map[ast.Stmt]simLoc
	// resume maps a P' call to the source location of the thread whose
	// frame waits on it: just after a source call or async, or at the
	// statement whose prefix calls schedule.
	resume map[ast.Stmt]simLoc
	// spawn holds the calls that run a forked thread in place (async
	// with ts full); a frame they push starts a new thread, as does a
	// frame that __kiss_schedule dispatches.
	spawn map[ast.Stmt]bool
	// prefixed holds the source statements given a prefix.
	prefixed map[ast.Stmt]bool
}

// simLoc is a source location: the start of src, or with next set the
// point after it (after a call or async; inside an iter, its body head).
type simLoc struct {
	src  ast.Stmt
	next bool
}

func (tr *transformer) markAt(s, src ast.Stmt) {
	if tr.sim != nil {
		tr.sim.at[s] = simLoc{src: src}
	}
}

func (tr *transformer) markResume(s ast.Stmt, loc simLoc) {
	if tr.sim != nil {
		tr.sim.resume[s] = loc
	}
}

// function translates one source function f into [[f]].
func (tr *transformer) function(f *ast.Func) *ast.Func {
	tr.curFn = f.Name
	tr.private = privateVars(f)
	nf := &ast.Func{
		Name:   TranslatedName(f.Name),
		Params: append([]string(nil), f.Params...),
		Pos:    f.Pos,
	}
	for _, l := range f.Locals {
		nf.Locals = append(nf.Locals, &ast.VarDecl{Name: l.Name, Pos: l.Pos})
	}
	nf.Body = tr.block(f.Body)
	return nf
}

func (tr *transformer) block(b *ast.Block) *ast.Block {
	out := &ast.Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, tr.stmt(s)...)
	}
	return out
}

// raiseStmts is the paper's RAISE: raise := true; return.
func raiseStmts() []ast.Stmt {
	return []ast.Stmt{ast.Set(RaiseVar, ast.B(true)), ast.Ret(nil)}
}

// prefix builds the instrumentation inserted before a visible statement
// (and at a loop head):
//
//	schedule(); choice{skip [] ... [] RAISE}
//
// In assertion-checking mode the choice has a single RAISE branch
// (Figure 4). In race-checking mode there is one branch per potential
// access to the distinguished variable, each `check(addr); RAISE`
// (Figure 5); accesses proven by the alias analysis not to touch the
// target contribute a single shared bare-RAISE branch instead, preserving
// the nondeterministic-termination points while omitting the no-effect
// checks.
func (tr *transformer) prefix(accs []access, withSchedule bool, loc simLoc) []ast.Stmt {
	branches := []*ast.Block{ast.Blk(ast.Skip())}
	if tr.target == nil {
		branches = append(branches, ast.Blk(raiseStmts()...))
	} else {
		bareRaise := false
		for _, a := range accs {
			if tr.benignDepth == 0 && a.addr != nil && (tr.opts.DisableAliasElision ||
				tr.alias.AccessMayTarget(tr.curFn, a.addr, tr.target)) {
				check := CheckRFn
				if a.write {
					check = CheckWFn
				}
				br := ast.Blk(append([]ast.Stmt{
					ast.CallDirect("", check, ast.CloneExpr(a.addr)),
				}, raiseStmts()...)...)
				branches = append(branches, br)
			} else {
				bareRaise = true
			}
		}
		if bareRaise || len(accs) == 0 {
			branches = append(branches, ast.Blk(raiseStmts()...))
		}
	}
	if tr.sim != nil && !loc.next {
		tr.sim.prefixed[loc.src] = true
	}
	out := make([]ast.Stmt, 0, 2)
	if tr.opts.MaxTS > 0 && withSchedule {
		sched := ast.CallDirect("", ScheduleFn)
		tr.markResume(sched, loc)
		out = append(out, sched)
	}
	return append(out, ast.Choice(branches...))
}

// privateVars returns the params and locals of f whose address f never
// takes. A local lives in its own frame, and only a pointer made by &v
// inside f can reach it from anywhere else, so no other thread can read
// or write these variables.
func privateVars(f *ast.Func) map[string]bool {
	priv := make(map[string]bool, len(f.Params)+len(f.Locals))
	for _, p := range f.Params {
		priv[p] = true
	}
	for _, l := range f.Locals {
		priv[l.Name] = true
	}
	ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
		ast.WalkExprs(s, func(e ast.Expr) {
			if a, ok := e.(*ast.AddrOfExpr); ok {
				delete(priv, a.Name)
			}
		})
		return true
	})
	return priv
}

// invisible reports whether an assignment reads and writes only private
// locals and allocates nothing. Such a statement commutes with every step
// of every other thread (a both-mover), so a switch or a termination
// just before it is equivalent to one at the next visible statement, and
// it gets no prefix.
func (tr *transformer) invisible(s *ast.AssignStmt) bool {
	if tr.everywhere {
		return false
	}
	if _, ok := s.Rhs.(*ast.NewExpr); ok {
		return false
	}
	for _, a := range assignAccesses(s) {
		v, ok := a.addr.(*ast.AddrOfExpr)
		if !ok || !tr.private[v.Name] {
			return false
		}
	}
	return true
}

// prefixed reports whether the translation of s begins with a prefix on
// every path into it.
func (tr *transformer) prefixed(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.Block:
		return len(s.Stmts) > 0 && tr.prefixed(s.Stmts[0])
	case *ast.BenignStmt:
		return tr.prefixed(s.Body)
	case *ast.ChoiceStmt:
		for _, b := range s.Branches {
			if !tr.prefixed(b) {
				return false
			}
		}
		return len(s.Branches) > 0
	case *ast.AssignStmt:
		return !tr.invisible(s)
	case *ast.AssertStmt, *ast.AssumeStmt, *ast.AtomicStmt, *ast.CallStmt, *ast.AsyncStmt:
		return true
	case *ast.SkipStmt:
		return tr.everywhere
	}
	return false
}

// schedHere reports whether the current scheduler policy places a
// schedule() call before a statement of the given kind.
func (tr *transformer) schedHere(isCallLike bool) bool {
	if tr.opts.Scheduler == SchedulerAtCallsOnly {
		return isCallLike
	}
	return true
}

func (tr *transformer) stmt(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case *ast.Block:
		return []ast.Stmt{tr.block(s)}

	case *ast.AssignStmt:
		as := &ast.AssignStmt{Lhs: tr.expr(s.Lhs), Rhs: tr.expr(s.Rhs), Pos: s.Pos}
		tr.markAt(as, s)
		if tr.invisible(s) {
			return []ast.Stmt{as}
		}
		out := tr.prefix(assignAccesses(s), tr.schedHere(false), simLoc{src: s})
		return append(out, as)

	case *ast.AssertStmt:
		// Kept even over private locals: the failure is what the check
		// looks for, and a prefix here costs little.
		out := tr.prefix(readAccesses(s.Cond), tr.schedHere(false), simLoc{src: s})
		as := &ast.AssertStmt{Cond: tr.expr(s.Cond), Pos: s.Pos}
		tr.markAt(as, s)
		return append(out, as)

	case *ast.AssumeStmt:
		// Kept even over private locals: a thread can block here, and
		// pending threads must get their chance to run first.
		out := tr.prefix(readAccesses(s.Cond), tr.schedHere(false), simLoc{src: s})
		as := &ast.AssumeStmt{Cond: tr.expr(s.Cond), Pos: s.Pos}
		tr.markAt(as, s)
		return append(out, as)

	case *ast.AtomicStmt:
		// [[atomic{s}]] = schedule(); choice{skip [] RAISE}; s — the body
		// executes uninstrumented (Section 3's restriction guarantees it
		// contains no calls or returns), and the atomic wrapper itself is
		// dropped: in a sequential program nothing can interleave.
		out := tr.prefix(nil, tr.schedHere(false), simLoc{src: s})
		body := ast.CloneBlock(s.Body)
		tr.rewriteFuncLits(body)
		if len(body.Stmts) > 0 {
			tr.markAt(body.Stmts[0], s)
		}
		return append(out, body.Stmts...)

	case *ast.CallStmt:
		// [[v = v0()]] = schedule(); choice{...}; v = [[v0]](); if (raise) return
		accs := callAccesses(s)
		out := tr.prefix(accs, tr.schedHere(true), simLoc{src: s})
		call := &ast.CallStmt{
			Result: s.Result,
			Fn:     tr.expr(s.Fn),
			Args:   tr.exprs(s.Args),
			Pos:    s.Pos,
		}
		tr.markAt(call, s)
		tr.markResume(call, simLoc{src: s, next: true})
		out = append(out, call)
		out = append(out, ast.If(ast.V(RaiseVar), ast.Blk(ast.Ret(nil)), nil))
		return out

	case *ast.AsyncStmt:
		// [[async v0()]] = schedule(); choice{...};
		//   if (size() < MAX) put(v0) else { [[v0]](); raise := false }
		accs := asyncAccesses(s)
		out := tr.prefix(accs, tr.schedHere(true), simLoc{src: s})
		fn := tr.expr(s.Fn)
		args := tr.exprs(s.Args)
		put := &ast.TsPutStmt{Fn: fn, Args: args, Pos: s.Pos}
		// The inlined synchronous call deliberately carries no source
		// position: trace reconstruction uses the missing position to
		// recognize it as a thread executing inline rather than an
		// ordinary user call.
		syncCall := &ast.CallStmt{Fn: ast.CloneExpr(fn), Args: tr.cloneExprs(args)}
		tr.markAt(put, s)
		tr.markAt(syncCall, s)
		tr.markResume(syncCall, simLoc{src: s, next: true})
		if tr.sim != nil {
			tr.sim.spawn[syncCall] = true
		}
		els := ast.Blk(syncCall, ast.Set(RaiseVar, ast.B(false)))
		if tr.opts.MaxTS == 0 {
			// With MAX = 0, size() < MAX is identically false: every
			// asynchronous call is replaced by a synchronous call
			// (Section 2.2), so the test and the put branch are elided.
			return append(out, els.Stmts...)
		}
		out = append(out, ast.If(
			ast.Bin("<", &ast.TsSizeExpr{}, ast.I(int64(tr.opts.MaxTS))),
			ast.Blk(put),
			els,
		))
		return out

	case *ast.ReturnStmt:
		// [[return]] = schedule(); return
		ret := &ast.ReturnStmt{Value: tr.expr(s.Value), Pos: s.Pos}
		tr.markAt(ret, s)
		if tr.opts.MaxTS == 0 {
			return []ast.Stmt{ret}
		}
		sched := ast.CallDirect("", ScheduleFn)
		tr.markResume(sched, simLoc{src: s})
		return []ast.Stmt{sched, ret}

	case *ast.BenignStmt:
		// The annotation disappears in the translation; its body is
		// translated with race checks suppressed.
		tr.benignDepth++
		body := tr.block(s.Body)
		tr.benignDepth--
		return body.Stmts

	case *ast.ChoiceStmt:
		c := &ast.ChoiceStmt{Pos: s.Pos}
		for _, b := range s.Branches {
			c.Branches = append(c.Branches, tr.block(b))
		}
		return []ast.Stmt{c}

	case *ast.IterStmt:
		// A loop whose body is all private work would otherwise never
		// reach a switch or termination point: give its head one, unless
		// the body already starts with one.
		body := tr.block(s.Body)
		if !tr.everywhere && !tr.prefixed(s.Body) {
			head := tr.prefix(nil, tr.schedHere(false), simLoc{src: s, next: true})
			body.Stmts = append(head, body.Stmts...)
		}
		return []ast.Stmt{&ast.IterStmt{Body: body, Pos: s.Pos}}

	case *ast.SkipStmt:
		sk := &ast.SkipStmt{Pos: s.Pos}
		tr.markAt(sk, s)
		if !tr.everywhere {
			return []ast.Stmt{sk}
		}
		return append(tr.prefix(nil, tr.schedHere(false), simLoc{src: s}), sk)

	case *ast.IfStmt, *ast.WhileStmt:
		panic("kiss: sugar statement in core program")

	default:
		panic(fmt.Sprintf("kiss: cannot translate statement %T", s))
	}
}

// expr clones an expression, rewriting every function-name constant f to
// its translated counterpart [[f]]. Function values originate only from
// constants, so after this rewriting every indirect call and every ts
// entry dispatches to translated code — the paper's [[v0]]().
func (tr *transformer) expr(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	c := ast.CloneExpr(e)
	return rewriteFuncLitsExpr(c)
}

func (tr *transformer) exprs(es []ast.Expr) []ast.Expr {
	out := make([]ast.Expr, len(es))
	for i, e := range es {
		out[i] = tr.expr(e)
	}
	return out
}

func (tr *transformer) cloneExprs(es []ast.Expr) []ast.Expr {
	out := make([]ast.Expr, len(es))
	for i, e := range es {
		out[i] = ast.CloneExpr(e)
	}
	return out
}

// rewriteFuncLits rewrites function constants inside an already-cloned
// statement tree (used for atomic bodies, which are copied wholesale).
func (tr *transformer) rewriteFuncLits(b *ast.Block) {
	ast.WalkStmts(b, func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.AssignStmt:
			s.Lhs = rewriteFuncLitsExpr(s.Lhs)
			s.Rhs = rewriteFuncLitsExpr(s.Rhs)
		case *ast.AssertStmt:
			s.Cond = rewriteFuncLitsExpr(s.Cond)
		case *ast.AssumeStmt:
			s.Cond = rewriteFuncLitsExpr(s.Cond)
		}
		return true
	})
}

func rewriteFuncLitsExpr(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.FuncLit:
		return &ast.FuncLit{Name: TranslatedName(e.Name), Pos: e.Pos}
	case *ast.DerefExpr:
		e.X = rewriteFuncLitsExpr(e.X)
	case *ast.FieldExpr:
		e.X = rewriteFuncLitsExpr(e.X)
	case *ast.AddrFieldExpr:
		e.X = rewriteFuncLitsExpr(e.X)
	case *ast.UnaryExpr:
		e.X = rewriteFuncLitsExpr(e.X)
	case *ast.BinaryExpr:
		e.X = rewriteFuncLitsExpr(e.X)
		e.Y = rewriteFuncLitsExpr(e.Y)
	case *ast.RaceCellExpr:
		e.X = rewriteFuncLitsExpr(e.X)
	}
	return e
}

// scheduleFunc generates the scheduler. The paper's nondeterministic
// policy is
//
//	schedule() { var f; iter { if (size() > 0) { f := get(); [[f]](); raise := false } } }
//
// with get-and-call fused into the __ts_dispatch intrinsic. The drain-all
// variant replaces the nondeterministic iteration with a loop that runs
// until ts is empty.
func scheduleFunc(kind Scheduler) *ast.Func {
	var body *ast.Block
	if kind == SchedulerDrainAll {
		body = ast.Blk(
			ast.While(ast.Bin(">", &ast.TsSizeExpr{}, ast.I(0)), ast.Blk(
				&ast.TsDispatchStmt{},
				ast.Set(RaiseVar, ast.B(false)),
			)),
		)
	} else {
		body = ast.Blk(
			ast.Iter(ast.Blk(
				ast.If(ast.Bin(">", &ast.TsSizeExpr{}, ast.I(0)),
					ast.Blk(
						&ast.TsDispatchStmt{},
						ast.Set(RaiseVar, ast.B(false)),
					), nil),
			)),
		)
	}
	return &ast.Func{Name: ScheduleFn, Body: body}
}

// checkFunc generates check_r / check_w (Section 5):
//
//	check_r(x) { if (x == &r) { assert(!(access == 2)); access := 1 } }
//	check_w(x) { if (x == &r) { assert(access == 0);    access := 2 } }
//
// The pointer test x == &r is the __race_cell intrinsic, which matches the
// target global's cell or any (record, field) cell of the target field.
func checkFunc(name string, write bool) *ast.Func {
	var inner []ast.Stmt
	if write {
		inner = []ast.Stmt{
			ast.Assert(ast.Eq(ast.V(AccessVar), ast.I(0))),
			ast.Set(AccessVar, ast.I(2)),
		}
	} else {
		inner = []ast.Stmt{
			ast.Assert(ast.Not(ast.Eq(ast.V(AccessVar), ast.I(2)))),
			ast.Set(AccessVar, ast.I(1)),
		}
	}
	body := ast.Blk(
		ast.If(&ast.RaceCellExpr{X: ast.V("x")}, ast.Blk(inner...), nil),
	)
	return &ast.Func{Name: name, Params: []string{"x"}, Body: body}
}

// mainWrapper generates Check(s): raise := false; [access := 0;] [[main]]();
// raise := false; schedule().
func mainWrapper(race, withSchedule bool) *ast.Func {
	var stmts []ast.Stmt
	stmts = append(stmts, ast.Set(RaiseVar, ast.B(false)))
	if race {
		stmts = append(stmts, ast.Set(AccessVar, ast.I(0)))
	}
	stmts = append(stmts,
		ast.CallDirect("", TranslatedName("main")),
		ast.Set(RaiseVar, ast.B(false)),
	)
	if withSchedule {
		stmts = append(stmts, ast.CallDirect("", ScheduleFn))
	}
	return &ast.Func{Name: "main", Body: ast.Blk(stmts...)}
}
