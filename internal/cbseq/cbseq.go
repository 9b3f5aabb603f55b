// Package cbseq implements context-bounded sequentialization: the
// Lal–Reps-style source-to-source translation of a concurrent program
// into a sequential program whose executions simulate every round-robin
// schedule with at most K context switches (CB(K)).
//
// The encoding divides an execution into R = K+1 rounds. Each thread runs
// to completion exactly once, in creation order, carrying a private view
// of the shared globals for whichever round it is currently in. When a
// thread (nondeterministically) advances from round r to round r+1, the
// values the shared globals will hold at its re-entry are *guessed* from
// a finite, statically derived value domain; at the end of the whole run
// a linking check assumes that the final round-r values produced by the
// last thread equal the round-(r+1) values that were guessed. Runs whose
// guesses do not link up are infeasible and are silently pruned by the
// assume, so every surviving run corresponds to a real interleaving:
// reported errors are sound. Assertion failures observed before the
// linking check are deferred through an error flag and only reported by a
// final assert after linking, for the same reason.
//
// Like package kiss, the output is a program in the sequential fragment,
// checked by the sequential check (concheck at context bound 0) unchanged. Unlike KISS's ts-multiset
// discipline — where a killed thread never resumes — CB(K) lets every
// thread resume K times, making a strictly richer class of interleavings
// reachable as K grows (the guess domain does not depend on K, so the
// bugs found are monotone nondecreasing in K).
package cbseq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/lower"
	"repro/internal/sema"
)

// Reserved names introduced by the translation.
const (
	// RoundVar is the current round counter, 1..R.
	RoundVar = "__cb_round"
	// RaiseVar lets a thread retire nondeterministically at any control
	// location (the paper's RAISE, reused unchanged): a retired thread
	// simply makes no further steps, which is always a feasible schedule.
	RaiseVar = "__cb_raise"
	// ErrVar defers assertion failures until after the linking check.
	ErrVar = "__cb_err"
	// FnPrefix prefixes every translated function: [[f]] is FnPrefix+f.
	FnPrefix = "__cbf_"
	// WrapperPrefix prefixes the per-entry thread wrappers that restore
	// the creation round before running a deferred thread's body.
	WrapperPrefix = "__cbt_"
	// Generated helper functions.
	SaveFn    = "__cb_save"    // active globals -> cur[round]
	LoadFn    = "__cb_loadcur" // cur[round] -> active globals
	AdvanceFn = "__cb_advance" // round -> round+1 (guess + swap)
	YieldFn   = "__cb_yield"   // nondet sequence of advances
	FinFn     = "__cb_fin"     // linking assumes + deferred assert
	// GuessFnPrefix prefixes the per-round snapshot guessers.
	GuessFnPrefix = "__cb_guess_"
)

// curVar is the saved copy of shared global g for round r; guessVar is the
// immutable guessed round-entry snapshot; usedVar flags that round r was
// entered (and hence guessed).
func curVar(r int, g string) string   { return fmt.Sprintf("__cbv_%d_%s", r, g) }
func guessVar(r int, g string) string { return fmt.Sprintf("__cbk_%d_%s", r, g) }
func usedVar(r int) string            { return fmt.Sprintf("__cbu_%d", r) }

// TranslatedName returns the name of the translated version [[f]] of a
// source function f.
func TranslatedName(f string) string { return FnPrefix + f }

// WrapperName returns the name of the thread wrapper for async target f.
func WrapperName(f string) string { return WrapperPrefix + f }

// OriginalName inverts TranslatedName/WrapperName; ok is false for
// generated helpers.
func OriginalName(f string) (string, bool) {
	if rest, found := strings.CutPrefix(f, FnPrefix); found {
		return rest, true
	}
	if rest, found := strings.CutPrefix(f, WrapperPrefix); found {
		return rest, true
	}
	return "", false
}

// DefaultMaxPending bounds the multiset of forked-but-unscheduled threads
// in the translated program; a fork past the bound runs inline at the
// fork point instead (a zero-switch schedule for the child — sound).
const DefaultMaxPending = 8

// Options parameterize the translation.
type Options struct {
	// ContextSwitches is K: the number of guessed round boundaries. The
	// translated program simulates every round-robin schedule with K+1
	// rounds, which covers all executions with at most K context switches
	// (and many with more). K = 0 runs each thread to completion once, in
	// creation order, with no resumption.
	ContextSwitches int
	// MaxPending bounds the pending-thread multiset (0 = DefaultMaxPending).
	MaxPending int
	// ExtraValues widens every int guess domain with the given candidates.
	// Useful when the ±1-closure heuristic misses a reachable snapshot
	// value; a missing value only shrinks coverage, never soundness.
	ExtraValues []int64
}

func (o Options) rounds() int { return o.ContextSwitches + 1 }

func (o Options) maxPending() int {
	if o.MaxPending > 0 {
		return o.MaxPending
	}
	return DefaultMaxPending
}

// Transform applies the CB(K) translation to a core-form concurrent
// program, producing a sequential program for the sequential check. Programs outside
// the supported fragment (heap or pointer operations, indirect asyncs,
// shared globals without a kind-stable finite guess domain) are rejected
// with an *UnsupportedError.
func Transform(p *ast.Program, opts Options) (*ast.Program, error) {
	if opts.ContextSwitches < 0 {
		return nil, fmt.Errorf("cbseq: negative context-switch bound %d", opts.ContextSwitches)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		return nil, fmt.Errorf("cbseq: input program ill-formed: %w", err)
	}
	if ok, why := lower.IsCore(p); !ok {
		return nil, fmt.Errorf("cbseq: input program not in core form (run lower first): %s", why)
	}
	if err := checkReservedNames(p); err != nil {
		return nil, err
	}
	if err := checkSupported(p); err != nil {
		return nil, err
	}
	shared := sharedGlobals(p)
	domains, err := inferDomains(p, shared, opts.ExtraValues)
	if err != nil {
		return nil, err
	}
	var vg []string // versioned (shared) globals, deterministic order
	for _, g := range p.Globals {
		if shared[g.Name] {
			vg = append(vg, g.Name)
		}
	}
	sort.Strings(vg)

	tr := &transformer{src: p, opts: opts, R: opts.rounds(), vg: vg, domains: domains}

	out := &ast.Program{MaxTS: opts.maxPending()}
	for _, g := range p.Globals {
		out.Globals = append(out.Globals, &ast.VarDecl{Name: g.Name, Pos: g.Pos})
	}
	out.Globals = append(out.Globals,
		&ast.VarDecl{Name: RoundVar},
		&ast.VarDecl{Name: RaiseVar},
		&ast.VarDecl{Name: ErrVar},
	)
	for r := 1; r <= tr.R; r++ {
		for _, g := range vg {
			out.Globals = append(out.Globals, &ast.VarDecl{Name: curVar(r, g)})
		}
	}
	for r := 2; r <= tr.R; r++ {
		out.Globals = append(out.Globals, &ast.VarDecl{Name: usedVar(r)})
		for _, g := range vg {
			out.Globals = append(out.Globals, &ast.VarDecl{Name: guessVar(r, g)})
		}
	}

	asyncTargets := map[string]bool{}
	for _, f := range p.Funcs {
		ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
			if a, ok := s.(*ast.AsyncStmt); ok {
				asyncTargets[a.Fn.(*ast.FuncLit).Name] = true
			}
			return true
		})
	}

	for _, f := range p.Funcs {
		out.Funcs = append(out.Funcs, tr.function(f))
		if asyncTargets[f.Name] {
			out.Funcs = append(out.Funcs, tr.wrapper(f))
		}
	}
	out.Funcs = append(out.Funcs, tr.saveFunc(), tr.loadFunc())
	if tr.R > 1 {
		for r := 2; r <= tr.R; r++ {
			out.Funcs = append(out.Funcs, tr.guessFunc(r))
		}
		out.Funcs = append(out.Funcs, tr.advanceFunc(), tr.yieldFunc())
	}
	out.Funcs = append(out.Funcs, tr.finFunc(), tr.driver())

	lower.Program(out)
	if err := sema.Check(out, sema.Transformed); err != nil {
		return nil, fmt.Errorf("cbseq: internal error: transformed program ill-formed: %w", err)
	}
	return out, nil
}

func checkReservedNames(p *ast.Program) error {
	bad := func(name string) bool { return strings.HasPrefix(name, "__") }
	for _, g := range p.Globals {
		if bad(g.Name) {
			return fmt.Errorf("cbseq: global %q uses the reserved '__' prefix", g.Name)
		}
	}
	for _, f := range p.Funcs {
		if bad(f.Name) {
			return fmt.Errorf("cbseq: function %q uses the reserved '__' prefix", f.Name)
		}
	}
	return nil
}

type transformer struct {
	src     *ast.Program
	opts    Options
	R       int
	vg      []string // versioned globals, sorted
	domains map[string]domain
}

// function translates one source function f into [[f]].
func (tr *transformer) function(f *ast.Func) *ast.Func {
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

// prefix is the instrumentation before every statement:
//
//	__cb_yield(); choice{skip [] RAISE}
//
// The yield performs zero or more round advances (each guessing the next
// round's snapshot); the choice lets the thread retire for good.
func (tr *transformer) prefix() []ast.Stmt {
	out := make([]ast.Stmt, 0, 2)
	if tr.R > 1 {
		out = append(out, ast.CallDirect("", YieldFn))
	}
	out = append(out, ast.Choice(
		ast.Blk(ast.Skip()),
		ast.Blk(ast.Set(RaiseVar, ast.B(true)), ast.Ret(nil)),
	))
	return out
}

func (tr *transformer) stmt(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case *ast.Block:
		return []ast.Stmt{tr.block(s)}

	case *ast.AssignStmt:
		out := tr.prefix()
		return append(out, &ast.AssignStmt{Lhs: tr.expr(s.Lhs), Rhs: tr.expr(s.Rhs), Pos: s.Pos})

	case *ast.AssertStmt:
		// Deferred: a failure observed now might live on a run whose
		// snapshot guesses never link up. Record it and let __cb_fin
		// report it only after the linking assumes validate the run.
		out := tr.prefix()
		return append(out, deferAssert(s))

	case *ast.AssumeStmt:
		out := tr.prefix()
		return append(out, &ast.AssumeStmt{Cond: tr.expr(s.Cond), Pos: s.Pos})

	case *ast.AtomicStmt:
		// One yield point before the body, none inside: nothing can
		// interleave with an atomic section, and in the sequential output
		// the wrapper itself is dropped. Asserts inside are still deferred.
		out := tr.prefix()
		body := tr.atomicBody(s.Body)
		return append(out, body.Stmts...)

	case *ast.CallStmt:
		out := tr.prefix()
		out = append(out, &ast.CallStmt{
			Result: s.Result,
			Fn:     tr.expr(s.Fn),
			Args:   tr.exprs(s.Args),
			Pos:    s.Pos,
		})
		return append(out, ast.If(ast.V(RaiseVar), ast.Blk(ast.Ret(nil)), nil))

	case *ast.AsyncStmt:
		// [[async f()]] = prefix;
		//   if (size() < MAX) put(__cbt_f, args..., round)
		//   else { [[f]](args...); raise := false }
		// The wrapper re-enters the creation round before running the
		// body; the inline fallback runs the child entirely at the fork
		// point (a feasible zero-switch schedule for it).
		out := tr.prefix()
		target := s.Fn.(*ast.FuncLit).Name
		putArgs := append(tr.exprs(s.Args), ast.V(RoundVar))
		put := &ast.TsPutStmt{Fn: ast.Fn(WrapperName(target)), Args: putArgs, Pos: s.Pos}
		inline := &ast.CallStmt{Fn: ast.Fn(TranslatedName(target)), Args: tr.exprs(s.Args)}
		els := ast.Blk(inline, ast.Set(RaiseVar, ast.B(false)))
		out = append(out, ast.If(
			ast.Bin("<", &ast.TsSizeExpr{}, ast.I(int64(tr.opts.maxPending()))),
			ast.Blk(put),
			els,
		))
		return out

	case *ast.ReturnStmt:
		// A return is itself a context-switch point but never a useful
		// retirement point, so: yield; return.
		var out []ast.Stmt
		if tr.R > 1 {
			out = append(out, ast.CallDirect("", YieldFn))
		}
		return append(out, &ast.ReturnStmt{Value: tr.expr(s.Value), Pos: s.Pos})

	case *ast.BenignStmt:
		// Race-mode annotation; cb checks assertions only, so the body is
		// translated and the annotation disappears.
		return tr.block(s.Body).Stmts

	case *ast.ChoiceStmt:
		c := &ast.ChoiceStmt{Pos: s.Pos}
		for _, b := range s.Branches {
			c.Branches = append(c.Branches, tr.block(b))
		}
		return []ast.Stmt{c}

	case *ast.IterStmt:
		return []ast.Stmt{&ast.IterStmt{Body: tr.block(s.Body), Pos: s.Pos}}

	case *ast.SkipStmt:
		out := tr.prefix()
		return append(out, &ast.SkipStmt{Pos: s.Pos})

	case *ast.IfStmt, *ast.WhileStmt:
		panic("cbseq: sugar statement in core program")

	default:
		panic(fmt.Sprintf("cbseq: cannot translate statement %T", s))
	}
}

// atomicBody copies an atomic body without yield/retire instrumentation,
// still deferring asserts and rewriting function constants.
func (tr *transformer) atomicBody(b *ast.Block) *ast.Block {
	out := &ast.Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ast.Block:
			out.Stmts = append(out.Stmts, tr.atomicBody(s))
		case *ast.AssertStmt:
			out.Stmts = append(out.Stmts, deferAssert(s))
		case *ast.ChoiceStmt:
			c := &ast.ChoiceStmt{Pos: s.Pos}
			for _, br := range s.Branches {
				c.Branches = append(c.Branches, tr.atomicBody(br))
			}
			out.Stmts = append(out.Stmts, c)
		case *ast.IterStmt:
			out.Stmts = append(out.Stmts, &ast.IterStmt{Body: tr.atomicBody(s.Body), Pos: s.Pos})
		default:
			c := ast.CloneStmt(s)
			rewriteFuncLitsStmt(c)
			out.Stmts = append(out.Stmts, c)
		}
	}
	return out
}

// deferAssert turns assert(c) into if (!c) { err := 1 }.
func deferAssert(s *ast.AssertStmt) ast.Stmt {
	cond := rewriteFuncLitsExpr(ast.CloneExpr(s.Cond))
	ifs := ast.If(ast.Not(cond), ast.Blk(ast.Set(ErrVar, ast.I(1))), nil)
	ifs.Pos = s.Pos
	return ifs
}

// expr clones an expression, rewriting every function-name constant f to
// [[f]], so indirect calls through variables dispatch to translated code.
func (tr *transformer) expr(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	return rewriteFuncLitsExpr(ast.CloneExpr(e))
}

func (tr *transformer) exprs(es []ast.Expr) []ast.Expr {
	out := make([]ast.Expr, len(es))
	for i, e := range es {
		out[i] = tr.expr(e)
	}
	return out
}

func rewriteFuncLitsStmt(s ast.Stmt) {
	ast.WalkStmts(s, func(s ast.Stmt) bool {
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
	case *ast.UnaryExpr:
		e.X = rewriteFuncLitsExpr(e.X)
	case *ast.BinaryExpr:
		e.X = rewriteFuncLitsExpr(e.X)
		e.Y = rewriteFuncLitsExpr(e.Y)
	}
	return e
}

// wrapper generates __cbt_f, the ts entry for async target f: it parks
// the interrupted thread's view, re-enters the child's creation round,
// runs the body, and clears any retirement raise.
func (tr *transformer) wrapper(f *ast.Func) *ast.Func {
	params := append(append([]string(nil), f.Params...), "__cb_t0")
	var args []ast.Expr
	for _, p := range f.Params {
		args = append(args, ast.V(p))
	}
	body := ast.Blk(
		ast.CallDirect("", SaveFn),
		ast.Set(RoundVar, ast.V("__cb_t0")),
		ast.CallDirect("", LoadFn),
		ast.Call("", ast.Fn(TranslatedName(f.Name)), args...),
		ast.Set(RaiseVar, ast.B(false)),
	)
	return &ast.Func{Name: WrapperName(f.Name), Params: params, Body: body}
}

// roundSwitch builds if (round == 1) {arm(1)} else if (round == 2) ... for
// rounds lo..hi, with an empty final else.
func (tr *transformer) roundSwitch(lo, hi int, arm func(r int) []ast.Stmt) ast.Stmt {
	if lo > hi {
		return ast.Skip()
	}
	stmts := arm(lo)
	if len(stmts) == 0 {
		stmts = []ast.Stmt{ast.Skip()}
	}
	if lo == hi {
		return ast.If(ast.Eq(ast.V(RoundVar), ast.I(int64(lo))), ast.Blk(stmts...), nil)
	}
	return ast.If(ast.Eq(ast.V(RoundVar), ast.I(int64(lo))),
		ast.Blk(stmts...),
		ast.Blk(tr.roundSwitch(lo+1, hi, arm)))
}

// saveFunc: active shared globals -> cur[round].
func (tr *transformer) saveFunc() *ast.Func {
	body := ast.Blk(tr.roundSwitch(1, tr.R, func(r int) []ast.Stmt {
		var out []ast.Stmt
		for _, g := range tr.vg {
			out = append(out, ast.Set(curVar(r, g), ast.V(g)))
		}
		return out
	}))
	return &ast.Func{Name: SaveFn, Body: body}
}

// loadFunc: cur[round] -> active shared globals.
func (tr *transformer) loadFunc() *ast.Func {
	body := ast.Blk(tr.roundSwitch(1, tr.R, func(r int) []ast.Stmt {
		var out []ast.Stmt
		for _, g := range tr.vg {
			out = append(out, ast.Set(g, ast.V(curVar(r, g))))
		}
		return out
	}))
	return &ast.Func{Name: LoadFn, Body: body}
}

// guessFunc generates __cb_guess_r: on the first entry into round r,
// nondeterministically pick round r's entry snapshot for every shared
// global from its finite domain. The guess is stored twice — once
// immutably for the final linking check, once as the evolving round-r
// view. Guessing lazily (only for rounds actually entered) keeps runs
// that never reach round r free of its branching entirely.
func (tr *transformer) guessFunc(r int) *ast.Func {
	var inner []ast.Stmt
	inner = append(inner, ast.Set(usedVar(r), ast.I(1)))
	for _, g := range tr.vg {
		vals := tr.domains[g].values()
		if len(vals) == 1 {
			inner = append(inner, ast.Set(guessVar(r, g), vals[0]))
			continue
		}
		var branches []*ast.Block
		for _, v := range vals {
			branches = append(branches, ast.Blk(ast.Set(guessVar(r, g), v)))
		}
		inner = append(inner, ast.Choice(branches...))
	}
	for _, g := range tr.vg {
		inner = append(inner, ast.Set(curVar(r, g), ast.V(guessVar(r, g))))
	}
	body := ast.Blk(ast.If(ast.Eq(ast.V(usedVar(r)), ast.I(0)), ast.Blk(inner...), nil))
	return &ast.Func{Name: GuessFnPrefix + fmt.Sprint(r), Body: body}
}

// advanceFunc: one round advance — park the current view, materialize the
// next round's snapshot if this is its first entry, switch to it.
func (tr *transformer) advanceFunc() *ast.Func {
	body := ast.Blk(
		ast.CallDirect("", SaveFn),
		tr.roundSwitch(1, tr.R-1, func(r int) []ast.Stmt {
			return []ast.Stmt{ast.CallDirect("", GuessFnPrefix+fmt.Sprint(r+1))}
		}),
		ast.Set(RoundVar, ast.Add(ast.V(RoundVar), ast.I(1))),
		ast.CallDirect("", LoadFn),
	)
	return &ast.Func{Name: AdvanceFn, Body: body}
}

// yieldFunc: a nondeterministic number of round advances (zero or more,
// never past round R).
func (tr *transformer) yieldFunc() *ast.Func {
	body := ast.Blk(ast.Iter(ast.Blk(
		ast.Assume(ast.Bin("<", ast.V(RoundVar), ast.I(int64(tr.R)))),
		ast.CallDirect("", AdvanceFn),
	)))
	return &ast.Func{Name: YieldFn, Body: body}
}

// finFunc generates __cb_fin, run after every thread has completed: park
// the last view, then for every round that was entered assume its guessed
// entry snapshot equals the final values the previous round actually
// produced. Runs with wrong guesses die here — before the deferred
// assert — so only real interleavings can report a failure. (Entered
// rounds form a contiguous prefix 2..max, since guessing happens on
// advance.)
func (tr *transformer) finFunc() *ast.Func {
	var stmts []ast.Stmt
	stmts = append(stmts, ast.CallDirect("", SaveFn))
	for r := 2; r <= tr.R; r++ {
		var links []ast.Stmt
		for _, g := range tr.vg {
			links = append(links, ast.Assume(ast.Eq(ast.V(curVar(r-1, g)), ast.V(guessVar(r, g)))))
		}
		if len(links) == 0 {
			continue
		}
		stmts = append(stmts, ast.If(ast.Eq(ast.V(usedVar(r)), ast.I(1)), ast.Blk(links...), nil))
	}
	stmts = append(stmts, ast.Assert(ast.Eq(ast.V(ErrVar), ast.I(0))))
	return &ast.Func{Name: FinFn, Body: ast.Blk(stmts...)}
}

// driver generates the output's main: run [[main]], drain every deferred
// thread (each resuming at its creation round), then link and report.
func (tr *transformer) driver() *ast.Func {
	body := ast.Blk(
		ast.Set(RoundVar, ast.I(1)),
		// The raise flag must be a bool before the first `if (__cb_raise)`
		// check runs: globals start life as int 0, and lowering negates the
		// flag, which is a runtime error on a non-boolean.
		ast.Set(RaiseVar, ast.B(false)),
		ast.CallDirect("", TranslatedName("main")),
		ast.Set(RaiseVar, ast.B(false)),
		ast.While(ast.Bin(">", &ast.TsSizeExpr{}, ast.I(0)), ast.Blk(
			&ast.TsDispatchStmt{},
			ast.Set(RaiseVar, ast.B(false)),
		)),
		ast.CallDirect("", FinFn),
	)
	return &ast.Func{Name: "main", Body: body}
}
