// Package boolcheck is a summary-based interprocedural reachability
// checker for the pointer-free, finite-data fragment of the sequential
// language — the architecture of SLAM's Bebop engine and the basis of the
// KISS paper's complexity claim: "For a sequential program with boolean
// variables, the complexity of model checking (or interprocedural dataflow
// analysis) is O(|C| · 2^(g+l))" (Section 4), citing Sharir-Pnueli [37]
// and Reps-Horwitz-Sagiv [34].
//
// Where the explicit-state sequential check (package concheck at context
// bound 0) explores whole configurations (stack included) and therefore
// diverges on unbounded recursion, boolcheck tabulates *procedure
// summaries*: path edges (proc, entry valuation, pc, current valuation)
// and summary edges (proc, entry valuation) -> (exit globals, return
// value). Recursive programs with finite data terminate — the
// decidability result the paper leans on.
//
// boolcheck has no interpreter of its own: every instruction but a
// return is executed by sem.Step, the explicit-state search's step
// function, so failures, blocking and the ts invariants are sem's. Only
// calls, dispatches and returns are interprocedural edges of the
// tabulation.
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
	"repro/internal/concheck"
	"repro/internal/sem"
	"repro/internal/stats"
)

// The verdicts are concheck's, so both sequential engines report one type.
const (
	Safe          = concheck.Safe
	Error         = concheck.Error
	ResourceBound = concheck.ResourceBound
)

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
// conflates all call stacks reaching it); use the explicit-state check
// (concheck) when a trace is needed.
type Result struct {
	Verdict   concheck.Verdict
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
		return fmt.Sprintf("resource bound exhausted (%s; path edges=%d)", stats.BoundName(r.Reason), r.PathEdges)
	}
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

// exit is one summarized outcome of a procedure instance: the state at
// its return, whose globals and ts are the exit's, and the return value.
type exit struct {
	s   *sem.State
	ret sem.Value
}

// exits are one procedure instance's summarized exits: a dedupe set on
// exitKey, and the exits in discovery order, which is the order call
// applies them in, so the worklist order and every result are the same
// on every run.
type exits struct {
	seen map[string]bool
	list []exit
}

func exitKey(x exit) string {
	var b strings.Builder
	b.WriteString(sharedKey(x.s.Globals, x.s.Ts))
	b.WriteString("R:")
	encodeVal(&b, x.ret)
	return b.String()
}

// pathEdge is a tabulated reachability fact: a procedure instance and a
// one-thread, one-frame state of it (globals, ts, and the procedure's
// frame at its PC).
type pathEdge struct {
	entry entryKey
	s     *sem.State
}

// frame returns the edge's procedure frame.
func (pe pathEdge) frame() *sem.Frame { return pe.s.Threads[0].Frames[0] }

// callSite records a suspended caller waiting on a callee summary.
type callSite struct {
	caller pathEdge // the caller's resume site, its PC past the call
	result string   // variable receiving the return value ("" if none)
}

type checker struct {
	opts Options
	res  *Result

	// visited path edges: entry -> "pc|locals|shared" set
	visited map[entryKey]map[string]bool
	// summaries: entry -> its exits
	summaries map[entryKey]*exits
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
		opts:      opts,
		res:       &Result{},
		visited:   map[entryKey]map[string]bool{},
		summaries: map[entryKey]*exits{},
		callers:   map[entryKey][]callSite{},
	}

	init := sem.NewState(c)
	entry := entryKey{fn: "main", shared: sharedKey(init.Globals, nil), args: ""}
	ck.enqueue(pathEdge{entry: entry, s: init})

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
	for _, xs := range ck.summaries {
		ck.res.Summaries += len(xs.list)
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

func (ck *checker) enqueue(pe pathEdge) {
	fr := pe.frame()
	key := fmt.Sprintf("%d|%s|%s", fr.PC, localsKey(fr.Locals), sharedKey(pe.s.Globals, pe.s.Ts))
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

// step processes one path edge. A return ends the procedure instance in
// a summary; every other instruction is sem.Step's, whose outcomes either
// stay in the procedure or, after a call or dispatch, hold the callee's
// frame on top of the caller's.
func (ck *checker) step(pe pathEdge) *sem.Failure {
	fr := pe.frame()
	if fr.PC >= len(fr.CF.Code) {
		return ck.addSummary(pe, sem.UnitV()) // implicit bare return
	}
	if in := &fr.CF.Code[fr.PC]; in.Op == sem.OpReturn {
		rv, err := pe.s.ReturnValue(fr, in)
		if err != nil {
			return &sem.Failure{Kind: sem.RuntimeFail, Pos: err.Pos, Msg: err.Msg, Fn: pe.entry.fn}
		}
		return ck.addSummary(pe, rv)
	}
	sr := sem.Step(pe.s, 0)
	if sr.Failure != nil {
		return sr.Failure
	}
	for _, ns := range sr.Outcomes {
		if len(ns.Threads[0].Frames) == 1 {
			ck.enqueue(pathEdge{entry: pe.entry, s: ns})
			continue
		}
		if f := ck.call(pe.entry, ns); f != nil {
			return f
		}
	}
	return nil
}

// call creates the interprocedural edge of ns, a successor that has just
// entered a callee: suspend the caller at its resume site, start (or
// reuse) the callee instance, and apply any already-computed summaries.
func (ck *checker) call(caller entryKey, ns *sem.State) *sem.Failure {
	resume, entry := ns.SplitCall()
	cfr := entry.Threads[0].Frames[0]
	calleeEntry := entryKey{
		fn:     cfr.CF.Fn.Name,
		shared: sharedKey(entry.Globals, entry.Ts),
		args:   localsKey(cfr.Locals[:cfr.CF.NumParam]),
	}
	site := callSite{caller: pathEdge{entry: caller, s: resume}, result: cfr.Result}
	ck.callers[calleeEntry] = append(ck.callers[calleeEntry], site)

	// Start the callee instance if new.
	ck.enqueue(pathEdge{entry: calleeEntry, s: entry})

	// Apply existing summaries, in discovery order.
	if xs := ck.summaries[calleeEntry]; xs != nil {
		for _, x := range xs.list {
			if f := ck.applySummary(site, x); f != nil {
				return f
			}
		}
	}
	return nil
}

// addSummary records a procedure exit and resumes every suspended caller.
func (ck *checker) addSummary(pe pathEdge, ret sem.Value) *sem.Failure {
	x := exit{s: pe.s, ret: ret}
	key := exitKey(x)
	xs := ck.summaries[pe.entry]
	if xs == nil {
		xs = &exits{seen: map[string]bool{}}
		ck.summaries[pe.entry] = xs
	}
	if xs.seen[key] {
		return nil
	}
	xs.seen[key] = true
	xs.list = append(xs.list, x)
	for _, site := range ck.callers[pe.entry] {
		if f := ck.applySummary(site, x); f != nil {
			return f
		}
	}
	return nil
}

// applySummary resumes a caller after the call with the callee's exit
// effect applied.
func (ck *checker) applySummary(site callSite, x exit) *sem.Failure {
	ns, err := site.caller.s.Resume(x.s, site.result, x.ret)
	if err != nil {
		return &sem.Failure{Kind: sem.RuntimeFail, Pos: err.Pos, Msg: err.Msg, Fn: site.caller.entry.fn}
	}
	ck.enqueue(pathEdge{entry: site.caller.entry, s: ns})
	return nil
}
