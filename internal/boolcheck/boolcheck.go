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
// Every key is a 64-bit sem fingerprint, as in the explicit-state
// searches: a procedure instance is named by the fingerprint of its entry
// state, a path edge by that mixed with its state's, and an exit by the
// fingerprint of its globals and ts mixed with the return value. A
// collision merges two facts, so it can only lose a path edge or an exit:
// a missed state, never a false alarm.
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

	"repro/internal/ast"
	"repro/internal/concheck"
	"repro/internal/sem"
	"repro/internal/stats"
	"repro/internal/visited"
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

// exit is one summarized outcome of a procedure instance: the state at
// its return, whose globals and ts are the exit's, and the return value.
type exit struct {
	s   *sem.State
	ret sem.Value
}

// instance is a procedure instance: a procedure entered at one state,
// named by the fingerprint of that entry state (function, globals, ts and
// actuals). It holds its exits in discovery order, which is the order
// call applies them in, so the worklist order and every result are the
// same on every run; the set of their keys; and the call sites suspended
// on it.
type instance struct {
	fp      uint64
	exits   []exit
	seen    visited.Table
	callers []callSite
}

// pathEdge is a tabulated reachability fact: a procedure instance and a
// one-thread, one-frame state of it (globals, ts, and the procedure's
// frame at its PC).
type pathEdge struct {
	inst *instance
	s    *sem.State
}

// frame returns the edge's procedure frame.
func (pe pathEdge) frame() *sem.Frame { return pe.s.Threads[0].Frames[0] }

// callSite records a suspended caller waiting on a callee summary.
type callSite struct {
	caller pathEdge // the caller's resume site, its PC past the call
	result string   // variable receiving the return value ("" if none)
}

type checker struct {
	opts   Options
	res    *Result
	hasher *sem.FPHasher

	instances map[uint64]*instance // by entry-state fingerprint
	edges     visited.Table        // path-edge keys (see enqueue)

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
		hasher:    sem.NewFPHasher(),
		instances: map[uint64]*instance{},
	}

	init := sem.NewState(c)
	ck.enqueue(pathEdge{inst: ck.instance(init), s: init})

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
	for _, inst := range ck.instances {
		ck.res.Summaries += len(inst.exits)
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

// instance returns the procedure instance entered at the one-frame state
// entry, creating it on first sight.
func (ck *checker) instance(entry *sem.State) *instance {
	fp := ck.hasher.Hash(entry)
	inst := ck.instances[fp]
	if inst == nil {
		inst = &instance{fp: fp}
		ck.instances[fp] = inst
	}
	return inst
}

// enqueue adds pe to the worklist unless it is tabulated already. Its key
// mixes the instance's fingerprint, tagged first, with the state's: the
// untagged Mix64(fp, fp) of an instance's entry edge would be one
// constant for every instance (see sem.Mix64).
func (ck *checker) enqueue(pe pathEdge) {
	if ck.edges.Seen(sem.Mix64(sem.Mix64(pe.inst.fp, 'E'), ck.hasher.Hash(pe.s))) {
		return
	}
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
			return &sem.Failure{Kind: sem.RuntimeFail, Pos: err.Pos, Msg: err.Msg, Fn: fr.CF.Fn.Name}
		}
		return ck.addSummary(pe, rv)
	}
	sr := sem.Step(pe.s, 0)
	if sr.Failure != nil {
		return sr.Failure
	}
	for _, ns := range sr.Outcomes {
		if len(ns.Threads[0].Frames) == 1 {
			ck.enqueue(pathEdge{inst: pe.inst, s: ns})
			continue
		}
		if f := ck.call(pe.inst, ns); f != nil {
			return f
		}
	}
	return nil
}

// call creates the interprocedural edge of ns, a successor that has just
// entered a callee: suspend the caller at its resume site, start (or
// reuse) the callee instance, and apply any already-computed summaries.
func (ck *checker) call(caller *instance, ns *sem.State) *sem.Failure {
	resume, entry, result := ns.SplitCall()
	callee := ck.instance(entry)
	site := callSite{caller: pathEdge{inst: caller, s: resume}, result: result}
	callee.callers = append(callee.callers, site)

	// Start the callee instance if new.
	ck.enqueue(pathEdge{inst: callee, s: entry})

	// Apply existing summaries, in discovery order.
	for _, x := range callee.exits {
		if f := ck.applySummary(site, x); f != nil {
			return f
		}
	}
	return nil
}

// addSummary records a procedure exit and resumes every suspended caller.
// An exit is keyed by its globals and ts alone, mixed with the return
// value: the exit state's locals are the callee's and no caller sees them.
func (ck *checker) addSummary(pe pathEdge, ret sem.Value) *sem.Failure {
	shared := ck.hasher.Hash(&sem.State{C: pe.s.C, Globals: pe.s.Globals, Ts: pe.s.Ts})
	if pe.inst.seen.Seen(sem.Mix64(sem.Mix64(shared, uint64(ret.Kind)), uint64(ret.I))) {
		return nil
	}
	x := exit{s: pe.s, ret: ret}
	pe.inst.exits = append(pe.inst.exits, x)
	for _, site := range pe.inst.callers {
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
		return &sem.Failure{Kind: sem.RuntimeFail, Pos: err.Pos, Msg: err.Msg, Fn: site.caller.frame().CF.Fn.Name}
	}
	ck.enqueue(pathEdge{inst: site.caller.inst, s: ns})
	return nil
}
