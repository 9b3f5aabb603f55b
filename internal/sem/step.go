package sem

import (
	"fmt"

	"repro/internal/ast"
)

// FailKind classifies how a program "goes wrong".
type FailKind int

const (
	// AssertFail is a violated assert statement. Under the race-checking
	// instrumentation, the asserts inside check_r/check_w fail exactly on
	// conflicting accesses, so races also surface as AssertFail.
	AssertFail FailKind = iota
	// RuntimeFail is a dynamic type or memory error (null dereference,
	// arithmetic on non-integers, call of a non-function, ...).
	RuntimeFail
)

func (k FailKind) String() string {
	if k == AssertFail {
		return "assertion failure"
	}
	return "runtime error"
}

// Failure describes a step that goes wrong.
type Failure struct {
	Kind     FailKind
	Pos      ast.Pos
	Msg      string
	ThreadID int
	// Fn is the function executing the failing statement.
	Fn string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s: %s: %s (thread %d)", f.Pos, f.Kind, f.Msg, f.ThreadID)
}

// EventKind classifies trace events.
type EventKind int

const (
	EvStmt EventKind = iota
	EvCall
	EvReturn
	EvAsync
	EvDispatch // sequential semantics: a pending thread scheduled from ts
)

// Event describes one executed step, for counterexample traces.
type Event struct {
	Kind     EventKind
	ThreadID int
	Fn       string // function executing the step
	Pos      ast.Pos
	Text     string
	Callee   string // EvCall/EvAsync/EvDispatch: target function
}

func (e Event) String() string {
	return fmt.Sprintf("[t%d %s %s] %s", e.ThreadID, e.Fn, e.Pos, e.Text)
}

// Outcome is one successor configuration together with the event that
// produced it.
type Outcome struct {
	State *State
	Event Event
}

// StepResult is the set of successors of one thread's next instruction.
type StepResult struct {
	Outcomes []Outcome
	// Failure, if non-nil, means some execution of the instruction goes
	// wrong (assertion failure or runtime error). Other branches may still
	// produce Outcomes.
	Failure *Failure
	// Blocked means the thread cannot currently proceed (a false assume,
	// or an atomic statement all of whose internal paths block). In the
	// concurrent semantics another thread may later unblock it.
	Blocked bool
}

// MaxAtomicSteps bounds the internal path exploration of a single atomic
// statement, guarding against iter-divergence inside atomic bodies.
const MaxAtomicSteps = 100000

// resolveJumps slides the frame's PC over consecutive unconditional jumps
// so that pure control transfers do not surface as scheduling points.
func resolveJumps(fr *Frame) {
	fr.PC = resolvePC(fr.CF.Code, fr.PC)
}

// resolvePC returns the first instruction at or after pc, following
// unconditional jumps, that is not itself an unconditional jump.
func resolvePC(code []Instr, pc int) int {
	for pc < len(code) && code[pc].Op == OpJump {
		pc = code[pc].Targets[0]
	}
	return pc
}

// Step computes the successors of thread ti in state s. The input state is
// never mutated. A terminated thread yields an empty result.
func Step(s *State, ti int) StepResult {
	return step(s, ti, false)
}

// step is Step, except that with owned set the caller owns s outright: a
// fold's own intermediate state, which no search references. An
// instruction with one successor then updates s in place and returns s
// itself as the outcome, saving the clone and the path-copies of every
// component the previous step already owned.
// Instructions with several successors still clone each one. If an owned
// step fails, s may be left partly updated and must be discarded.
func step(s *State, ti int, owned bool) StepResult {
	t := s.Threads[ti]
	fr := t.Top()
	if fr == nil {
		return StepResult{}
	}
	tid := t.ID

	// Implicit bare return at the end of the code.
	if fr.PC >= len(fr.CF.Code) {
		return doReturn(s, ti, UnitV(), ast.Pos{}, fr.CF.Fn.Name, owned)
	}

	in := &fr.CF.Code[fr.PC]
	ev := Event{Kind: EvStmt, ThreadID: tid, Fn: fr.CF.Fn.Name, Pos: in.Pos, Text: in.Text()}

	// clone returns the successor of a single-successor instruction
	// together with its top frame already owned, so the per-opcode bodies
	// below may mutate the frame in place: s itself when the caller owns
	// it, a COW clone otherwise. fork always clones, for instructions with
	// several successors. A frame pointer is invalidated by any further
	// Clone of ns (the clone revokes in-place write rights); none of the
	// bodies clone ns again.
	fork := func() (*State, *Frame) {
		ns := s.Clone()
		return ns, ns.MutableTopFrame(ti)
	}
	clone := fork
	if owned {
		clone = func() (*State, *Frame) { return s, s.MutableTopFrame(ti) }
	}
	fail := func(kind FailKind, pos ast.Pos, msg string) StepResult {
		return StepResult{Failure: &Failure{Kind: kind, Pos: pos, Msg: msg, ThreadID: tid, Fn: fr.CF.Fn.Name}}
	}

	switch in.Op {
	case OpSkip:
		ns, nfr := clone()
		nfr.PC++
		resolveJumps(nfr)
		return StepResult{Outcomes: []Outcome{{State: ns, Event: ev}}}

	case OpAssign:
		ns, nfr := clone()
		v, err := ns.Eval(nfr, in.Rhs)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		cell, err := ns.lvalueCell(nfr, in.Lhs)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if err := ns.Store(cell, v, in.Pos); err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		nfr.PC++
		resolveJumps(nfr)
		return StepResult{Outcomes: []Outcome{{State: ns, Event: ev}}}

	case OpAssert:
		ok, err := s.evalBool(fr, in.Cond)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if !ok {
			return fail(AssertFail, in.Pos, "assertion violated: "+ast.PrintExpr(in.Cond))
		}
		ns, nfr := clone()
		nfr.PC++
		resolveJumps(nfr)
		return StepResult{Outcomes: []Outcome{{State: ns, Event: ev}}}

	case OpAssume:
		ok, err := s.evalBool(fr, in.Cond)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if !ok {
			return StepResult{Blocked: true}
		}
		ns, nfr := clone()
		nfr.PC++
		resolveJumps(nfr)
		return StepResult{Outcomes: []Outcome{{State: ns, Event: ev}}}

	case OpJump:
		// Normally slid over by resolveJumps; can only be the entry
		// instruction of a function whose body begins with control flow.
		ns, nfr := clone()
		nfr.PC = in.Targets[0]
		resolveJumps(nfr)
		return StepResult{Outcomes: []Outcome{{State: ns, Event: ev}}}

	case OpNondetJump:
		var outs []Outcome
		for _, target := range in.Targets {
			ns, nfr := fork()
			nfr.PC = target
			resolveJumps(nfr)
			outs = append(outs, Outcome{State: ns, Event: ev})
		}
		return StepResult{Outcomes: outs}

	case OpCall:
		ns, nfr := clone()
		fv, err := ns.Eval(nfr, in.Fn)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if fv.Kind != KFunc {
			return fail(RuntimeFail, in.Pos, fmt.Sprintf("call of non-function value %s", fv.Text(ns.C)))
		}
		callee := ns.C.funcDef[fv.I]
		if callee == nil {
			return fail(RuntimeFail, in.Pos, fmt.Sprintf("call of undefined function %q", fv.Fn(ns.C)))
		}
		if len(in.Args) != callee.NumParam {
			return fail(RuntimeFail, in.Pos,
				fmt.Sprintf("call of %q with %d arguments, want %d", fv.Fn(ns.C), len(in.Args), callee.NumParam))
		}
		args := make([]Value, len(in.Args))
		for i, a := range in.Args {
			av, err := ns.Eval(nfr, a)
			if err != nil {
				return fail(RuntimeFail, err.Pos, err.Msg)
			}
			args[i] = av
		}
		nfr.PC++ // resume after the call on return
		resolveJumps(nfr)
		ns.pushFrame(ti, ns.newFrame(callee, args, in.Result))
		cev := ev
		cev.Kind = EvCall
		cev.Callee = callee.Fn.Name
		return StepResult{Outcomes: []Outcome{{State: ns, Event: cev}}}

	case OpAsync:
		ns, nfr := clone()
		fv, err := ns.Eval(nfr, in.Fn)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if fv.Kind != KFunc {
			return fail(RuntimeFail, in.Pos, fmt.Sprintf("async call of non-function value %s", fv.Text(ns.C)))
		}
		callee := ns.C.funcDef[fv.I]
		if callee == nil {
			return fail(RuntimeFail, in.Pos, fmt.Sprintf("async call of undefined function %q", fv.Fn(ns.C)))
		}
		if len(in.Args) != callee.NumParam {
			return fail(RuntimeFail, in.Pos,
				fmt.Sprintf("async call of %q with %d arguments, want %d", fv.Fn(ns.C), len(in.Args), callee.NumParam))
		}
		args := make([]Value, len(in.Args))
		for i, a := range in.Args {
			av, err := ns.Eval(nfr, a)
			if err != nil {
				return fail(RuntimeFail, err.Pos, err.Msg)
			}
			args[i] = av
		}
		nfr.PC++
		resolveJumps(nfr)
		newT := &Thread{ID: ns.nextThreadID, Frames: []*Frame{ns.newFrame(callee, args, "")}}
		ns.nextThreadID++
		ns.appendThread(newT)
		aev := ev
		aev.Kind = EvAsync
		aev.Callee = callee.Fn.Name
		return StepResult{Outcomes: []Outcome{{State: ns, Event: aev}}}

	case OpReturn:
		var rv Value = UnitV()
		if in.Value != nil {
			v, err := s.Eval(fr, in.Value)
			if err != nil {
				return fail(RuntimeFail, err.Pos, err.Msg)
			}
			rv = v
		}
		return doReturn(s, ti, rv, in.Pos, fr.CF.Fn.Name, owned)

	case OpAtomic:
		return stepAtomic(s, ti, in, ev, owned)

	case OpTsPut:
		ns, nfr := clone()
		fv, err := ns.Eval(nfr, in.Fn)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if fv.Kind != KFunc {
			return fail(RuntimeFail, in.Pos, fmt.Sprintf("__ts_put of non-function value %s", fv.Text(ns.C)))
		}
		args := make([]Value, len(in.Args))
		for i, a := range in.Args {
			av, err := ns.Eval(nfr, a)
			if err != nil {
				return fail(RuntimeFail, err.Pos, err.Msg)
			}
			args[i] = av
		}
		if len(ns.Ts) >= ns.C.Prog.MaxTS {
			return fail(RuntimeFail, in.Pos, "__ts_put on full ts (transformation invariant violated)")
		}
		name := fv.Fn(ns.C)
		ns.appendTs(Pending{Fn: name, Args: args})
		nfr.PC++
		resolveJumps(nfr)
		pev := ev
		pev.Callee = name
		return StepResult{Outcomes: []Outcome{{State: ns, Event: pev}}}

	case OpTsDispatch:
		if len(s.Ts) == 0 {
			return fail(RuntimeFail, in.Pos, "__ts_dispatch on empty ts (transformation invariant violated)")
		}
		// Deduplicate identical pending entries: dispatching either of two
		// equal entries yields the same successor.
		var outs []Outcome
		seen := map[string]bool{}
		for i := range s.Ts {
			key := s.Ts[i].Text(s.C)
			if seen[key] {
				continue
			}
			seen[key] = true
			ns, nfr := fork()
			p := ns.removeTs(i)
			callee, ok := ns.C.Funcs[p.Fn]
			if !ok {
				return fail(RuntimeFail, in.Pos, fmt.Sprintf("__ts_dispatch of undefined function %q", p.Fn))
			}
			nfr.PC++
			resolveJumps(nfr)
			ns.pushFrame(ti, ns.newFrame(callee, p.Args, ""))
			dev := ev
			dev.Kind = EvDispatch
			dev.Callee = p.Fn
			outs = append(outs, Outcome{State: ns, Event: dev})
		}
		return StepResult{Outcomes: outs}
	}
	return fail(RuntimeFail, in.Pos, fmt.Sprintf("unknown opcode %d", in.Op))
}

// doReturn pops the top frame of thread ti, delivering the return value to
// the caller's result variable if any. An owned s is updated in place.
func doReturn(s *State, ti int, rv Value, pos ast.Pos, fnName string, owned bool) StepResult {
	tid := s.Threads[ti].ID
	ns := s
	if !owned {
		ns = s.Clone()
	}
	top := ns.popFrame(ti)
	result := top.Result
	if caller := ns.Threads[ti].Top(); caller != nil && result != "" {
		cell, err := ns.lookupVar(caller, result, pos)
		if err != nil {
			return StepResult{Failure: &Failure{Kind: RuntimeFail, Pos: pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}}
		}
		if err := ns.Store(cell, rv, pos); err != nil {
			return StepResult{Failure: &Failure{Kind: RuntimeFail, Pos: pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}}
		}
	}
	ev := Event{Kind: EvReturn, ThreadID: tid, Fn: fnName, Pos: pos, Text: "return " + rv.Text(s.C)}
	return StepResult{Outcomes: []Outcome{{State: ns, Event: ev}}}
}

// stepAtomic executes an atomic block as a single step: all internal paths
// (atomic bodies may contain choice and iter) are explored; each completed
// path yields one successor. A path reaching a false assume blocks; if all
// paths block, the whole atomic blocks and the thread retries later, which
// gives atomic{assume(*l == 0); *l = 1} the intended test-and-set
// semantics. A path that fails an assert or goes wrong dynamically
// surfaces as the step's Failure. An owned s becomes the first path's
// state; further paths clone it when they branch.
func stepAtomic(s *State, ti int, in *Instr, ev Event, owned bool) StepResult {
	tid := s.Threads[ti].ID
	fnName := s.Threads[ti].Top().CF.Fn.Name
	type workItem struct {
		st *State
		pc int
	}
	start := s
	if !owned {
		start = s.Clone()
	}
	work := []workItem{{st: start, pc: 0}}
	var outs []Outcome
	var failure *Failure
	steps := 0
	for len(work) > 0 {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		st, pc := item.st, item.pc
		// Own the top frame for the whole path so Stores through CLocal
		// cells and the commit below hit it in place. Re-acquired after
		// any mid-path Clone, which revokes the ownership.
		fr := st.MutableTopFrame(ti)
		for {
			steps++
			if steps > MaxAtomicSteps {
				return StepResult{Failure: &Failure{Kind: RuntimeFail, Pos: in.Pos,
					Msg: "atomic body exceeds step bound (divergent iter inside atomic?)", ThreadID: tid, Fn: fnName}}
			}
			if pc >= len(in.Atomic) {
				// Path complete: commit by advancing past the atomic.
				fr.PC++
				resolveJumps(fr)
				outs = append(outs, Outcome{State: st, Event: ev})
				break
			}
			sub := &in.Atomic[pc]
			switch sub.Op {
			case OpSkip:
				pc++
				continue
			case OpJump:
				pc = sub.Targets[0]
				continue
			case OpNondetJump:
				for _, tgt := range sub.Targets[1:] {
					work = append(work, workItem{st: st.Clone(), pc: tgt})
				}
				fr = st.MutableTopFrame(ti)
				pc = sub.Targets[0]
				continue
			case OpAssign:
				v, err := st.Eval(fr, sub.Rhs)
				if err != nil {
					failure = &Failure{Kind: RuntimeFail, Pos: err.Pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}
				} else if cell, err := st.lvalueCell(fr, sub.Lhs); err != nil {
					failure = &Failure{Kind: RuntimeFail, Pos: err.Pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}
				} else if err := st.Store(cell, v, sub.Pos); err != nil {
					failure = &Failure{Kind: RuntimeFail, Pos: err.Pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}
				} else {
					pc++
					continue
				}
			case OpAssert:
				ok, err := st.evalBool(fr, sub.Cond)
				if err != nil {
					failure = &Failure{Kind: RuntimeFail, Pos: err.Pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}
				} else if !ok {
					failure = &Failure{Kind: AssertFail, Pos: sub.Pos,
						Msg: "assertion violated: " + ast.PrintExpr(sub.Cond), ThreadID: tid, Fn: fnName}
				} else {
					pc++
					continue
				}
			case OpAssume:
				ok, err := st.evalBool(fr, sub.Cond)
				if err != nil {
					failure = &Failure{Kind: RuntimeFail, Pos: err.Pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}
				} else if !ok {
					// This path blocks; abandon it.
					break
				} else {
					pc++
					continue
				}
			default:
				failure = &Failure{Kind: RuntimeFail, Pos: sub.Pos,
					Msg: "illegal statement inside atomic (call/return/async)", ThreadID: tid, Fn: fnName}
			}
			break
		}
		if failure != nil {
			return StepResult{Outcomes: outs, Failure: failure}
		}
	}
	if len(outs) == 0 {
		return StepResult{Blocked: true}
	}
	return StepResult{Outcomes: outs}
}
