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

// StepResult is the set of successors of one thread's next instruction.
type StepResult struct {
	Outcomes []*State
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
// never mutated. A terminated thread yields an empty result. Step builds
// no events: the search never reads them.
func Step(s *State, ti int) StepResult {
	return step(s, ti, false, nil, nil)
}

// StepEvents is Step that also returns the event of each outcome:
// events[k] belongs to Outcomes[k]. Only trace replay calls it, once per
// step of a reported counterexample.
func StepEvents(s *State, ti int) (StepResult, []Event) {
	var k eventSink
	sr := step(s, ti, false, nil, &k)
	// A step that fails drops the outcomes it built before failing; their
	// events go with them.
	return sr, k.evs[:len(sr.Outcomes)]
}

// eventSink collects the events of a step's outcomes, one per outcome in
// outcome order. The search steps with a nil sink, on which both methods
// return at once, so no event is built and no text rendered off replay.
type eventSink struct {
	evs []Event
}

// instr records the event of executing in: EvStmt, or the call, fork or
// dispatch of callee.
func (k *eventSink) instr(tid int, fn string, in *Instr, kind EventKind, callee string) {
	if k == nil {
		return
	}
	k.evs = append(k.evs, Event{Kind: kind, ThreadID: tid, Fn: fn, Pos: in.Pos, Text: in.Text(), Callee: callee})
}

// ret records the event of fn returning rv.
func (k *eventSink) ret(tid int, fn string, pos ast.Pos, rv Value, c *Compiled) {
	if k == nil {
		return
	}
	k.evs = append(k.evs, Event{Kind: EvReturn, ThreadID: tid, Fn: fn, Pos: pos, Text: "return " + rv.Text(c)})
}

// step is Step, except that with owned set the caller owns s outright: a
// fold's own intermediate state, or a base a search handed to
// Folder.FoldOwned, which nothing else references. An
// instruction with one successor then updates s in place and returns s
// itself as the outcome, saving the clone and the path-copies of every
// component the previous step already owned.
// Instructions with several successors still clone each one. If an owned
// step fails, s may be left partly updated and must be discarded.
//
// The outcomes are appended to outs, which is empty: a fold passes a
// reused buffer and so allocates no slice per step. evs, when non-nil,
// receives one event per outcome.
func step(s *State, ti int, owned bool, outs []*State, evs *eventSink) StepResult {
	t := s.Threads[ti]
	fr := t.Top()
	if fr == nil {
		return StepResult{}
	}
	tid := t.ID
	fn := fr.CF.Fn.Name

	// Implicit bare return at the end of the code.
	if fr.PC >= len(fr.CF.Code) {
		return doReturn(s, ti, UnitV(), ast.Pos{}, fn, owned, outs, evs)
	}

	in := &fr.CF.Code[fr.PC]

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
		return StepResult{Failure: &Failure{Kind: kind, Pos: pos, Msg: msg, ThreadID: tid, Fn: fn}}
	}
	// one is the result of an instruction with the single successor ns,
	// whose event has the given kind and callee.
	one := func(ns *State, kind EventKind, callee string) StepResult {
		evs.instr(tid, fn, in, kind, callee)
		return StepResult{Outcomes: append(outs, ns)}
	}

	switch in.Op {
	case OpSkip:
		ns, nfr := clone()
		nfr.PC++
		resolveJumps(nfr)
		return one(ns, EvStmt, "")

	case OpAssign:
		ns, nfr := clone()
		if err := ns.assign(nfr, in); err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		nfr.PC++
		resolveJumps(nfr)
		return one(ns, EvStmt, "")

	case OpAssert:
		ok, err := s.cond(fr, in.x)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if !ok {
			return fail(AssertFail, in.Pos, in.violation())
		}
		ns, nfr := clone()
		nfr.PC++
		resolveJumps(nfr)
		return one(ns, EvStmt, "")

	case OpAssume:
		ok, err := s.cond(fr, in.x)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if !ok {
			return StepResult{Blocked: true}
		}
		ns, nfr := clone()
		nfr.PC++
		resolveJumps(nfr)
		return one(ns, EvStmt, "")

	case OpJump:
		// Normally slid over by resolveJumps; can only be the entry
		// instruction of a function whose body begins with control flow.
		ns, nfr := clone()
		nfr.PC = in.Targets[0]
		resolveJumps(nfr)
		return one(ns, EvStmt, "")

	case OpNondetJump:
		for _, target := range in.Targets {
			ns, nfr := fork()
			nfr.PC = target
			resolveJumps(nfr)
			outs = append(outs, ns)
			evs.instr(tid, fn, in, EvStmt, "")
		}
		return StepResult{Outcomes: outs}

	case OpCall:
		ns, nfr := clone()
		_, callee, args, err := ns.evalCall(nfr, in)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		nfr.PC++ // resume after the call on return
		resolveJumps(nfr)
		ns.pushFrame(ti, ns.newFrame(callee, args, in.Result))
		return one(ns, EvCall, callee.Fn.Name)

	case OpAsync:
		ns, nfr := clone()
		_, callee, args, err := ns.evalCall(nfr, in)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		nfr.PC++
		resolveJumps(nfr)
		newT := &Thread{ID: ns.nextThreadID, Frames: []*Frame{ns.newFrame(callee, args, "")}}
		ns.nextThreadID++
		ns.appendThread(newT)
		return one(ns, EvAsync, callee.Fn.Name)

	case OpReturn:
		rv, err := s.ReturnValue(fr, in)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		return doReturn(s, ti, rv, in.Pos, fn, owned, outs, evs)

	case OpAtomic:
		return stepAtomic(s, ti, in, owned, outs, evs)

	case OpTsPut:
		ns, nfr := clone()
		fv, _, args, err := ns.evalCall(nfr, in)
		if err != nil {
			return fail(RuntimeFail, err.Pos, err.Msg)
		}
		if len(ns.Ts) >= ns.C.Prog.MaxTS {
			return fail(RuntimeFail, in.Pos, "__ts_put on full ts (transformation invariant violated)")
		}
		name := fv.Fn(ns.C)
		ns.appendTs(Pending{Fn: name, Args: args})
		nfr.PC++
		resolveJumps(nfr)
		return one(ns, EvStmt, name)

	case OpTsDispatch:
		if len(s.Ts) == 0 {
			return fail(RuntimeFail, in.Pos, "__ts_dispatch on empty ts (transformation invariant violated)")
		}
	dispatch:
		for i := range s.Ts {
			// Dispatching either of two equal entries yields the same
			// successor. Value.Text is injective on the value word, so
			// word equality is the text equality the ts order uses.
			for _, p := range s.Ts[:i] {
				if p.equal(s.Ts[i]) {
					continue dispatch
				}
			}
			ns, nfr := fork()
			p := ns.removeTs(i)
			callee, ok := ns.C.Funcs[p.Fn]
			if !ok {
				return fail(RuntimeFail, in.Pos, fmt.Sprintf("__ts_dispatch of undefined function %q", p.Fn))
			}
			nfr.PC++
			resolveJumps(nfr)
			ns.pushFrame(ti, ns.newFrame(callee, p.Args, ""))
			outs = append(outs, ns)
			evs.instr(tid, fn, in, EvDispatch, p.Fn)
		}
		return StepResult{Outcomes: outs}
	}
	return fail(RuntimeFail, in.Pos, fmt.Sprintf("unknown opcode %d", in.Op))
}

// evalCall evaluates the callee and the arguments of a call, async or
// __ts_put in frame fr. A call or async must name a defined function that
// takes in.nargs parameters; __ts_put needs only a function value, and
// its dispatch resolves the name. The callee is nil for an undefined
// __ts_put target.
func (s *State) evalCall(fr *Frame, in *Instr) (Value, *CompiledFunc, []Value, *RuntimeError) {
	what := "call"
	switch in.Op {
	case OpAsync:
		what = "async call"
	case OpTsPut:
		what = "__ts_put"
	}
	fv, err := s.eval(fr, in.x)
	if err != nil {
		return Value{}, nil, nil, err
	}
	if fv.Kind != KFunc {
		return Value{}, nil, nil, rterrf(in.Pos, "%s of non-function value %s", what, fv.Text(s.C))
	}
	callee := s.C.funcDef[fv.I]
	if in.Op != OpTsPut {
		if callee == nil {
			return Value{}, nil, nil, rterrf(in.Pos, "%s of undefined function %q", what, fv.Fn(s.C))
		}
		if int(in.nargs) != callee.NumParam {
			return Value{}, nil, nil, rterrf(in.Pos, "%s of %q with %d arguments, want %d",
				what, fv.Fn(s.C), in.nargs, callee.NumParam)
		}
	}
	args := make([]Value, in.nargs)
	for i := range args {
		av, err := s.eval(fr, in.args+int32(i))
		if err != nil {
			return Value{}, nil, nil, err
		}
		args[i] = av
	}
	return fv, callee, args, nil
}

// doReturn pops the top frame of thread ti, delivering the return value to
// the caller's result variable if any. An owned s is updated in place.
func doReturn(s *State, ti int, rv Value, pos ast.Pos, fnName string, owned bool, outs []*State, evs *eventSink) StepResult {
	tid := s.Threads[ti].ID
	ns := s
	if !owned {
		ns = s.Clone()
	}
	top := ns.popFrame(ti)
	result := top.Result
	if caller := ns.Threads[ti].Top(); caller != nil && result != "" {
		if err := ns.deliver(caller, result, rv, pos); err != nil {
			return StepResult{Failure: &Failure{Kind: RuntimeFail, Pos: pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}}
		}
	}
	evs.ret(tid, fnName, pos, rv, s.C)
	return StepResult{Outcomes: append(outs, ns)}
}

// deliver stores the return value rv into the variable result of the
// caller frame fr: a local of fr if it has one, else a global. It is the
// one name lookup left at run time: a frame carries its result variable
// by name (see Frame.Result).
func (s *State) deliver(fr *Frame, result string, rv Value, pos ast.Pos) *RuntimeError {
	if idx, ok := fr.CF.VarIdx[result]; ok {
		return s.Store(Cell{Kind: CLocal, FrameID: fr.ID, Field: idx}, rv, pos)
	}
	if idx, ok := s.C.GlobalIdx[result]; ok {
		s.mutableGlobals()[idx] = rv
		return nil
	}
	return rterrf(pos, "undefined variable %q", result)
}

// stepAtomic executes an atomic block as a single step: all internal paths
// (atomic bodies may contain choice and iter) are explored; each completed
// path yields one successor. A path reaching a false assume blocks; if all
// paths block, the whole atomic blocks and the thread retries later, which
// gives atomic{assume(*l == 0); *l = 1} the intended test-and-set
// semantics. A path that fails an assert or goes wrong dynamically
// surfaces as the step's Failure. An owned s becomes the first path's
// state; further paths clone it when they branch.
func stepAtomic(s *State, ti int, in *Instr, owned bool, outs []*State, evs *eventSink) StepResult {
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
				outs = append(outs, st)
				evs.instr(tid, fnName, in, EvStmt, "")
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
				if err := st.assign(fr, sub); err != nil {
					failure = &Failure{Kind: RuntimeFail, Pos: err.Pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}
				} else {
					pc++
					continue
				}
			case OpAssert:
				ok, err := st.cond(fr, sub.x)
				if err != nil {
					failure = &Failure{Kind: RuntimeFail, Pos: err.Pos, Msg: err.Msg, ThreadID: tid, Fn: fnName}
				} else if !ok {
					failure = &Failure{Kind: AssertFail, Pos: sub.Pos,
						Msg: sub.violation(), ThreadID: tid, Fn: fnName}
				} else {
					pc++
					continue
				}
			case OpAssume:
				ok, err := st.cond(fr, sub.x)
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
