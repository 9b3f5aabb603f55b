// Package trace maps counterexample traces of the transformed sequential
// program back to interleaved executions of the original concurrent
// program: "the error trace leading to the assertion failure in P is
// easily constructed from the error trace in P'" (Section 1).
//
// The sequential trace interleaves three kinds of events: steps of
// translated user code (carrying original source positions), steps of the
// generated instrumentation (schedule, RAISE, check_r/check_w, ts
// bookkeeping — all at the zero position), and the dispatch events at
// which a pending thread from ts begins executing on top of the stack.
// Reconstruction tracks the stack-block structure the paper describes:
// "At any point in time, the frames on the unique stack can be partitioned
// into contiguous blocks. Each contiguous block is the stack of one of the
// threads executing currently." Each block is attributed to a thread id;
// instrumentation events are consumed for bookkeeping and dropped from the
// reconstructed trace.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/kiss"
	"repro/internal/sem"
)

// Step is one step of the reconstructed concurrent error trace.
type Step struct {
	ThreadID int
	Func     string // original (untranslated) function name
	Pos      ast.Pos
	Text     string
	// Switch marks the first step of a thread after a context switch.
	Switch bool
}

func (s Step) String() string {
	sw := "  "
	if s.Switch {
		sw = "=>"
	}
	return fmt.Sprintf("%s T%d %-20s %-8s %s", sw, s.ThreadID, s.Func, s.Pos, s.Text)
}

// Trace is a reconstructed concurrent error trace.
type Trace struct {
	Steps []Step
	// ContextSwitches counts adjacent step pairs with different threads.
	ContextSwitches int
	// Threads is the number of distinct threads appearing in the trace.
	Threads int
}

// Format renders the trace for human consumption.
func (t *Trace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reconstructed concurrent error trace (%d threads, %d context switches):\n",
		t.Threads, t.ContextSwitches)
	for _, s := range t.Steps {
		b.WriteString(s.String())
		b.WriteString("\n")
	}
	return b.String()
}

// blockState tracks one contiguous stack block (= one simulated thread).
type blockState struct {
	threadID int
	depth    int // frames belonging to this block still on the stack
}

// Reconstruct converts a sequential error trace produced by the sequential
// check (concheck at context bound 0) on a KISS-transformed program into a concurrent trace of the original
// program. Thread ids are assigned in fork order: the main thread is 0,
// and each asynchronous fork (a ts put, or an inlined synchronous
// execution when ts is full) allocates the next id.
func Reconstruct(events []sem.Event) *Trace {
	t := &Trace{}
	nextThread := 1
	// Pending fork ids per starting function, FIFO: a __ts_put allocates
	// an id; the matching dispatch activates it.
	pendingIDs := map[string][]int{}

	blocks := []blockState{{threadID: 0, depth: 1}} // main's block
	top := func() *blockState { return &blocks[len(blocks)-1] }

	threadsSeen := map[int]bool{0: true}
	lastThread := -1

	for _, ev := range events {
		inInstrumentation := false
		origFn, isUser := kiss.OriginalName(ev.Fn)
		if !isUser && ev.Fn != "main" {
			inInstrumentation = true // schedule, check_r, check_w
		}

		switch ev.Kind {
		case sem.EvCall:
			callee := ev.Callee
			if callee == kiss.ScheduleFn || callee == kiss.CheckRFn || callee == kiss.CheckWFn {
				// Instrumentation call: frames of schedule/checks are not
				// counted in any block; their returns are matched below by
				// name.
				continue
			}
			if _, ok := kiss.OriginalName(callee); ok {
				if ev.Fn == "main" {
					// wrapper main calling [[main]]: main block already open
					continue
				}
				if !ev.Pos.IsValid() && isUser {
					// A generated call inside user code is the inlined
					// synchronous execution of an async statement (ts was
					// full): a fresh thread runs here to completion.
					id := nextThread
					nextThread++
					threadsSeen[id] = true
					blocks = append(blocks, blockState{threadID: id, depth: 1})
					continue
				}
				// Ordinary user-level synchronous call.
				top().depth++
				origCallee, _ := kiss.OriginalName(callee)
				t.appendStep(&lastThread, Step{
					ThreadID: top().threadID, Func: origFn, Pos: ev.Pos,
					Text: "call " + origCallee,
				})
			}

		case sem.EvDispatch:
			// A pending thread from ts begins executing on top of the stack.
			callee := ev.Callee
			orig, _ := kiss.OriginalName(callee)
			var id int
			if q := pendingIDs[orig]; len(q) > 0 {
				id = q[0]
				pendingIDs[orig] = q[1:]
			} else {
				id = nextThread
				nextThread++
			}
			threadsSeen[id] = true
			blocks = append(blocks, blockState{threadID: id, depth: 1})
			t.appendStep(&lastThread, Step{
				ThreadID: id, Func: orig, Pos: ev.Pos,
				Text: "thread scheduled (starts " + orig + ")",
			})

		case sem.EvReturn:
			if inInstrumentation {
				continue
			}
			if ev.Fn == "main" {
				continue
			}
			top().depth--
			if top().depth == 0 {
				if len(blocks) > 1 {
					blocks = blocks[:len(blocks)-1]
				} else {
					blocks[0].depth = 0 // main finished
				}
			}

		case sem.EvStmt:
			if inInstrumentation {
				continue
			}
			if strings.HasPrefix(ev.Text, "__ts_put(") {
				// A fork: the async call added a pending thread to ts.
				// Allocate its id now, in fork order; the matching
				// dispatch activates it.
				orig := ev.Callee
				if o, ok := kiss.OriginalName(orig); ok {
					orig = o
				}
				id := nextThread
				nextThread++
				threadsSeen[id] = true
				pendingIDs[orig] = append(pendingIDs[orig], id)
				t.appendStep(&lastThread, Step{
					ThreadID: top().threadID, Func: origFn, Pos: ev.Pos,
					Text: "fork thread " + fmt.Sprint(id) + " (async " + orig + ")",
				})
				continue
			}
			if !ev.Pos.IsValid() {
				// Other generated bookkeeping inside user code (RAISE,
				// raise tests, ts size tests) is dropped.
				continue
			}
			if strings.HasPrefix(ev.Text, "nondet ") {
				// Internal control decision of a lowered choice/iter; the
				// branch taken is visible from the following assume.
				continue
			}
			t.appendStep(&lastThread, Step{
				ThreadID: top().threadID, Func: origFn, Pos: ev.Pos, Text: ev.Text,
			})

		case sem.EvAsync:
			// Cannot occur in a transformed program.
			continue
		}
	}
	t.Threads = len(threadsSeen)
	return t
}

func (t *Trace) appendStep(lastThread *int, s Step) {
	if *lastThread >= 0 && *lastThread != s.ThreadID {
		t.ContextSwitches++
		s.Switch = true
	}
	*lastThread = s.ThreadID
	t.Steps = append(t.Steps, s)
}
