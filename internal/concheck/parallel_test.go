package concheck

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/randprog"
)

// stripParallel drops the scheduling-dependent worker diagnostics, leaving
// the fields that must be bit-identical at every worker count.
func stripParallel(r *Result) Result {
	cp := *r
	cp.Parallel = nil
	return cp
}

// TestParallelIdenticalAcrossWorkerCounts: verdict, trace, and every
// deterministic counter agree bit-for-bit at worker counts 1, 2, and 8,
// across random concurrent programs, bounded and unbounded scheduling,
// both step modes, and budgets that trip mid-search.
func TestParallelIdenticalAcrossWorkerCounts(t *testing.T) {
	shapes := []Options{
		{ContextBound: -1},
		{ContextBound: 2},
		{ContextBound: 2, DisableMacroSteps: true},
		{ContextBound: -1, MaxStates: 200},
		{ContextBound: -1, MaxSteps: 400},
		{ContextBound: -1, MaxDepth: 8},
	}
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for si, shape := range shapes {
			var base Result
			for _, w := range []int{1, 2, 8} {
				opts := shape
				opts.SearchWorkers = w
				got := stripParallel(Check(compile(t, src), opts))
				if w == 1 {
					base = got
					continue
				}
				if !reflect.DeepEqual(base, got) {
					t.Errorf("seed %d shape %d: workers=1 vs workers=%d:\n  %+v\n  %+v",
						seed, si, w, base, got)
				}
			}
		}
	}
}

// TestParallelAgreesWithSequential: the sequential search is depth-first
// and the parallel one breadth-first, so on full explorations (no budget
// trip) they agree on the verdict and on the order-independent counters.
func TestParallelAgreesWithSequential(t *testing.T) {
	errors := 0
	for seed := int64(0); seed < 40; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		seq := Check(compile(t, src), Options{ContextBound: -1, MaxStates: 100000})
		par := Check(compile(t, src), Options{ContextBound: -1, SearchWorkers: 4, MaxStates: 100000})
		if seq.Verdict == ResourceBound || par.Verdict == ResourceBound {
			continue
		}
		if seq.Verdict != par.Verdict {
			t.Errorf("seed %d: sequential %v, parallel %v\n%s", seed, seq.Verdict, par.Verdict, src)
			continue
		}
		if seq.Verdict == Error {
			errors++
			continue
		}
		if seq.States != par.States || seq.Steps != par.Steps || seq.Visited != par.Visited || seq.Deadlocks != par.Deadlocks {
			t.Errorf("seed %d: counters diverge:\n  sequential %+v\n  parallel   %+v",
				seed, stripParallel(seq), stripParallel(par))
		}
	}
	if errors == 0 {
		t.Error("no erroring programs; verdict agreement vacuous")
	}
}

// blowupSrc is the interleaving-blowup family: n unsynchronized three-step
// increments give a state space exponential in n.
const blowupSrc = `
var x;
func inc() { var t; var u; t = x; u = t + 1; x = u; }
func main() {
  x = 0;
  async inc(); async inc(); async inc(); async inc(); async inc(); async inc();
}
`

// TestParallelCancellationNoGoroutineLeak: a deadline firing mid-search
// stops the worker pool; no goroutine outlives Check.
func TestParallelCancellationNoGoroutineLeak(t *testing.T) {
	c := compile(t, blowupSrc)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		r := Check(c, Options{ContextBound: -1, SearchWorkers: 8, Context: ctx})
		cancel()
		if r.Verdict != ResourceBound {
			t.Fatalf("run %d: six-thread blowup in 5ms is implausible; got %v", i, r.Verdict)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
