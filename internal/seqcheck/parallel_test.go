package seqcheck

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/concheck"
	"repro/internal/randprog"
)

// stripParallel drops the scheduling-dependent worker diagnostics, leaving
// exactly the fields the commit-replay design promises are bit-identical
// at every worker count.
func stripParallel(r *concheck.Result) concheck.Result {
	cp := *r
	cp.Parallel = nil
	return cp
}

// TestParallelIdenticalAcrossWorkerCounts: the whole Result — verdict,
// trace, and every deterministic counter — is bit-identical at worker
// counts 1, 2, and 8, across random programs and across budget shapes
// (including budgets that trip mid-search, the hard case for parallel
// determinism).
func TestParallelIdenticalAcrossWorkerCounts(t *testing.T) {
	budgets := []concheck.Options{
		{},
		{MaxStates: 200},
		{MaxSteps: 300},
		{MaxDepth: 10},
	}
	for seed := int64(0); seed < 25; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		for bi, b := range budgets {
			var base concheck.Result
			for _, w := range []int{1, 2, 8} {
				opts := b
				opts.SearchWorkers = w
				got := stripParallel(concheck.Check(compile(t, src, 0), opts))
				if w == 1 {
					base = got
					continue
				}
				if !reflect.DeepEqual(base, got) {
					t.Errorf("seed %d budget %d: workers=1 vs workers=%d:\n  %+v\n  %+v",
						seed, bi, w, base, got)
				}
			}
		}
	}
}

// TestParallelAgreesWithSequential: on full explorations (no budget trip)
// the parallel search and the classic sequential BFS agree on the verdict
// and on the order-independent counters (States, Steps, Visited).
func TestParallelAgreesWithSequential(t *testing.T) {
	errors := 0
	for seed := int64(0); seed < 40; seed++ {
		src := randprog.Generate(seed, randprog.Default)
		seq := concheck.Check(compile(t, src, 0), concheck.Options{BFS: true, MaxStates: 100000})
		par := concheck.Check(compile(t, src, 0), concheck.Options{SearchWorkers: 4, MaxStates: 100000})
		if seq.Verdict == concheck.ResourceBound || par.Verdict == concheck.ResourceBound {
			continue
		}
		if seq.Verdict != par.Verdict {
			t.Errorf("seed %d: sequential %v, parallel %v\n%s", seed, seq.Verdict, par.Verdict, src)
			continue
		}
		if seq.Verdict == concheck.Error {
			errors++
			continue
		}
		if seq.States != par.States || seq.Steps != par.Steps || seq.Visited != par.Visited {
			t.Errorf("seed %d: counters diverge: sequential states=%d steps=%d visited=%d, parallel states=%d steps=%d visited=%d",
				seed, seq.States, seq.Steps, seq.Visited, par.States, par.Steps, par.Visited)
		}
	}
	if errors == 0 {
		t.Error("no erroring programs; verdict agreement vacuous")
	}
}

// wideChoiceSrc builds a program with 2^k distinct leaf states — a state
// space wide enough to keep the worker pool busy.
func wideChoiceSrc(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "var x%d;\n", i)
	}
	b.WriteString("func main() {\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "  choice { { x%d = 1; } [] { x%d = 2; } }\n", i, i)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestParallelCancellationNoGoroutineLeak: a deadline that fires mid-search
// stops the worker pool; no goroutine outlives Check.
func TestParallelCancellationNoGoroutineLeak(t *testing.T) {
	c := compile(t, wideChoiceSrc(20), 0)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		r := concheck.Check(c, concheck.Options{SearchWorkers: 8, Context: ctx})
		cancel()
		if r.Verdict != concheck.ResourceBound {
			t.Fatalf("run %d: 2^20 states in 5ms is implausible; got %v", i, r.Verdict)
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
