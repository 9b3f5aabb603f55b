package sem

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lower"
	"repro/internal/parser"
)

// benchSource builds a program whose mid-execution states carry a heap of
// roughly n objects, live globals, and a call in flight — the shape whose
// per-transition Clone cost the copy-on-write representation targets.
func benchSource(n int) string {
	var b strings.Builder
	b.WriteString("record Node { val; next; }\n")
	b.WriteString("var g0; var g1; var g2; var g3;\n")
	b.WriteString("func alloc(v) { var p; p = new Node; p->val = v; return p; }\n")
	b.WriteString("func main() {\n\tvar p;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tp = alloc(%d); g%d = p;\n", i, i%4)
	}
	b.WriteString("\tassert(g0 != null);\n}\n")
	return b.String()
}

// compileBench is the TB-friendly twin of compile (benchmarks cannot use
// the *testing.T helper).
func compileBench(tb testing.TB, src string) *Compiled {
	tb.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	lower.Program(p)
	c, err := Compile(p)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return c
}

// benchState walks the bench program to the first state whose heap holds
// at least n objects.
func benchState(tb testing.TB, n int) *State {
	tb.Helper()
	c := compileBench(tb, benchSource(n))
	s := NewState(c)
	for i := 0; i < 100000 && !s.Threads[0].Done(); i++ {
		sr := Step(s, 0)
		if sr.Failure != nil {
			tb.Fatalf("bench program failed: %v", sr.Failure.Msg)
		}
		if sr.Blocked || len(sr.Outcomes) == 0 {
			break
		}
		s = sr.Outcomes[0]
		if len(s.Heap) >= n {
			return s
		}
	}
	tb.Fatalf("bench program never reached %d heap objects", n)
	return nil
}

// sinkState keeps benchmark results heap-allocated so the numbers reflect
// what the search pays.
var sinkState *State

// BenchmarkClone measures the copy-on-write Clone: O(1) regardless of
// heap and stack size. Compare with BenchmarkDeepClone, the eager copy it
// replaced.
func BenchmarkClone(b *testing.B) {
	s := benchState(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkState = s.Clone()
	}
}

// BenchmarkDeepClone is the pre-COW eager copy, kept as the reference
// implementation; the gap to BenchmarkClone is the per-transition win.
func BenchmarkDeepClone(b *testing.B) {
	s := benchState(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkState = s.DeepClone()
	}
}

// BenchmarkSuccessors measures a full successor computation (Step) at a
// mid-execution state: clone + execute one atomic item. Under COW the
// clone no longer scales with |heap|+|stack|, so this is dominated by the
// instructions actually executed.
func BenchmarkSuccessors(b *testing.B) {
	s := benchState(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := Step(s, 0)
		if sr.Failure != nil || len(sr.Outcomes) == 0 {
			b.Fatal("unexpected step result")
		}
	}
}

// outcomeKey renders a step result as a canonical string: failure,
// blockedness, and the sorted multiset of successor fingerprints.
func outcomeKey(sr StepResult) string {
	var b strings.Builder
	if sr.Failure != nil {
		fmt.Fprintf(&b, "fail:%s;", sr.Failure.Msg)
	}
	if sr.Blocked {
		b.WriteString("blocked;")
	}
	fps := make([]string, len(sr.Outcomes))
	for i, out := range sr.Outcomes {
		fps[i] = out.FingerprintString()
	}
	sort.Strings(fps)
	b.WriteString(strings.Join(fps, ","))
	return b.String()
}

// TestQuickCOWStepMatchesDeepClone: stepping a copy-on-write clone and
// stepping an eager deep copy of the same state yield fingerprint-
// identical successor multisets, and neither leaves a trace on the parent
// — the COW representation is observationally equal to the copy it
// replaced, along random walks of random programs.
func TestQuickCOWStepMatchesDeepClone(t *testing.T) {
	f := func(seed int64, walk uint16) bool {
		c, ok := compileSeed(t, seed)
		if !ok {
			return true
		}
		s := NewState(c)
		steps := int(walk % 48)
		x := uint64(seed)
		for i := 0; i < steps; i++ {
			if s.Threads[0].Done() {
				return true
			}
			parentBefore := s.FingerprintString()
			cow := s.Clone()
			deep := s.DeepClone()
			if outcomeKey(Step(cow, 0)) != outcomeKey(Step(deep, 0)) {
				return false
			}
			if s.FingerprintString() != parentBefore {
				return false
			}
			sr := Step(s, 0)
			if sr.Failure != nil || sr.Blocked || len(sr.Outcomes) == 0 {
				return true
			}
			x = x*6364136223846793005 + 1442695040888963407
			s = sr.Outcomes[int(x>>33)%len(sr.Outcomes)]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
