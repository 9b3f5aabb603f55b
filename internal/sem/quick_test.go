package sem

import (
	"testing"
	"testing/quick"

	"repro/internal/randprog"
)

// Property tests (testing/quick) over the core data structures of the
// semantics: canonical fingerprints and state cloning.

// TestQuickCloneFingerprintIdentity: cloning never changes the
// fingerprint, at any reachable state of a random program.
func TestQuickCloneFingerprintIdentity(t *testing.T) {
	f := func(seed int64, walk uint16) bool {
		c, ok := compileSeed(t, seed)
		if !ok {
			return true
		}
		s := NewState(c)
		// Walk a pseudo-random path for up to `walk % 64` steps.
		steps := int(walk % 64)
		x := uint64(seed)
		for i := 0; i < steps; i++ {
			if s.Threads[0].Done() {
				break
			}
			sr := Step(s, 0)
			if sr.Failure != nil || sr.Blocked || len(sr.Outcomes) == 0 {
				break
			}
			x = x*6364136223846793005 + 1442695040888963407
			s = sr.Outcomes[int(x>>33)%len(sr.Outcomes)]
		}
		return s.Clone().FingerprintString() == s.FingerprintString()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickStepDoesNotMutateInput: Step must never mutate the state it is
// given (fingerprint unchanged across a Step call).
func TestQuickStepDoesNotMutateInput(t *testing.T) {
	f := func(seed int64) bool {
		c, ok := compileSeed(t, seed)
		if !ok {
			return true
		}
		s := NewState(c)
		for i := 0; i < 40; i++ {
			if s.Threads[0].Done() {
				break
			}
			before := s.FingerprintString()
			sr := Step(s, 0)
			if s.FingerprintString() != before {
				return false
			}
			if sr.Failure != nil || sr.Blocked || len(sr.Outcomes) == 0 {
				break
			}
			s = sr.Outcomes[0]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFingerprintSeparatesGlobals: distinct global valuations yield
// distinct fingerprints.
func TestQuickFingerprintSeparatesGlobals(t *testing.T) {
	c, ok := compileSeed(t, 1)
	if !ok {
		t.Skip("seed program unavailable")
	}
	f := func(a, b int32) bool {
		s1 := NewState(c)
		s2 := NewState(c)
		s1.Globals[0] = IntV(int64(a))
		s2.Globals[0] = IntV(int64(b))
		same := s1.FingerprintString() == s2.FingerprintString()
		return same == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// compileSeed compiles a random generated program (they are sequentialized
// here by simply never stepping the forked threads, which is fine for
// state-structure properties).
func compileSeed(t *testing.T, seed int64) (*Compiled, bool) {
	t.Helper()
	src := randprog.Generate(seed, randprog.Default)
	c := compile(t, src)
	if len(c.Globals) == 0 {
		return nil, false
	}
	return c, true
}
