package sem

import (
	"testing"
	"testing/quick"

	"repro/internal/drivers"
)

// Property tests for the 64-bit fingerprint encoder: FingerprintHash must
// agree with FingerprintString on equality — equal strings always hash
// equal (the encoders share one canonicalization), and unequal strings
// must not collide on the small random states explored here (a 64-bit
// collision among a few thousand states would indicate a structural bug
// in the encoder, not bad luck).

// randomWalk returns a state reached by a pseudo-random path of up to
// steps transitions from the initial state of c.
func randomWalk(c *Compiled, seed int64, steps int) *State {
	s := NewState(c)
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
	return s
}

// TestQuickHashMatchesString: across pairs of reachable states of random
// programs, hash equality must coincide with string equality.
func TestQuickHashMatchesString(t *testing.T) {
	f := func(seed int64, walkA, walkB uint16) bool {
		c, ok := compileSeed(t, seed)
		if !ok {
			return true
		}
		sA := randomWalk(c, seed, int(walkA%64))
		sB := randomWalk(c, seed+int64(walkB%2), int(walkB%64))
		strEq := sA.FingerprintString() == sB.FingerprintString()
		hashEq := sA.FingerprintHash() == sB.FingerprintHash()
		return strEq == hashEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickHashCloneIdentity: cloning never changes the hash, and a reused
// hasher agrees with a fresh one (the scratch maps leak no state between
// calls).
func TestQuickHashCloneIdentity(t *testing.T) {
	h := NewFPHasher()
	f := func(seed int64, walk uint16) bool {
		c, ok := compileSeed(t, seed)
		if !ok {
			return true
		}
		s := randomWalk(c, seed, int(walk%64))
		fresh := s.FingerprintHash()
		return h.Hash(s) == fresh && s.Clone().FingerprintHash() == fresh && h.Hash(s.Clone()) == fresh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHashCanonicalization mirrors TestFingerprintCanonicalization for the
// hash encoder: ts multiset order and unreachable heap garbage must not
// affect the hash, while genuine state differences must.
func TestHashCanonicalization(t *testing.T) {
	c := compile(t, `
record R { f; }
var keep;
func main() {
  var a; var b;
  a = new R;
  b = new R;
  keep = 0;
}
`)
	s1 := NewState(c)
	s1.Ts = []Pending{{Fn: "main"}, {Fn: "other"}}
	s2 := s1.Clone()
	s2.Ts = []Pending{{Fn: "other"}, {Fn: "main"}}
	if s1.FingerprintHash() != s2.FingerprintHash() {
		t.Error("ts multiset order affects hash")
	}

	s3 := s1.Clone()
	s3.Heap = append(s3.Heap, &Object{Rec: "R", Fields: []Value{IntV(99)}})
	if s1.FingerprintHash() != s3.FingerprintHash() {
		t.Error("unreachable heap garbage affects hash")
	}

	s4 := s1.Clone()
	s4.mutableGlobals()[0] = IntV(7)
	if s1.FingerprintHash() == s4.FingerprintHash() {
		t.Error("different global values collide")
	}
	s5 := s1.Clone()
	s5.MutableTopFrame(0).PC = 1
	if s1.FingerprintHash() == s5.FingerprintHash() {
		t.Error("different PCs collide")
	}
}

// TestMix64 sanity: mixing extra context changes the key and is
// order/value sensitive.
func TestMix64(t *testing.T) {
	base := uint64(0x12345678)
	if Mix64(base, 1) == base {
		t.Error("Mix64 is a no-op")
	}
	if Mix64(base, 1) == Mix64(base, 2) {
		t.Error("Mix64 ignores its argument")
	}
	if Mix64(Mix64(base, 1), 2) == Mix64(Mix64(base, 2), 1) {
		t.Error("Mix64 is order-insensitive")
	}
}

// harnessStates explores c breadth-first by Step (dropping the branches
// pruneInfeasible drops) until n distinct states are stored, returning
// every successor generated on the way — repeats included, so distinct
// raw states with one canonical form occur.
func harnessStates(c *Compiled, n int) []*State {
	init := NewState(c)
	all := []*State{init}
	seen := map[string]bool{init.FingerprintString(): true}
	queue := []*State{init}
	for len(queue) > 0 && len(seen) < n {
		s := queue[0]
		queue = queue[1:]
		for ti := range s.Threads {
			sr := Step(s, ti)
			if sr.Failure != nil || sr.Blocked {
				continue
			}
			outs := sr.Outcomes
			if len(outs) > 1 {
				outs, _ = pruneInfeasible(outs, ti)
			}
			for _, o := range outs {
				all = append(all, o)
				if k := o.FingerprintString(); !seen[k] {
					seen[k] = true
					queue = append(queue, o)
				}
			}
		}
	}
	return all
}

// TestHashMatchesStringHarness extends TestQuickHashMatchesString to the
// states of KISS-transformed driver harnesses and assertion scenarios —
// heaps, ts entries, and deep call stacks that random programs do not
// produce: over every state of a breadth-first exploration, states with
// equal strings hash equal, and distinct strings never share a hash.
func TestHashMatchesStringHarness(t *testing.T) {
	subjects := map[string]*Compiled{
		"tracedrv.StopEvent": harnessCompiled(t, "tracedrv", "StopEvent"),
		"moufiltr.Flags":     harnessCompiled(t, "moufiltr", "Flags"),
	}
	for _, sc := range drivers.Scenarios()[:3] {
		subjects[sc.Name] = kissCompiled(t, sc.Source, 2)
	}
	h := NewFPHasher()
	for name, c := range subjects {
		byString := map[string]uint64{}
		byHash := map[uint64]string{}
		states := harnessStates(c, 3000)
		for _, s := range states {
			str, fp := s.FingerprintString(), h.Hash(s)
			if prev, ok := byString[str]; ok && prev != fp {
				t.Fatalf("%s: equal strings hash differently: %s", name, str)
			}
			if prev, ok := byHash[fp]; ok && prev != str {
				t.Fatalf("%s: hash collision:\n%s\n%s", name, prev, str)
			}
			byString[str], byHash[fp] = fp, str
		}
		if len(states) == len(byString) {
			t.Errorf("%s: exploration produced no repeated canonical states", name)
		}
	}
}

// TestHashResegmentedNames: strings hash with their length, so names that
// concatenate to the same bytes — frames ab/c against a/bc, or ts entries
// likewise — never collide.
func TestHashResegmentedNames(t *testing.T) {
	c := compile(t, `func ab() { } func c() { } func a() { } func bc() { } func main() { }`)
	frames := func(names ...string) *State {
		s := NewState(c)
		s.popFrame(0)
		for _, n := range names {
			s.pushFrame(0, s.newFrame(c.Funcs[n], nil, ""))
		}
		return s
	}
	pending := func(names ...string) *State {
		s := NewState(c)
		for _, n := range names {
			s.appendTs(Pending{Fn: n})
		}
		return s
	}
	for _, pair := range [][2]*State{
		{frames("ab", "c"), frames("a", "bc")},
		{pending("ab", "c"), pending("a", "bc")},
	} {
		x, y := pair[0], pair[1]
		if x.FingerprintString() == y.FingerprintString() {
			t.Fatal("test states are canonically equal")
		}
		if x.FingerprintHash() == y.FingerprintHash() {
			t.Errorf("re-segmented names collide: %s vs %s", x.FingerprintString(), y.FingerprintString())
		}
	}
}

// BenchmarkFPHash measures the fingerprint layer alone: hashing one
// mid-search state of a Table 1 race harness (moufiltr.Flags, the last
// state of a 3000-state breadth-first exploration) with a reused hasher,
// as the searches do.
func BenchmarkFPHash(b *testing.B) {
	states := harnessStates(harnessCompiled(b, "moufiltr", "Flags"), 3000)
	s := states[len(states)-1]
	h := NewFPHasher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(s)
	}
}
