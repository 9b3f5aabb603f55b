package sem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenSrc reaches, along its executions, every value kind and cell
// kind: function values in globals, locals, heap fields and ts
// arguments (one naming no function), CGlobal, CHeapField, CObject,
// live CLocal pointers (one held by another thread), a dangling CLocal,
// null, unit and booleans; a choice branch fails at run time printing a
// function value, and a return event prints one.
const goldenSrc = `
record R { a; b; }
var g; var h; var fg; var dang; var n; var u;
func noret() { }
func pick() { return @worker; }
func leak() { var x; x = 7; dang = &x; }
func worker(p, f, q) { var y; y = p; }
func main() {
	var p; var q; var l; var loc; var f; var b; var z; var w;
	p = new R;
	q = &p->b;
	*q = 5;
	p->a = @worker;
	l = &loc;
	f = @noret;
	fg = @ghost;
	b = true;
	g = &h;
	n = null;
	u = noret();
	w = pick();
	leak();
	async worker(p, f, l);
	__ts_put(@worker, p, @leak, l);
	__ts_put(@noret);
	__ts_put(@worker, q, f, b);
	choice { { skip; } [] { z = f + 1; } }
	__ts_dispatch();
}
`

// goldenDigest explores c breadth-first over every thread (up to limit
// distinct states) and hashes, for every state in visit order, its
// FPHasher word, its FingerprintString and its snapshot bytes, plus the
// text of every event and failure met on the way. It also checks that
// each snapshot decodes to a state with the same bytes and fingerprints.
func goldenDigest(t *testing.T, c *Compiled, limit int) (string, int) {
	t.Helper()
	sum := sha256.New()
	h := NewFPHasher()
	record := func(s *State) {
		fp, str := h.Hash(s), s.FingerprintString()
		snap := AppendSnapshot(nil, s)
		fmt.Fprintf(sum, "%016x|%s|%x\n", fp, str, snap)
		d, err := DecodeSnapshot(c, snap)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(AppendSnapshot(nil, d), snap) {
			t.Fatalf("snapshot of %s does not round-trip", str)
		}
		if d.FingerprintString() != str || h.Hash(d) != fp {
			t.Fatalf("decoded state of %s fingerprints differently", str)
		}
	}
	init := NewState(c)
	record(init)
	seen := map[string]bool{init.FingerprintString(): true}
	queue := []*State{init}
	for len(queue) > 0 && len(seen) < limit {
		s := queue[0]
		queue = queue[1:]
		for ti := range s.Threads {
			sr := Step(s, ti)
			if sr.Failure != nil {
				fmt.Fprintf(sum, "fail %s\n", sr.Failure.Error())
			}
			for _, o := range sr.Outcomes {
				fmt.Fprintf(sum, "ev %d %s %s\n", o.Event.Kind, o.Event.String(), o.Event.Callee)
				if k := o.State.FingerprintString(); !seen[k] {
					seen[k] = true
					record(o.State)
					queue = append(queue, o.State)
				}
			}
		}
	}
	return hex.EncodeToString(sum.Sum(nil)), len(seen)
}

// TestFingerprintSnapshotGolden pins the observable bytes of states —
// the 64-bit fingerprint, the canonical string, the snapshot encoding,
// and event and failure texts — so a change of the in-memory value
// layout cannot move any of them.
func TestFingerprintSnapshotGolden(t *testing.T) {
	subjects := []struct {
		name   string
		c      *Compiled
		limit  int
		states int
		digest string
	}{
		{"kinds", compileTS(t, goldenSrc, 4), 2000, 73,
			"0888f8fa773d6514d1447e432ba99c6dd621e5150e091df788b39b06736568bc"},
		{"moufiltr.Flags", harnessCompiled(t, "moufiltr", "Flags"), 400, 400,
			"57676eb0a921896bf1653dd7f89a76547c31aa11e7e5c2f8e58b3d893277bce8"},
	}
	for _, sub := range subjects {
		got, n := goldenDigest(t, sub.c, sub.limit)
		if n != sub.states || got != sub.digest {
			t.Errorf("%s: %d states, digest %s; want %d, %s", sub.name, n, got, sub.states, sub.digest)
		}
	}
}
