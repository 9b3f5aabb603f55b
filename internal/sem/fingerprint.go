package sem

// 64-bit state fingerprints for the visited sets of the explicit-state
// searches. The encoder mirrors FingerprintString's canonicalization
// exactly — same token sequence, same object renumbering by first-reach
// order, same frame-id canonicalization, same ts multiset ordering (via
// appendTsOrder) — but folds each token into a running 64-bit hash
// instead of materializing a string, so the hot loop performs no
// per-state allocation beyond the hasher's reusable scratch.
//
// The hash works a word at a time: every token (a tag, an integer, a
// string) is one 64-bit word, folded in by one multiply-xorshift round
// (mixWord), and the result passes through a 64-bit finalizer so every
// output bit depends on every input word — the compact visited set takes
// its block index and probe positions straight from those bits. A string
// token is the word hashString returns: its length, then its bytes eight
// at a time. Function names are hashed once at compile time
// (CompiledFunc.nameHash).
//
// Soundness note: a 64-bit collision makes a search treat a genuinely new
// state as visited, so a collision can only cause a *missed* state (and
// hence a missed error), never a false alarm — the same direction of
// unsoundness as the KISS reduction itself. The string encoder remains
// available as FingerprintString, and the checkers' audit modes
// cross-check the two on demand.

const (
	hashSeed = 0x9e3779b97f4a7c15 // initial running hash
	hashMul  = 0xbf58476d1ce4e5b9 // odd multiplier of the mixing round
)

// mixWord folds one 64-bit word into the running hash h: xor it in,
// multiply by an odd constant (spreading low bits upward), and xorshift
// the high half back down so the next multiply sees it.
func mixWord(h, v uint64) uint64 {
	h ^= v
	h *= hashMul
	return h ^ h>>32
}

// finalize64 is the murmur3 fmix64 avalanche: a bijection after which
// each output bit depends on every input bit.
func finalize64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashString hashes s as its length followed by its bytes in
// little-endian 8-byte words (the last one zero-padded). The length word
// keeps adjacent strings from re-segmenting into each other: "ab","c" and
// "a","bc" hash as different token pairs.
func hashString(s string) uint64 {
	h := mixWord(hashSeed, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mixWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = mixWord(h, w)
	}
	return h
}

// Mix64 folds v into the running hash h with one mixing round and
// finalizes the result, so it is well distributed as a visited-set key.
// Exported so searches that key their visited sets on (state, extra
// context) — e.g. concheck's context-bounded mode — can extend a state
// hash without re-encoding.
func Mix64(h, v uint64) uint64 {
	return finalize64(mixWord(h, v))
}

// FPHasher computes 64-bit state fingerprints, reusing its canonicalization
// scratch (object numbering, object worklist, ts order) across calls. An
// FPHasher is not safe for concurrent use; each search owns one.
type FPHasher struct {
	objNum  []int32 // heap index -> canonical number, -1 if not yet reached
	objList []int   // heap indices in canonical order (worklist)
	tsOrder []int
	s       *State // the state being hashed (for frameCanon), nil between calls
	h       uint64
}

// NewFPHasher returns a hasher with empty scratch.
func NewFPHasher() *FPHasher {
	return &FPHasher{}
}

// FingerprintHash returns the 64-bit canonical fingerprint of the state
// using a throwaway hasher. Searches should allocate one FPHasher and call
// its Hash method instead.
func (s *State) FingerprintHash() uint64 {
	return NewFPHasher().Hash(s)
}

func (e *FPHasher) word(v uint64) { e.h = mixWord(e.h, v) }

func (e *FPHasher) touchObj(idx int) int {
	if n := e.objNum[idx]; n >= 0 {
		return int(n)
	}
	n := len(e.objList)
	e.objNum[idx] = int32(n)
	e.objList = append(e.objList, idx)
	return n
}

// frameCanon returns the canonical number (thread position, depth) of
// the live frame with the given id, as FingerprintString numbers it.
// Pointers to locals are rare, so a scan beats maintaining a map per hash.
func (e *FPHasher) frameCanon(id int) (int, bool) {
	for ti, t := range e.s.Threads {
		for d, fr := range t.Frames {
			if fr.ID == id {
				return ti<<16 | d, true
			}
		}
	}
	return 0, false
}

// val mirrors fpEncoder.val token-for-token: each case writes a distinct
// tag so values of different kinds cannot hash-alias structurally.
func (e *FPHasher) val(v Value) {
	switch v.Kind {
	case KInt:
		e.word('i')
		e.word(uint64(v.I))
	case KBool:
		e.word('b')
		e.word(uint64(v.I))
	case KFunc:
		e.word('f')
		e.word(hashString(v.Fn))
	case KNull:
		e.word('n')
	case KUnit:
		e.word('u')
	case KPtr:
		c := v.Ptr
		switch c.Kind {
		case CGlobal:
			e.word('g')
			e.word(uint64(c.Idx))
		case CHeapField:
			e.word('h')
			e.word(uint64(e.touchObj(c.Idx)))
			e.word(uint64(c.Field))
		case CObject:
			e.word('o')
			e.word(uint64(e.touchObj(c.Idx)))
		case CLocal:
			if n, ok := e.frameCanon(c.FrameID); ok {
				e.word('l')
				e.word(uint64(n))
			} else {
				e.word('L') // dangling
			}
			e.word(uint64(c.Field))
		}
	}
}

// Hash returns the canonical 64-bit fingerprint of s. Two states with equal
// FingerprintString always hash equal; the converse holds up to 64-bit
// collisions.
func (e *FPHasher) Hash(s *State) uint64 {
	e.s = s
	e.objList = e.objList[:0]
	if cap(e.objNum) < len(s.Heap) {
		e.objNum = make([]int32, len(s.Heap))
	}
	e.objNum = e.objNum[:len(s.Heap)]
	for i := range e.objNum {
		e.objNum[i] = -1
	}
	e.h = hashSeed

	e.word('G')
	for _, v := range s.Globals {
		e.val(v)
	}
	e.word('T')
	for _, t := range s.Threads {
		e.word('[')
		for _, fr := range t.Frames {
			e.word('(')
			e.word(fr.CF.nameHash)
			e.word(uint64(fr.PC))
			for _, v := range fr.Locals {
				e.val(v)
			}
			e.word('r')
			e.word(hashString(fr.Result))
			e.word(')')
		}
		e.word(']')
	}

	if len(s.Ts) > 0 {
		e.tsOrder = s.appendTsOrder(e.tsOrder[:0])
		e.word('S')
		for _, i := range e.tsOrder {
			p := s.Ts[i]
			e.word(hashString(p.Fn))
			e.word('(')
			for _, a := range p.Args {
				e.val(a)
			}
			e.word(')')
		}
	}

	// Heap contents of reached objects in canonical order; hashing may
	// discover further objects, so iterate as a worklist.
	e.word('H')
	for i := 0; i < len(e.objList); i++ {
		o := s.Heap[e.objList[i]]
		e.word('O')
		e.word(uint64(i))
		e.word(hashString(o.Rec))
		e.word('{')
		for _, v := range o.Fields {
			e.val(v)
		}
		e.word('}')
	}
	e.s = nil
	return finalize64(e.h)
}
