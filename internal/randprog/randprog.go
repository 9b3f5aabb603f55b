// Package randprog generates small random concurrent programs in the
// parallel language, for property-based testing of the KISS pipeline
// against the interleaving-exploring ground truth:
//
//   - No false errors (the paper's completeness direction, Section 4): if
//     the transformed sequential program fails, the concurrent program has
//     a failing execution.
//   - Context-switch coverage (Section 2/4): for a 2-thread program, the
//     sequential program simulates all executions with at most two context
//     switches, so any failure the bounded concurrent explorer finds with
//     ContextBound = 2 must also be found by KISS with a sufficient ts
//     bound.
//
// Programs are deterministic functions of the seed, loop-free (so all
// state spaces are finite and small), and draw from assignments on a few
// int-valued globals, if/choice branching, asserts over globals, atomic
// blocks, assumes, and async/sync calls in a DAG call structure. With
// Config.Locals set, functions also compute on locals of their own.
package randprog

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated program's shape.
type Config struct {
	Globals   int // number of int globals (>= 1)
	Funcs     int // number of auxiliary functions (>= 1)
	MaxStmts  int // max statements per function body (>= 1)
	MaxAsyncs int // max async calls in main (>= 0)
	// AssertBias makes asserts plausibly falsifiable: conditions compare
	// globals against small constants.
	Depth int // max nesting depth of if/choice
	// Locals is the number of int locals each function declares (0:
	// none, and the output is exactly that of the generator before
	// locals existed). With locals, statements also do straight-line
	// arithmetic on them, move values between them and globals, branch
	// and assert on them, and update one through a pointer local lp
	// (taking its address, which makes it shared for the transform).
	// The pointer never leaves its frame: a thread that KISS ends by
	// raise loses its frames, so a pointer to them held by another
	// thread would dangle in P' but not in P.
	Locals int
}

// Default is a configuration that keeps full interleaving exploration
// under ~10^5 states.
var Default = Config{Globals: 3, Funcs: 3, MaxStmts: 5, MaxAsyncs: 2, Depth: 2}

// DefaultLocals is Default with two locals per function.
var DefaultLocals = Config{Globals: 3, Funcs: 3, MaxStmts: 5, MaxAsyncs: 2, Depth: 2, Locals: 2}

// Generate returns the source of a random program for the given seed.
func Generate(seed int64, cfg Config) string {
	if cfg.Globals < 1 {
		cfg = Default
	}
	g := &gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	return g.program()
}

// GenerateTwoThreaded returns a program whose concurrency is exactly one
// async fork in main (two threads total), for the context-bound coverage
// property.
func GenerateTwoThreaded(seed int64, cfg Config) string {
	if cfg.Globals < 1 {
		cfg = Default
	}
	cfg.MaxAsyncs = 1
	g := &gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg, forceAsyncs: 1}
	return g.program()
}

type gen struct {
	rng         *rand.Rand
	cfg         Config
	buf         strings.Builder
	forceAsyncs int
}

func (g *gen) global(i int) string { return fmt.Sprintf("g%d", i) }
func (g *gen) fn(i int) string     { return fmt.Sprintf("aux%d", i) }

func (g *gen) randGlobal() string { return g.global(g.rng.Intn(g.cfg.Globals)) }
func (g *gen) randLocal() string  { return fmt.Sprintf("l%d", g.rng.Intn(g.cfg.Locals)) }

// declareLocals opens a function body with its locals.
func (g *gen) declareLocals() {
	for i := 0; i < g.cfg.Locals; i++ {
		fmt.Fprintf(&g.buf, "  var l%d;\n", i)
	}
	if g.cfg.Locals > 0 {
		g.buf.WriteString("  var lp;\n")
	}
}

func (g *gen) program() string {
	for i := 0; i < g.cfg.Globals; i++ {
		fmt.Fprintf(&g.buf, "var %s;\n", g.global(i))
	}
	// Auxiliary functions form a DAG: aux_i may call aux_j for j > i.
	for i := 0; i < g.cfg.Funcs; i++ {
		fmt.Fprintf(&g.buf, "func %s() {\n", g.fn(i))
		g.declareLocals()
		n := 1 + g.rng.Intn(g.cfg.MaxStmts)
		for s := 0; s < n; s++ {
			g.stmt(1, i, false)
		}
		g.buf.WriteString("}\n")
	}
	g.buf.WriteString("func main() {\n")
	g.declareLocals()
	asyncs := 0
	if g.cfg.MaxAsyncs > 0 {
		asyncs = g.rng.Intn(g.cfg.MaxAsyncs + 1)
	}
	if g.forceAsyncs > 0 {
		asyncs = g.forceAsyncs
	}
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	// Interleave asyncs among main's statements.
	asyncAt := map[int]bool{}
	for a := 0; a < asyncs; a++ {
		asyncAt[g.rng.Intn(n)] = true
	}
	for s := 0; s < n; s++ {
		if asyncAt[s] {
			fmt.Fprintf(&g.buf, "  async %s();\n", g.fn(g.rng.Intn(g.cfg.Funcs)))
		}
		g.stmt(1, -1, true)
	}
	g.buf.WriteString("}\n")
	return g.buf.String()
}

// stmt emits one random statement at the given nesting depth. callerIdx is
// the index of the enclosing aux function (-1 for main); calls target only
// higher indices so the call graph is acyclic.
func (g *gen) stmt(depth, callerIdx int, inMain bool) {
	ind := strings.Repeat("  ", depth)
	kinds := 10
	if g.cfg.Locals > 0 {
		kinds = 14
	}
	k := g.rng.Intn(kinds)
	switch {
	case k >= 10:
		g.localStmt(k, depth, callerIdx, inMain)
	case k <= 2: // assignment of a constant
		fmt.Fprintf(&g.buf, "%s%s = %d;\n", ind, g.randGlobal(), g.rng.Intn(3))
	case k == 3: // increment / copy
		if g.rng.Intn(2) == 0 {
			x := g.randGlobal()
			fmt.Fprintf(&g.buf, "%s%s = %s + 1;\n", ind, x, x)
		} else {
			fmt.Fprintf(&g.buf, "%s%s = %s;\n", ind, g.randGlobal(), g.randGlobal())
		}
	case k == 4: // assert over a global
		fmt.Fprintf(&g.buf, "%sassert(%s %s %d);\n", ind, g.randGlobal(), g.cmpOp(), g.rng.Intn(3))
	case k == 5 && depth < g.cfg.Depth: // if
		fmt.Fprintf(&g.buf, "%sif (%s %s %d) {\n", ind, g.randGlobal(), g.cmpOp(), g.rng.Intn(3))
		g.stmt(depth+1, callerIdx, inMain)
		fmt.Fprintf(&g.buf, "%s} else {\n", ind)
		g.stmt(depth+1, callerIdx, inMain)
		fmt.Fprintf(&g.buf, "%s}\n", ind)
	case k == 6 && depth < g.cfg.Depth: // choice
		fmt.Fprintf(&g.buf, "%schoice {\n%s  {\n", ind, ind)
		g.stmt(depth+2, callerIdx, inMain)
		fmt.Fprintf(&g.buf, "%s  }\n%s[]\n%s  {\n", ind, ind, ind)
		g.stmt(depth+2, callerIdx, inMain)
		fmt.Fprintf(&g.buf, "%s  }\n%s}\n", ind, ind)
	case k == 7: // atomic read-modify-write
		x := g.randGlobal()
		fmt.Fprintf(&g.buf, "%satomic { %s = %s + 1; }\n", ind, x, x)
	case k == 8: // synchronous call along the DAG
		if callee, ok := g.calleeFor(callerIdx); ok {
			fmt.Fprintf(&g.buf, "%s%s();\n", ind, callee)
		} else {
			fmt.Fprintf(&g.buf, "%s%s = %d;\n", ind, g.randGlobal(), g.rng.Intn(3))
		}
	default: // guarded assume that cannot block forever on its own thread
		// (assume of a comparison that is sometimes true keeps deadlocks
		// interesting without making every run vacuous)
		fmt.Fprintf(&g.buf, "%sif (%s %s %d) { skip; } else { skip; }\n",
			ind, g.randGlobal(), g.cmpOp(), g.rng.Intn(3))
	}
}

// localStmt emits one of the statements that involve locals.
func (g *gen) localStmt(k, depth, callerIdx int, inMain bool) {
	ind := strings.Repeat("  ", depth)
	switch {
	case k == 10: // straight-line arithmetic on locals
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.buf, "%s%s = %s + %d;\n", ind, g.randLocal(), g.randLocal(), g.rng.Intn(3))
		} else {
			fmt.Fprintf(&g.buf, "%s%s = %d;\n", ind, g.randLocal(), g.rng.Intn(3))
		}
	case k == 11: // move between a local and a global
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.buf, "%s%s = %s;\n", ind, g.randLocal(), g.randGlobal())
		} else {
			fmt.Fprintf(&g.buf, "%s%s = %s;\n", ind, g.randGlobal(), g.randLocal())
		}
	case k == 12 && depth < g.cfg.Depth: // branch on a local
		fmt.Fprintf(&g.buf, "%sif (%s %s %d) {\n", ind, g.randLocal(), g.cmpOp(), g.rng.Intn(3))
		g.stmt(depth+1, callerIdx, inMain)
		fmt.Fprintf(&g.buf, "%s} else {\n", ind)
		g.stmt(depth+1, callerIdx, inMain)
		fmt.Fprintf(&g.buf, "%s}\n", ind)
	case k == 12: // assert over a local
		fmt.Fprintf(&g.buf, "%sassert(%s %s %d);\n", ind, g.randLocal(), g.cmpOp(), g.rng.Intn(3))
	default: // update a local through a pointer to it
		fmt.Fprintf(&g.buf, "%slp = &%s;\n%s*lp = *lp + %d;\n", ind, g.randLocal(), ind, g.rng.Intn(3))
	}
}

func (g *gen) cmpOp() string {
	return []string{"==", "!=", "<", "<=", ">", ">="}[g.rng.Intn(6)]
}

// calleeFor picks a callee with a strictly larger index than the caller to
// keep the call graph acyclic; main (-1) may call any aux function.
func (g *gen) calleeFor(callerIdx int) (string, bool) {
	lo := callerIdx + 1
	if lo >= g.cfg.Funcs {
		return "", false
	}
	return g.fn(lo + g.rng.Intn(g.cfg.Funcs-lo)), true
}
