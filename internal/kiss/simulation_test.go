package kiss

// The simulation oracle: every state of P' at a statement boundary must
// project to a reachable configuration of P. DESIGN.md decision 20 gives
// the argument; this file makes it executable.
//
// P' is explored on its own states (no macro steps, no reductions), P by
// interleaving every thread at every instruction. A projection keeps P's
// globals and heap and the stacks of the threads still running in P'. P
// may hold more threads than the projection: a thread that P' ended by
// raise is, in P, preempted forever, so its stack is free.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/drivers"
	"repro/internal/randprog"
	"repro/internal/sem"
)

// transformSim runs the transform with the simulation map switched on.
func transformSim(p *ast.Program, opts Options, target *ast.RaceTarget, everywhere bool) (*ast.Program, *simMap, error) {
	sim := &simMap{at: map[ast.Stmt]simLoc{}, resume: map[ast.Stmt]simLoc{}, spawn: map[ast.Stmt]bool{}, prefixed: map[ast.Stmt]bool{}}
	tr := &transformer{opts: opts, target: target, sim: sim, everywhere: everywhere}
	out, err := tr.run(p)
	return out, sim, err
}

// stmtPCs lays cf's body out as sem.Compile does and returns the pc of
// every statement that compiles to an instruction of its own. It checks
// the layout against the compiled code, so a change to the compiler
// fails here rather than skewing the map.
func stmtPCs(t *testing.T, cf *sem.CompiledFunc) map[ast.Stmt]int {
	t.Helper()
	pcs := map[ast.Stmt]int{}
	pc := 0
	var walk func(b *ast.Block)
	walk = func(b *ast.Block) {
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ast.Block:
				walk(s)
			case *ast.BenignStmt:
				walk(s.Body)
			case *ast.ChoiceStmt:
				pcs[s] = pc
				pc++
				for _, br := range s.Branches {
					walk(br)
					pc++ // jump to the join
				}
			case *ast.IterStmt:
				pcs[s] = pc
				pc++
				walk(s.Body)
				pc++ // jump back to the head
			default:
				pcs[s] = pc
				pc++
			}
		}
	}
	walk(cf.Fn.Body)
	if pc != len(cf.Code) {
		t.Fatalf("%s: layout has %d instructions, compiled code %d", cf.Fn.Name, pc, len(cf.Code))
	}
	for s, i := range pcs {
		if want := opOf(s); want != cf.Code[i].Op {
			t.Fatalf("%s: pc %d is %v, layout says %v", cf.Fn.Name, i, cf.Code[i].Op, want)
		}
	}
	return pcs
}

func opOf(s ast.Stmt) sem.Op {
	switch s.(type) {
	case *ast.AssignStmt:
		return sem.OpAssign
	case *ast.AssertStmt:
		return sem.OpAssert
	case *ast.AssumeStmt:
		return sem.OpAssume
	case *ast.AtomicStmt:
		return sem.OpAtomic
	case *ast.CallStmt:
		return sem.OpCall
	case *ast.AsyncStmt:
		return sem.OpAsync
	case *ast.ReturnStmt:
		return sem.OpReturn
	case *ast.SkipStmt:
		return sem.OpSkip
	case *ast.TsPutStmt:
		return sem.OpTsPut
	case *ast.TsDispatchStmt:
		return sem.OpTsDispatch
	}
	return sem.OpNondetJump
}

// resolvePC mirrors the semantics' jump sliding: a frame never rests on
// an unconditional jump.
func resolvePC(code []sem.Instr, pc int) int {
	for pc < len(code) && code[pc].Op == sem.OpJump {
		pc = code[pc].Targets[0]
	}
	return pc
}

// simFrame is one frame of a configuration in P's terms.
type simFrame struct {
	fr    *sem.Frame
	fn    string
	pc    int
	nvars int
	args  []sem.Value // unstarted thread: its arguments (fr is nil)
}

// encoder writes configurations of P as strings: the shared part
// (P's globals, then the heap reachable from them in first-reach order,
// as the fingerprints number it) and one string per thread stack.
type encoder struct {
	c       *sem.Compiled  // names function values
	owner   map[int][2]int // frame id -> (thread, depth)
	objNum  map[int]int
	objList []int
}

func (e *encoder) val(b *strings.Builder, v sem.Value, thread int) {
	switch v.Kind {
	case sem.KInt:
		fmt.Fprintf(b, "i%d,", v.I)
	case sem.KBool:
		fmt.Fprintf(b, "b%d,", v.I)
	case sem.KFunc:
		name := v.Fn(e.c)
		if orig, ok := OriginalName(name); ok {
			name = orig
		}
		fmt.Fprintf(b, "f%s,", name)
	case sem.KNull:
		b.WriteString("n,")
	case sem.KUnit:
		b.WriteString("u,")
	case sem.KPtr:
		c := v.Ptr()
		switch c.Kind {
		case sem.CGlobal:
			fmt.Fprintf(b, "pg%d,", c.Idx)
		case sem.CHeapField, sem.CObject:
			n, ok := e.objNum[c.Idx]
			if !ok && thread < 0 {
				n = len(e.objList)
				e.objNum[c.Idx] = n
				e.objList = append(e.objList, c.Idx)
				ok = true
			}
			if !ok {
				fmt.Fprintf(b, "ph?%d.%d,", c.Kind, c.Field)
			} else {
				fmt.Fprintf(b, "ph%d.%d.%d,", n, c.Kind, c.Field)
			}
		case sem.CLocal:
			// A local of the same thread is named by depth. Any other
			// frame may be live in P but gone from P' (its thread
			// raised), so only the slot is kept.
			if o, ok := e.owner[c.FrameID]; ok && thread >= 0 && o[0] == thread {
				fmt.Fprintf(b, "pl%d.%d,", o[1], c.Field)
			} else {
				fmt.Fprintf(b, "pl?.%d,", c.Field)
			}
		}
	}
}

// encode returns the shared key and the sorted stack keys of a
// configuration given in P's terms.
func encode(s *sem.State, nGlobals int, threads [][]simFrame) (string, []string) {
	e := &encoder{c: s.C, owner: map[int][2]int{}, objNum: map[int]int{}}
	for ti, th := range threads {
		for d, f := range th {
			if f.fr != nil {
				e.owner[f.fr.ID] = [2]int{ti, d}
			}
		}
	}
	var b strings.Builder
	for _, v := range s.Globals[:nGlobals] {
		e.val(&b, v, -1)
	}
	b.WriteString("H:")
	for i := 0; i < len(e.objList); i++ {
		o := s.Heap[e.objList[i]]
		fmt.Fprintf(&b, "%s{", o.Rec)
		for _, v := range o.Fields {
			e.val(&b, v, -1)
		}
		b.WriteString("}")
	}
	shared := b.String()
	stacks := make([]string, 0, len(threads))
	for ti, th := range threads {
		var sb strings.Builder
		for _, f := range th {
			fmt.Fprintf(&sb, "(%s@%d:", f.fn, f.pc)
			if f.fr == nil {
				for i := 0; i < f.nvars; i++ {
					v := sem.IntV(0)
					if i < len(f.args) {
						v = f.args[i]
					}
					e.val(&sb, v, ti)
				}
				sb.WriteString("r)")
				continue
			}
			for _, v := range f.fr.Locals[:f.nvars] {
				e.val(&sb, v, ti)
			}
			fmt.Fprintf(&sb, "r%s)", f.fr.Result)
		}
		stacks = append(stacks, sb.String())
	}
	sort.Strings(stacks)
	return shared, stacks
}

// simCase is one program under the oracle, in both forms.
type simCase struct {
	src    *ast.Program
	pc     *sem.Compiled
	ppc    *sem.Compiled
	srcPCs map[*sem.CompiledFunc]map[ast.Stmt]int
	// at and resume index the simulation map by P' function and pc;
	// spawn and sched mark the resume points of thread-start calls and
	// of schedule calls.
	at     map[string]map[int]simLoc
	resume map[string]map[int]simLoc
	spawn  map[string]map[int]bool
	sched  map[string]map[int]bool
	// prefixed holds the P locations "fn@pc" of statements given a prefix.
	prefixed map[string]bool
}

func newSimCase(t *testing.T, p *ast.Program, opts Options, target *ast.RaceTarget, everywhere bool) *simCase {
	t.Helper()
	out, sim, err := transformSim(p, opts, target, everywhere)
	if err != nil {
		t.Fatal(err)
	}
	c := &simCase{src: p, srcPCs: map[*sem.CompiledFunc]map[ast.Stmt]int{},
		at: map[string]map[int]simLoc{}, resume: map[string]map[int]simLoc{},
		spawn: map[string]map[int]bool{}, sched: map[string]map[int]bool{}, prefixed: map[string]bool{}}
	if c.pc, err = sem.Compile(p); err != nil {
		t.Fatal(err)
	}
	if c.ppc, err = sem.Compile(out); err != nil {
		t.Fatal(err)
	}
	for _, cf := range c.pc.Funcs {
		c.srcPCs[cf] = stmtPCs(t, cf)
		for s, pc := range c.srcPCs[cf] {
			if sim.prefixed[s] {
				c.prefixed[fmt.Sprintf("%s@%d", cf.Fn.Name, pc)] = true
			}
		}
	}
	for name, cf := range c.ppc.Funcs {
		c.at[name], c.resume[name] = map[int]simLoc{}, map[int]simLoc{}
		c.spawn[name], c.sched[name] = map[int]bool{}, map[int]bool{}
		ambiguous := map[int]bool{}
		for s, pc := range stmtPCs(t, cf) {
			if loc, ok := sim.at[s]; ok {
				c.at[name][pc] = loc
			}
			if loc, ok := sim.resume[s]; ok {
				// A frame waiting on the call at pc rests at the next
				// instruction. Two calls that rest at the same one (the
				// transform always puts a raise test after a call, so
				// only a broken transform does this) leave it unmapped.
				rpc := resolvePC(cf.Code, pc+1)
				if _, dup := c.resume[name][rpc]; dup {
					ambiguous[rpc] = true
				}
				c.resume[name][rpc] = loc
				c.spawn[name][rpc] = sim.spawn[s]
				fl, direct := s.(*ast.CallStmt).Fn.(*ast.FuncLit)
				c.sched[name][rpc] = direct && fl.Name == ScheduleFn
			}
		}
		for rpc := range ambiguous {
			delete(c.resume[name], rpc)
		}
	}
	return c
}

// pcOf returns the P function and pc of a source location.
func (c *simCase) pcOf(fn string, loc simLoc) (*sem.CompiledFunc, int) {
	cf := c.pc.Funcs[fn]
	pc, ok := c.srcPCs[cf][loc.src]
	if !ok {
		panic(fmt.Sprintf("source statement %T of %s has no pc", loc.src, fn))
	}
	if loc.next {
		pc = resolvePC(cf.Code, pc+1)
	}
	return cf, pc
}

// projection is a P' state in P's terms.
type projection struct {
	threads [][]simFrame
	// parked lists "fn@pc" for each thread suspended in a schedule call,
	// and running the location of the thread at the top of the stack.
	parked  []string
	running string
}

// Outcomes of project.
const (
	notBoundary = iota
	boundary
	raiseAtBoundary // a thread is at a source statement with raise set
)

// project maps a P' state to P's terms. The state is at a statement
// boundary when the top frame is at a translated source statement and
// every frame below it waits on a call the map knows (not a race check).
func (c *simCase) project(s *sem.State) (projection, int) {
	var pr projection
	startNew := false
	frames := s.Threads[0].Frames
	for i, fr := range frames {
		name := fr.CF.Fn.Name
		orig, translated := OriginalName(name)
		top := i == len(frames)-1
		if !translated {
			if top || (name != "main" && name != ScheduleFn) {
				return pr, notBoundary // in a helper, or inside check_r/check_w
			}
			startNew = true // the next frame is __kiss_main or a dispatched thread
			continue
		}
		loc, ok := c.resume[name][fr.PC]
		if top {
			loc, ok = c.at[name][fr.PC]
		}
		if !ok {
			return pr, notBoundary
		}
		cf, pc := c.pcOf(orig, loc)
		if startNew || len(pr.threads) == 0 {
			pr.threads = append(pr.threads, nil)
		}
		pr.threads[len(pr.threads)-1] = append(pr.threads[len(pr.threads)-1], simFrame{fr: fr, fn: orig, pc: pc, nvars: len(cf.Vars)})
		startNew = !top && c.spawn[name][fr.PC]
		if !top && c.sched[name][fr.PC] {
			pr.parked = append(pr.parked, fmt.Sprintf("%s@%d", orig, pc))
		}
		if top {
			pr.running = fmt.Sprintf("%s@%d", orig, pc)
		}
	}
	for _, p := range s.Ts {
		orig, _ := OriginalName(p.Fn)
		pr.threads = append(pr.threads, []simFrame{{fn: orig, pc: 0, nvars: len(c.pc.Funcs[orig].Vars), args: p.Args}})
	}
	// Raise is set only while a terminated thread unwinds; no source
	// statement ever runs under it.
	if len(frames) > 0 && s.Globals[c.ppc.GlobalIdx[RaiseVar]].Bool() {
		return pr, raiseAtBoundary
	}
	return pr, boundary
}

// key encodes a projection as the shared part and the sorted stacks.
func (c *simCase) key(s *sem.State, pr projection) []string {
	shared, stacks := encode(s, len(c.pc.Globals), pr.threads)
	return append([]string{shared}, stacks...)
}

// concrete encodes a configuration of P.
func (c *simCase) concrete(s *sem.State) (string, []string) {
	var threads [][]simFrame
	for _, th := range s.Threads {
		if th.Done() {
			continue
		}
		var fs []simFrame
		for _, fr := range th.Frames {
			fs = append(fs, simFrame{fr: fr, fn: fr.CF.Fn.Name, pc: fr.PC, nvars: len(fr.Locals)})
		}
		threads = append(threads, fs)
	}
	return encode(s, len(c.pc.Globals), threads)
}

// explore visits every state reachable from init, stepping every
// thread, and reports false if there are more than limit.
func explore(init *sem.State, limit int, visit func(*sem.State)) bool {
	seen := map[uint64]bool{init.FingerprintHash(): true}
	queue := []*sem.State{init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		visit(s)
		for ti := range s.Threads {
			for _, o := range sem.Step(s, ti).Outcomes {
				h := o.FingerprintHash()
				if seen[h] {
					continue
				}
				if len(seen) >= limit {
					return false
				}
				seen[h] = true
				queue = append(queue, o)
			}
		}
	}
	return true
}

// boundaries explores P' and returns the projections of its boundary
// states, keyed by their encoding.
func (c *simCase) boundaries(t *testing.T, label string, limit int) (map[string][]string, map[string]projection, bool) {
	t.Helper()
	keys, projs := map[string][]string{}, map[string]projection{}
	raised := 0
	ok := explore(sem.NewState(c.ppc), limit, func(s *sem.State) {
		pr, status := c.project(s)
		switch status {
		case raiseAtBoundary:
			if raised++; raised == 1 {
				t.Errorf("%s: a source statement runs with raise set\n%s", label, ast.Print(c.src))
			}
		case boundary:
			k := c.key(s, pr)
			flat := strings.Join(k, "|")
			keys[flat] = k
			projs[flat] = pr
		}
	})
	return keys, projs, ok
}

// checkSimulation runs the oracle on one case. It returns the number of
// P' boundary states checked, or -1 when a state space exceeded limit.
func (c *simCase) checkSimulation(t *testing.T, label string, limit int) int {
	t.Helper()
	projected, _, ok := c.boundaries(t, label, limit)
	if !ok {
		return -1
	}
	reach := map[string][]map[string]int{}
	seen := map[string]bool{}
	if !explore(sem.NewState(c.pc), limit, func(s *sem.State) {
		shared, stacks := c.concrete(s)
		key := shared + "|" + strings.Join(stacks, "|")
		if seen[key] {
			return
		}
		seen[key] = true
		ms := map[string]int{}
		for _, st := range stacks {
			ms[st]++
		}
		reach[shared] = append(reach[shared], ms)
	}) {
		return -1
	}
	bad := 0
	for _, pr := range projected {
		if !contained(reach[pr[0]], pr[1:]) {
			bad++
			if bad <= 3 {
				t.Errorf("%s: P' state projects outside P's reachable set:\n  shared %s\n  threads %v\n%s",
					label, pr[0], pr[1:], ast.Print(c.src))
			}
		}
	}
	return len(projected)
}

// contained reports whether some configuration holds every stack.
func contained(configs []map[string]int, stacks []string) bool {
	want := map[string]int{}
	for _, s := range stacks {
		want[s]++
	}
next:
	for _, have := range configs {
		for s, n := range want {
			if have[s] < n {
				continue next
			}
		}
		return true
	}
	return false
}

type simInput struct{ name, src string }

// simInputs are the oracle's programs: random programs without and with
// private locals, the scenario corpus, and handSim.
func simInputs(short bool) []simInput {
	var in []simInput
	n := int64(60)
	if short {
		n = 20
	}
	for seed := int64(0); seed < n; seed++ {
		id := strconv.FormatInt(seed, 10)
		in = append(in, simInput{"rand/" + id, randprog.Generate(seed, randprog.Default)},
			simInput{"locals/" + id, randprog.Generate(seed, randprog.DefaultLocals)})
	}
	for _, sc := range drivers.Scenarios() {
		in = append(in, simInput{"scenario/" + sc.Name, sc.Source})
	}
	return append(in, handSim...)
}

// handSim are small programs for what the generator avoids: a loop whose
// body starts with private work (the iter-head rule), and a local whose
// address another thread writes through.
var handSim = []simInput{
	{"loop", `
var g;
func w() { g = 1; }
func main() {
  var i;
  var j;
  async w();
  iter {
    choice { { assume(i < 2); i = i + 1; } [] { skip; } }
    j = i;
  }
  assert(g == 0 || j < 2);
}
`},
	{"escape", `
var gp;
func w() { atomic { if (gp != 0) { *gp = 1; } } }
func main() {
  var l0;
  var l1;
  gp = &l0;
  async w();
  l0 = 0;
  l1 = l0;
  assert(l1 == 0);
  gp = 0;
}
`},
}

// TestSimulation: every P' state at a statement boundary projects into
// P's exact reachable set, for the transform and for the prefix-everywhere
// reference, in assertion mode at ts 0-2 and in race mode on g0.
func TestSimulation(t *testing.T) {
	const limit = 60000
	checked, skipped := 0, 0
	for _, in := range simInputs(testing.Short()) {
		p := parseLowered(t, in.src)
		for _, everywhere := range []bool{false, true} {
			for ts := 0; ts <= 2; ts++ {
				label := fmt.Sprintf("%s ts=%d everywhere=%v", in.name, ts, everywhere)
				n := newSimCase(t, p, Options{MaxTS: ts}, nil, everywhere).checkSimulation(t, label, limit)
				if n < 0 {
					skipped++
					continue
				}
				checked += n
				if p.FindGlobal("g0") != nil && ts == 1 {
					target := &ast.RaceTarget{Global: "g0"}
					if n := newSimCase(t, p, Options{MaxTS: ts}, target, everywhere).checkSimulation(t, label+" race g0", limit); n > 0 {
						checked += n
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no boundary states checked")
	}
	t.Logf("%d boundary states checked; %d runs over the %d-state limit", checked, skipped, limit)
}

// TestReduction is the converse of TestSimulation for thinning: the
// thinned P' reaches every boundary configuration the prefix-everywhere
// P' reaches, and no other, among the configurations in which the
// running thread is at a statement both transforms prefix and every
// parked thread waits at a schedule point both have. (Elsewhere the two
// place the same switch on either side of an invisible step.) By the
// reduction argument (DESIGN.md decision 20) the two sets are equal.
// Unlike a verdict comparison, a missed configuration cannot hide
// behind an error both transforms reach.
func TestReduction(t *testing.T) {
	const limit = 60000
	compared := 0
	for _, in := range simInputs(testing.Short()) {
		if strings.HasPrefix(in.name, "rand/") {
			continue // no private locals: both transforms coincide
		}
		p := parseLowered(t, in.src)
		for ts := 0; ts <= 2; ts++ {
			label := fmt.Sprintf("%s ts=%d", in.name, ts)
			thin := newSimCase(t, p, Options{MaxTS: ts}, nil, false)
			ref := newSimCase(t, p, Options{MaxTS: ts}, nil, true)
			parks := func(c *simCase) map[string]bool {
				at := map[string]bool{}
				for name, rpcs := range c.sched {
					orig, _ := OriginalName(name)
					for rpc, isSched := range rpcs {
						if isSched {
							_, pc := c.pcOf(orig, c.resume[name][rpc])
							at[fmt.Sprintf("%s@%d", orig, pc)] = true
						}
					}
				}
				return at
			}
			thinParks, refParks := parks(thin), parks(ref)
			comparable := func(pr projection) bool {
				if pr.running != "" && !thin.prefixed[pr.running] {
					return false
				}
				for _, at := range pr.parked {
					if !thinParks[at] || !refParks[at] {
						return false
					}
				}
				return true
			}
			tk, tp, ok1 := thin.boundaries(t, label+" thinned", limit)
			rk, rp, ok2 := ref.boundaries(t, label+" everywhere", limit)
			if !ok1 || !ok2 {
				continue
			}
			missing, extra := 0, 0
			for k := range rk {
				if comparable(rp[k]) {
					compared++
					if _, ok := tk[k]; !ok {
						if missing++; missing == 1 {
							t.Errorf("%s: thinned P' misses %v\n%s", label, rk[k], ast.Print(p))
						}
					}
				}
			}
			for k := range tk {
				if _, ok := rk[k]; !ok && comparable(tp[k]) {
					if extra++; extra == 1 {
						t.Errorf("%s: thinned P' reaches %v, the reference does not", label, tk[k])
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no configurations compared")
	}
	t.Logf("%d configurations compared", compared)
}
