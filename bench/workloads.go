package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"time"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/randprog"
)

type workload struct {
	name string
	// setup generates the inputs from seed.
	setup func(seed int64, tr *tracer) *batch
}

// workloads are the paper's race corpus, its hard fields under a memory
// budget, and assertion checking on many small programs. A fourth, kissd
// serving a mix of resubmissions and new fields over HTTP, was dropped:
// see README.md.
var workloads = []workload{
	{"table1-races", setupTable1},
	{"hard-budget", setupHardBudget},
	{"assert-seq", setupAssertSeq},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// answer is a Table 1 field's known verdict, read from the pattern the
// generator planted on it rather than from any checker.
type answer int

const (
	answerNoRace answer = iota
	answerRace
	// answerTimeout fields are race-free but built to exceed the paper's
	// per-field bound: resource-bound is expected and safe is also right.
	answerTimeout
)

func fieldAnswer(p drivers.FieldPattern) answer {
	switch {
	case p.RacesPermissive():
		return answerRace
	case p.TimesOut():
		return answerTimeout
	}
	return answerNoRace
}

// contradicts reports whether verdict v on a field contradicts its answer.
// Resource-bound never does; it counts against the decided share instead.
func (a answer) contradicts(v kiss.Verdict) bool {
	if a == answerRace {
		return v == kiss.Safe
	}
	return v == kiss.Error
}

// decides reports, as 0 or 1, whether verdict v on a field settles as much
// as its answer allows: safe or error, or resource-bound on a field built
// to exceed the bound.
func (a answer) decides(v kiss.Verdict) int {
	if v == kiss.ResourceBound && a != answerTimeout {
		return 0
	}
	return 1
}

type fieldCase struct {
	field  string
	src    string
	answer answer
}

// fieldCases generates the permissive-harness program of every Table 1
// field whose pattern keep accepts, in corpus order.
func fieldCases(tr *tracer, keep func(drivers.FieldPattern) bool) []fieldCase {
	s := tr.begin("drivers", nil, 0)
	defer tr.end(s)
	var out []fieldCase
	for _, spec := range drivers.Specs() {
		var m *drivers.Model
		for _, f := range spec.Fields {
			if !keep(f.Pattern) {
				continue
			}
			if m == nil {
				m = drivers.Generate(spec)
			}
			out = append(out, fieldCase{f.Name, m.HarnessProgram(f.Name, false), fieldAnswer(f.Pattern)})
		}
	}
	return out
}

// blockSize is how many items of a pass the seed shuffles among themselves.
const blockSize = 16

// order is an endless dispatch sequence over a fixed population. The
// population is laid out once, the same for every seed, with each stratum
// spread evenly so that any prefix holds every stratum in proportion. Each
// pass dispatches that layout block by block, the items of every block in
// an order the seed shuffles. Runs that get equally far thus check the same
// items whatever their seed, up to the block in flight at the deadline:
// which items a run checks would otherwise move its percentiles more than
// the code under test does.
type order struct {
	rng    *rand.Rand
	layout []int
	seq    []int
}

func newOrder(seed int64, strata [][]int) *order {
	return &order{rng: rand.New(rand.NewSource(seed)), layout: stratify(strata)}
}

// stratify interleaves the strata evenly, breaking ties in a fixed
// pseudo-random order.
func stratify(strata [][]int) []int {
	rng := rand.New(rand.NewSource(0))
	type keyed struct {
		key  float64
		item int
	}
	var ks []keyed
	for _, s := range strata {
		for rank, p := range rng.Perm(len(s)) {
			ks = append(ks, keyed{(float64(rank) + rng.Float64()) / float64(len(s)), s[p]})
		}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = k.item
	}
	return out
}

// size is the population: the length of one pass.
func (o *order) size() int { return len(o.layout) }

func (o *order) at(i int) int {
	for i >= len(o.seq) {
		pass := append([]int(nil), o.layout...)
		shuffleBlocks(o.rng, pass)
		o.seq = append(o.seq, pass...)
	}
	return o.seq[i]
}

// shuffleBlocks shuffles the items of xs within each block of blockSize.
func shuffleBlocks(rng *rand.Rand, xs []int) {
	for lo := 0; lo < len(xs); lo += blockSize {
		b := xs[lo:min(lo+blockSize, len(xs))]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
}

// batch is a workload whose set-up has finished: it checks the items of
// its order.
type batch struct {
	order *order
	check func(item int, tr *tracer, root *span) record
}

// drive is a closed loop with one caller: it checks an item, waits for its
// verdicts and checks the next, until d has passed; the item in flight then
// finishes. Between items it runs pr's probe when one is due. It returns
// one record per item checked and the number checked.
//
// One caller, not one per CPU: two callers on the 2-CPU calibration host
// contend with each other and with the garbage collector, which doubled the
// median latency there and made each item's latency hinge on which item ran
// beside it.
func (b *batch) drive(d time.Duration, tr *tracer, pr *prober) ([]record, int) {
	var recs []record
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		pr.maybe()
		item := b.order.at(i)
		root := tr.begin("check", nil, int64(i))
		start := time.Now()
		r := b.check(item, tr, root)
		// A second-pass item means the first pass is complete.
		r.repeat, r.start, r.end = i >= b.order.size(), start, time.Now()
		tr.end(root)
		recs = append(recs, r)
	}
	return recs, len(recs)
}

// setupTable1 is the paper's headline: every Table 1 field, permissive
// harness, the evaluation's default config.
func setupTable1(seed int64, tr *tracer) *batch {
	cases := fieldCases(tr, func(drivers.FieldPattern) bool { return true })
	strata := make([][]int, 3)
	for i, c := range cases {
		strata[c.answer] = append(strata[c.answer], i)
	}
	return &batch{newOrder(seed, strata), func(item int, tr *tracer, root *span) record {
		c := cases[item]
		return raceCheck(c, &kiss.Config{RaceTarget: raceTarget(c.field), MaxStates: 40000}, tr, root)
	}}
}

// setupHardBudget is every field built to exceed the bound, searched
// breadth-first under 1 MiB: the spilling frontier and the compact
// visited set do their work here and nowhere else.
func setupHardBudget(seed int64, tr *tracer) *batch {
	cases := fieldCases(tr, drivers.FieldPattern.TimesOut)
	all := make([]int, len(cases))
	for i := range all {
		all[i] = i
	}
	return &batch{newOrder(seed, [][]int{all}), func(item int, tr *tracer, root *span) record {
		c := cases[item]
		return raceCheck(c, &kiss.Config{
			RaceTarget: raceTarget(c.field), MaxStates: 20000,
			BFS: true, VisitedMode: kiss.VisitedCompact, MemBudgetMB: 1,
		}, tr, root)
	}}
}

func raceTarget(field string) *kiss.RaceTarget {
	return &kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: field}
}

// raceCheck is one field check: kiss.Parse, then Config.Check. Traced, the
// facade's Check is split into its public stages, TransformRace then Check
// of the sequential program, so each layer gets a span.
func raceCheck(c fieldCase, cfg *kiss.Config, tr *tracer, root *span) record {
	prog, err := parse(c.src, tr, root)
	if err != nil {
		return record{failed: true}
	}
	var res *kiss.Result
	if tr == nil {
		res, err = cfg.Check(prog)
	} else {
		res, err = transformAndCheck(prog, cfg, "kiss", tr, root)
	}
	if err != nil {
		return record{failed: true}
	}
	return record{wrong: c.answer.contradicts(res.Verdict), verdicts: 1, decided: c.answer.decides(res.Verdict)}
}

func parse(src string, tr *tracer, root *span) (*kiss.Program, error) {
	s := tr.begin("parser", root, root.req())
	defer tr.end(s)
	return kiss.Parse(src)
}

// transformAndCheck is the traced form of cfg.Check(prog): the transform
// (span layer, "kiss" or "cbseq") and then the check of its sequential
// output ("seqcheck", which also covers compiling and trace
// reconstruction).
func transformAndCheck(prog *kiss.Program, cfg *kiss.Config, layer string, tr *tracer, root *span) (*kiss.Result, error) {
	s := tr.begin(layer, root, root.req())
	var seq *kiss.Program
	var err error
	if cfg.RaceTarget != nil {
		seq, err = cfg.TransformRace(prog, *cfg.RaceTarget)
	} else {
		seq, err = cfg.Transform(prog)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.annotate(s, func() map[string]float64 {
		return map[string]float64{"stmt_blowup": kiss.MeasureTransform(prog, seq).StmtBlowup()}
	})
	return search("seqcheck", func() (*kiss.Result, error) { return cfg.Check(seq) }, tr, root)
}

// search runs one state-space search under a span named layer and
// attaches the search statistics the result reports.
func search(layer string, run func() (*kiss.Result, error), tr *tracer, root *span) (*kiss.Result, error) {
	s := tr.begin(layer, root, root.req())
	res, err := run()
	tr.end(s)
	if err == nil {
		tr.annotate(s, func() map[string]float64 { return searchAttrs(res.Stats) })
	}
	return res, err
}

// decided reports, as 0 or 1, whether an assertion check ended safe or
// error: no answer of these programs expects resource-bound.
func decided(res *kiss.Result) int {
	if res.Verdict == kiss.ResourceBound {
		return 0
	}
	return 1
}

// searchAttrs flattens a search's statistics through their JSON encoding,
// so counters of optional layers (fold memo, call summaries, compact
// visited set, spilling frontier) are read by name: a layer that is
// removed drops its metrics to zero instead of breaking this build.
func searchAttrs(st kiss.Stats) map[string]float64 {
	data, err := json.Marshal(st)
	if err != nil {
		return nil
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil
	}
	out := map[string]float64{}
	flatten("", doc, out)
	return out
}

func flatten(prefix string, v any, out map[string]float64) {
	switch v := v.(type) {
	case float64:
		out[prefix] = v
	case map[string]any:
		for k, x := range v {
			if prefix != "" {
				k = prefix + "." + k
			}
			flatten(k, x, out)
		}
	}
}

// seqRandConfig is the random-program shape of the sequentialization
// ablation: inside CB's scalar-globals fragment, small enough for the
// interleaving explorer to serve as ground truth.
var seqRandConfig = randprog.Config{Globals: 2, Funcs: 2, MaxStmts: 4, MaxAsyncs: 2, Depth: 2}

// seqPrograms is the population size of random programs in assert-seq.
// It is fixed (generator seeds 0..seqPrograms-1) so that runs with
// different seeds measure the same population; the run's seed orders it.
const seqPrograms = 400

type seqProgram struct {
	src      string
	scenario *drivers.Scenario // nil for a random program
}

// setupAssertSeq is assertion checking on many small programs: the
// scenarios and a random population, each through a KISS arm (with its
// errors certified), a CB(2) arm and the interleaving explorer.
func setupAssertSeq(seed int64, tr *tracer) *batch {
	s := tr.begin("drivers", nil, 0)
	var progs []seqProgram
	for _, sc := range drivers.Scenarios() {
		progs = append(progs, seqProgram{sc.Source, sc})
	}
	tr.end(s)
	s = tr.begin("randprog", nil, 0)
	for i := int64(0); i < seqPrograms; i++ {
		progs = append(progs, seqProgram{src: randprog.Generate(i, seqRandConfig)})
	}
	tr.end(s)
	// Strata by fork count, a property of the source that sets how much
	// interleaving every arm faces, so cheap and costly programs stay mixed.
	strata := make([][]int, 4)
	for i, p := range progs {
		k := 0
		if p.scenario == nil {
			k = 1 + min(strings.Count(p.src, "async "), 2)
		}
		strata[k] = append(strata[k], i)
	}
	return &batch{newOrder(seed, strata), func(item int, tr *tracer, root *span) record {
		return seqCheck(progs[item], tr, root)
	}}
}

const seqMaxStates = 20000

// seqCheck runs every arm on one program and judges the verdicts against
// the scenario metadata, or for a random program against the explorer's
// verdict: an error from KISS or CB that the explorer refutes is wrong,
// and so is a KISS error whose trace does not replay.
func seqCheck(p seqProgram, tr *tracer, root *span) record {
	prog, err := parse(p.src, tr, root)
	if err != nil {
		return record{failed: true}
	}
	kcfg := &kiss.Config{MaxTS: 2, MaxStates: seqMaxStates}
	ccfg := &kiss.Config{Sequentialization: kiss.SeqCB, ContextSwitches: 2, MaxStates: seqMaxStates}
	tcfg := &kiss.Config{ContextBound: -1, MaxStates: seqMaxStates}

	check := func(cfg *kiss.Config, layer string) (*kiss.Result, error) {
		if tr == nil {
			return cfg.Check(prog)
		}
		return transformAndCheck(prog, cfg, layer, tr, root)
	}
	kres, err := check(kcfg, "kiss")
	if err != nil {
		return record{failed: true}
	}
	certified := true
	if kres.Verdict == kiss.Error {
		s := tr.begin("trace", root, root.req())
		certified, err = kcfg.Certify(prog, kres)
		tr.end(s)
		if err != nil {
			return record{failed: true}
		}
		tr.annotate(s, func() map[string]float64 { return map[string]float64{"certified": b2f(certified)} })
	}
	cres, err := check(ccfg, "cbseq")
	if err != nil {
		return record{failed: true}
	}
	truth, err := search("concheck", func() (*kiss.Result, error) { return tcfg.Explore(prog) }, tr, root)
	if err != nil {
		return record{failed: true}
	}

	r := record{verdicts: 3, decided: decided(kres) + decided(cres) + decided(truth)}
	r.wrong = !certified
	if sc := p.scenario; sc != nil {
		buggy := sc.MinSwitches >= 0
		r.wrong = r.wrong ||
			unexpected(truth.Verdict, buggy) ||
			unexpected(kres.Verdict, sc.KissFinds) ||
			unexpected(cres.Verdict, buggy && sc.MinSwitches <= ccfg.ContextSwitches)
	} else {
		refuted := truth.Verdict == kiss.Safe
		r.wrong = r.wrong || refuted && (kres.Verdict == kiss.Error || cres.Verdict == kiss.Error)
	}
	return r
}

// unexpected reports whether verdict v contradicts the expectation that
// the program's failure is (wantError) or is not reachable for that arm.
func unexpected(v kiss.Verdict, wantError bool) bool {
	if v == kiss.ResourceBound {
		return false
	}
	return (v == kiss.Error) != wantError
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
