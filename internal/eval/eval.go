// Package eval regenerates the experimental results of the KISS paper:
// Table 1 (per-driver race counts under the permissive harness), Table 2
// (counts under the refined harness), the reference-counting experiments
// of Section 6, and two ablation studies quantifying claims of Sections 1
// and 4 (interleaving blowup avoided; the ts coverage/cost knob).
package eval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	kiss "repro"
	"repro/internal/cbseq"
	"repro/internal/drivers"
	"repro/internal/service"
)

// FieldVerdict is the per-field outcome of a race-checking run.
type FieldVerdict int

const (
	// NoRace: the sequential state space was exhausted with no violation.
	NoRace FieldVerdict = iota
	// Race: a conflicting-access pair was found.
	Race
	// Timeout: the per-field resource bound was exhausted first.
	Timeout
	// Canceled: the corpus run's context was canceled (or its deadline
	// expired) before or during this field's check. Distinct from Timeout,
	// which is the paper's per-field budget; a canceled corpus returns
	// partial results without error.
	Canceled
	// Unsupported: the configured sequentialization cannot express this
	// field's check (the CB transform rejects race targets and heap-shaped
	// programs). The field is reported, not silently dropped, so a CB-mode
	// corpus run stays honest about its coverage.
	Unsupported
)

func (v FieldVerdict) String() string {
	switch v {
	case NoRace:
		return "no-race"
	case Race:
		return "race"
	case Canceled:
		return "canceled"
	case Unsupported:
		return "unsupported"
	default:
		return "timeout"
	}
}

// FieldResult is the outcome for one device-extension field.
type FieldResult struct {
	Driver  string
	Field   string
	Pattern drivers.FieldPattern
	Verdict FieldVerdict
	States  int
	Steps   int
	Message string
	// Pos is the failing statement's source position (Race verdicts only) —
	// the identity key the macro-step ablation compares across arms.
	Pos string
	// Stats is the full per-field metrics record (per-phase wall time,
	// states/sec, peaks, visited set, budget-trip reason). Its timing
	// fields are wall-clock-dependent; determinism comparisons strip them
	// (Stats.StripTiming).
	Stats kiss.Stats
}

// DriverResult aggregates one driver's row.
type DriverResult struct {
	Spec        *drivers.DriverSpec
	ModelLOC    int
	Fields      []FieldResult
	Races       int
	NoRace      int
	Timeouts    int
	Canceled    int
	Unsupported int
}

// Options configure a corpus run.
type Options struct {
	// MaxStates is the per-field state bound, the analogue of the paper's
	// "20 minutes of CPU time and 800MB of memory" per run. The default
	// (zero) is DefaultMaxStates.
	MaxStates int
	// Refined selects the refined harness (rules A1-A3 + driver-specific).
	Refined bool
	// Only restricts the run to the given driver->fields subset (Table 2
	// reruns only the fields that raced in Table 1). Nil means all fields.
	Only map[string]map[string]bool
	// Drivers restricts to a subset of driver names (nil = all).
	Drivers map[string]bool
	// Workers bounds the number of concurrently running field checks. Each
	// field is an independent transform-then-check problem (the reduction's
	// whole point), so the fan-out is embarrassingly parallel. 0 means
	// runtime.GOMAXPROCS(0); results are deterministic — identical to the
	// Workers: 1 run — at any setting, because every field has a fixed slot
	// in the output and aggregation happens after the pool drains.
	Workers int
	// SearchWorkers is the per-field search parallelism: each field check
	// runs its state-space search with this many workers (kiss.Config.
	// SearchWorkers). The two axes compose under one core budget: when
	// Workers is left 0 (auto) and SearchWorkers > 1, the field-level pool
	// shrinks to GOMAXPROCS/SearchWorkers so the run does not oversubscribe
	// total cores. Verdicts are independent of both settings. 0 keeps the
	// sequential per-field search.
	SearchWorkers int
	// DisableMacroSteps turns off macro-step compression for every field
	// check (ablation arm; see kiss.Config.DisableMacroSteps). Verdicts are
	// identical either way; only stored-state counts and speed differ.
	DisableMacroSteps bool
	// DisableFoldMemo turns off fold memoization for every field check
	// (ablation arm; see kiss.Config.DisableFoldMemo). Results are
	// bit-identical either way; only wall time and the Stats.Memo
	// diagnostics differ.
	DisableFoldMemo bool
	// MemoMB is the per-field fold-memo byte budget in MiB (0: default).
	MemoMB int
	// VisitedMode selects the visited-set representation for every field
	// check (kiss.Config.VisitedMode): "" or kiss.VisitedExact keeps the
	// exact fingerprint set; kiss.VisitedCompact stores fingerprints in a
	// blocked Bloom filter, which can only shrink the explored set.
	VisitedMode string
	// MemBudgetMB caps each field check's search memory in MiB
	// (kiss.Config.MemBudgetMB): the BFS frontier spills to disk past its
	// share and a compact filter is sized to the rest. 0 = unlimited.
	MemBudgetMB int
	// Sequentialization selects the transform for every field check
	// (kiss.Config.Sequentialization): "" or kiss.SeqKISS keeps the KISS
	// translation; kiss.SeqCB runs the context-bounded transform. The
	// race-target corpus is outside the CB fragment, so under SeqCB the
	// fields come back with the Unsupported verdict — the knob exists so
	// corpus sweeps report that honestly rather than aborting.
	Sequentialization string
	// ContextSwitches is the CB bound (kiss.Config.ContextSwitches;
	// 0 = kiss.DefaultContextSwitches). Ignored unless Sequentialization
	// is kiss.SeqCB.
	ContextSwitches int
	// AuditVisited shadow-checks compact-filter hits against an exact set,
	// counting measured false positives in each field's Stats.Memory.
	AuditVisited bool
	// Server, when non-empty, is the base URL of a running kissd
	// (cmd/kissd): field checks are submitted over HTTP instead of run
	// in-process, so repeated corpus runs hit the daemon's content-
	// addressed result cache — the warm-cache CI/re-run path. Verdicts
	// and the deterministic search counters are identical to a local
	// run (the service runs the same kiss.Check); the Workers pool then
	// bounds concurrent HTTP submissions rather than local checks, and
	// per-field Progress events do not stream (the search runs remotely).
	Server string
	// Batch, with Server set, submits the whole corpus as one
	// POST /v1/batch and fills the result slots from the streamed JSONL
	// items instead of one /v1/check round trip per field. The batch
	// endpoint is served by the kiss-coord coordinator (cmd/kiss-coord),
	// not by a single kissd; the coordinator shards the jobs across its
	// backends by cache key. Verdicts and counters are identical to the
	// per-field path.
	Batch bool
	// Context, when non-nil, makes the corpus run cancelable: on
	// cancellation (or deadline expiry) the in-flight checks stop at their
	// next poll, the remaining fields are marked Canceled, and RunCorpus
	// returns the partial results without error.
	Context context.Context
	// Progress, when non-nil, receives per-field progress events streamed
	// from inside the checkers (plus one final event per field). With
	// Workers > 1 the hook is called concurrently and must be safe for
	// concurrent use.
	Progress func(FieldEvent)
}

// FieldEvent tags a progress event with the corpus entry it came from.
type FieldEvent struct {
	Driver string
	Field  string
	Event  kiss.Event
}

// DefaultMaxStates is calibrated so that FieldHard runs (whose
// hard-worker loops explore >= AmplifierBound counter states) exceed it
// while every other pattern completes well inside it.
const DefaultMaxStates = 40000

// modelCache memoizes drivers.Generate per spec name: generation is
// deterministic, so the model (text, routine maps, LOC) is computed once
// per process instead of once per RunCorpus call.
var modelCache sync.Map // spec name -> *drivers.Model

func modelFor(spec *drivers.DriverSpec) *drivers.Model {
	if m, ok := modelCache.Load(spec.Name); ok {
		return m.(*drivers.Model)
	}
	m, _ := modelCache.LoadOrStore(spec.Name, drivers.Generate(spec))
	return m.(*drivers.Model)
}

// harnessCache memoizes kiss.Parse keyed by harness source. Fields sharing
// an accessor-pair set produce byte-identical harness programs (only the
// race target — which is not part of the source — differs), so the model
// source is parsed once per distinct harness instead of once per field.
// Parsed programs are immutable (the KISS transformation clones its input),
// so a cached program may be transformed concurrently by many workers. The
// cache is bounded by the number of distinct harnesses in the corpus.
var harnessCache sync.Map // source -> *harnessEntry

type harnessEntry struct {
	once sync.Once
	prog *kiss.Program
	err  error
}

func parseHarness(src string) (*kiss.Program, error) {
	e, _ := harnessCache.LoadOrStore(src, &harnessEntry{})
	entry := e.(*harnessEntry)
	entry.once.Do(func() {
		entry.prog, entry.err = kiss.Parse(src)
	})
	return entry.prog, entry.err
}

// checkFieldHook, when non-nil, runs before each field check; a non-nil
// error aborts the corpus run. Test instrumentation for pool cancellation.
var checkFieldHook func(driver, field string) error

// fieldJob is one unit of corpus work: a field check writing into a fixed
// slot of its driver's result row.
type fieldJob struct {
	dr    *DriverResult
	slot  int
	model *drivers.Model
	field drivers.FieldSpec
}

// RunCorpus checks every selected field of every selected driver and
// returns per-driver results in corpus order. Field checks are dispatched
// to a pool of opts.Workers goroutines; the output is independent of the
// worker count.
func RunCorpus(opts Options) ([]*DriverResult, error) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	var cl *service.Client
	if opts.Server != "" {
		cl = service.NewClient(opts.Server)
	}

	// Lay out the result skeleton and the flat job list up front: every
	// selected field owns a fixed slot, so workers never contend on a
	// shared append and ordering is deterministic by construction.
	var out []*DriverResult
	var jobs []fieldJob
	for _, spec := range drivers.Specs() {
		if opts.Drivers != nil && !opts.Drivers[spec.Name] {
			continue
		}
		model := modelFor(spec)
		dr := &DriverResult{Spec: spec, ModelLOC: model.LOC}
		for _, f := range spec.Fields {
			if opts.Only != nil {
				only := opts.Only[spec.Name]
				if only == nil || !only[f.Name] {
					continue
				}
			}
			dr.Fields = append(dr.Fields, FieldResult{})
			jobs = append(jobs, fieldJob{dr: dr, slot: len(dr.Fields) - 1, model: model, field: f})
		}
		out = append(out, dr)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Field-level x search-level parallelism share one core budget:
		// auto-sized pools divide the cores by the per-check worker count.
		if opts.SearchWorkers > 1 {
			workers = max(1, workers/opts.SearchWorkers)
		}
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	run := func(j fieldJob) error {
		// A canceled corpus context skips the remaining fields outright,
		// marking them rather than leaving zero-valued (NoRace) slots.
		if opts.Context != nil && opts.Context.Err() != nil {
			j.dr.Fields[j.slot] = FieldResult{
				Driver: j.dr.Spec.Name, Field: j.field.Name,
				Pattern: j.field.Pattern, Verdict: Canceled,
			}
			return nil
		}
		fr, err := checkField(j.model, j.field, opts, maxStates, cl)
		if err != nil {
			return fmt.Errorf("%s.%s: %w", j.dr.Spec.Name, j.field.Name, err)
		}
		j.dr.Fields[j.slot] = fr
		return nil
	}

	if cl != nil && opts.Batch {
		if err := runBatch(cl, jobs, opts, maxStates); err != nil {
			return nil, err
		}
	} else if workers <= 1 {
		for _, j := range jobs {
			if err := run(j); err != nil {
				return nil, err
			}
		}
	} else {
		var (
			next     atomic.Int64
			stop     = make(chan struct{})
			failOnce sync.Once
			firstErr error
			wg       sync.WaitGroup
		)
		fail := func(err error) {
			failOnce.Do(func() {
				firstErr = err
				close(stop) // cancel: idle workers exit before their next job
			})
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					if err := run(jobs[i]); err != nil {
						fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}

	for _, dr := range out {
		for i := range dr.Fields {
			switch dr.Fields[i].Verdict {
			case Race:
				dr.Races++
			case NoRace:
				dr.NoRace++
			case Timeout:
				dr.Timeouts++
			case Canceled:
				dr.Canceled++
			case Unsupported:
				dr.Unsupported++
			}
		}
	}
	return out, nil
}

// fieldConfig is the per-field check configuration, shared by the
// local, per-field-remote, and batch paths. Table 1/2 configuration
// (Section 6): "Guided by the intuition of the Bluetooth driver example
// in Section 2.2, we set the size of ts to 0."
func fieldConfig(f drivers.FieldSpec, opts Options, maxStates int) *kiss.Config {
	return &kiss.Config{
		MaxTS:             0,
		RaceTarget:        &kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: f.Name},
		MaxStates:         maxStates,
		DisableMacroSteps: opts.DisableMacroSteps,
		DisableFoldMemo:   opts.DisableFoldMemo,
		MemoMB:            opts.MemoMB,
		VisitedMode:       opts.VisitedMode,
		MemBudgetMB:       opts.MemBudgetMB,
		AuditVisited:      opts.AuditVisited,
		SearchWorkers:     opts.SearchWorkers,
		Sequentialization: opts.Sequentialization,
		ContextSwitches:   opts.ContextSwitches,
		Context:           opts.Context,
	}
}

func checkField(model *drivers.Model, f drivers.FieldSpec, opts Options, maxStates int, cl *service.Client) (FieldResult, error) {
	fr := FieldResult{Driver: model.Spec.Name, Field: f.Name, Pattern: f.Pattern}
	if checkFieldHook != nil {
		if err := checkFieldHook(model.Spec.Name, f.Name); err != nil {
			return fr, err
		}
	}
	src := model.HarnessProgram(f.Name, opts.Refined)
	cfg := fieldConfig(f, opts, maxStates)
	if cl != nil {
		return checkFieldRemote(cl, fr, src, cfg, opts.Context)
	}
	prog, err := parseHarness(src)
	if err != nil {
		return fr, fmt.Errorf("generated model does not parse: %w", err)
	}
	if opts.Progress != nil {
		driver, field := model.Spec.Name, f.Name
		cfg.Progress = func(e kiss.Event) {
			opts.Progress(FieldEvent{Driver: driver, Field: field, Event: e})
		}
	}
	res, err := cfg.Check(prog)
	if err != nil {
		if cbseq.IsUnsupported(err) {
			fr.Verdict = Unsupported
			fr.Message = err.Error()
			return fr, nil
		}
		return fr, err
	}
	fr.States, fr.Steps = res.States, res.Steps
	fr.Stats = res.Stats
	switch res.Verdict {
	case kiss.Error:
		fr.Verdict = Race
		fr.Message = res.Message
		fr.Pos = fmt.Sprint(res.Pos)
	case kiss.Safe:
		fr.Verdict = NoRace
	case kiss.ResourceBound:
		// The corpus context stopping the run is cancellation, not the
		// paper's per-field resource bound.
		if res.Stats.Reason == kiss.ReasonCanceled || res.Stats.Reason == kiss.ReasonDeadline {
			fr.Verdict = Canceled
		} else {
			fr.Verdict = Timeout
		}
	}
	return fr, nil
}

// checkFieldRemote is the service-backed arm of checkField: the harness
// and config travel to a kissd over the wire (the config's functional
// knobs survive via kiss.Config's stable JSON form), the daemon runs —
// or cache-serves — the same kiss.Check, and the wire result maps back
// onto the FieldResult exactly like a local verdict. Cancellation of the
// corpus context marks the field Canceled, mirroring the local path.
func checkFieldRemote(cl *service.Client, fr FieldResult, src string, cfg *kiss.Config, ctx context.Context) (FieldResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	resp, err := cl.Do(ctx, service.CheckRequest{Source: src, Config: cfg})
	if err != nil {
		if ctx.Err() != nil {
			fr.Verdict = Canceled
			return fr, nil
		}
		return fr, fmt.Errorf("kissd check: %w", err)
	}
	if resp.State != service.StateDone || resp.Result == nil {
		return fr, fmt.Errorf("kissd check: job %s ended %s: %s", resp.JobID, resp.State, resp.Error)
	}
	return fieldFromWire(fr, resp.Result), nil
}

// fieldFromWire maps a wire Result onto a FieldResult exactly like a
// local verdict.
func fieldFromWire(fr FieldResult, r *service.Result) FieldResult {
	fr.States, fr.Steps = r.States, r.Steps
	fr.Stats = r.Stats
	switch r.Verdict {
	case kiss.Error.String():
		fr.Verdict = Race
		fr.Message = r.Message
		fr.Pos = r.Pos
	case kiss.Safe.String():
		fr.Verdict = NoRace
	default:
		if r.Stats.Reason == kiss.ReasonCanceled || r.Stats.Reason == kiss.ReasonDeadline {
			fr.Verdict = Canceled
		} else {
			fr.Verdict = Timeout
		}
	}
	return fr
}

// runBatch is the coordinator-backed arm of RunCorpus: the whole job
// list travels as one BatchRequest, the coordinator shards it across
// its backends, and the streamed items land in their fixed slots by
// index — completion order does not matter. A canceled corpus context
// marks whatever has not streamed back yet as Canceled, mirroring the
// per-field paths.
func runBatch(cl *service.Client, jobs []fieldJob, opts Options, maxStates int) error {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	req := service.BatchRequest{}
	for _, j := range jobs {
		if checkFieldHook != nil {
			if err := checkFieldHook(j.dr.Spec.Name, j.field.Name); err != nil {
				return err
			}
		}
		req.Jobs = append(req.Jobs, service.BatchJob{
			Source: j.model.HarnessProgram(j.field.Name, opts.Refined),
			Config: fieldConfig(j.field, opts, maxStates),
		})
	}

	markCanceled := func(filled []bool) {
		for i, j := range jobs {
			if !filled[i] {
				j.dr.Fields[j.slot] = FieldResult{
					Driver: j.dr.Spec.Name, Field: j.field.Name,
					Pattern: j.field.Pattern, Verdict: Canceled,
				}
			}
		}
	}

	filled := make([]bool, len(jobs))
	stream, err := cl.Batch(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			markCanceled(filled)
			return nil
		}
		return fmt.Errorf("batch submit: %w", err)
	}
	defer stream.Close()
	for {
		item, err := stream.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if ctx.Err() != nil {
				markCanceled(filled)
				return nil
			}
			return fmt.Errorf("batch stream: %w", err)
		}
		if item.Index < 0 || item.Index >= len(jobs) || filled[item.Index] {
			return fmt.Errorf("batch stream: bad item index %d", item.Index)
		}
		j := jobs[item.Index]
		fr := FieldResult{Driver: j.dr.Spec.Name, Field: j.field.Name, Pattern: j.field.Pattern}
		if item.State != service.StateDone || item.Result == nil {
			return fmt.Errorf("batch: %s.%s ended %s: %s", fr.Driver, fr.Field, item.State, item.Error)
		}
		j.dr.Fields[j.slot] = fieldFromWire(fr, item.Result)
		filled[item.Index] = true
	}
	for i := range jobs {
		if !filled[i] {
			if ctx.Err() != nil {
				markCanceled(filled)
				return nil
			}
			return fmt.Errorf("batch stream ended with %s.%s missing",
				jobs[i].dr.Spec.Name, jobs[i].field.Name)
		}
	}
	return nil
}

// RacedFields extracts the driver->field set that raced, for feeding a
// Table 1 run into the Table 2 rerun.
func RacedFields(results []*DriverResult) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, dr := range results {
		for _, fr := range dr.Fields {
			if fr.Verdict == Race {
				if out[dr.Spec.Name] == nil {
					out[dr.Spec.Name] = map[string]bool{}
				}
				out[dr.Spec.Name][fr.Field] = true
			}
		}
	}
	return out
}

// FormatTable1 renders results in the layout of Table 1.
func FormatTable1(results []*DriverResult) string {
	var b strings.Builder
	b.WriteString("Table 1: race detection under the permissive harness (ts size 0)\n")
	fmt.Fprintf(&b, "%-18s %6s %8s %7s %6s %9s %9s\n",
		"Driver", "KLOC", "ModelLOC", "Fields", "Races", "No Races", "Timeouts")
	var tKloc float64
	var tFields, tRaces, tNoRace, tTimeout, tCanceled, tUnsupported int
	for _, dr := range results {
		fields := len(dr.Fields)
		fmt.Fprintf(&b, "%-18s %6.1f %8d %7d %6d %9d %9d\n",
			dr.Spec.Name, dr.Spec.KLOC, dr.ModelLOC, fields, dr.Races, dr.NoRace, dr.Timeouts)
		tKloc += dr.Spec.KLOC
		tFields += fields
		tRaces += dr.Races
		tNoRace += dr.NoRace
		tTimeout += dr.Timeouts
		tCanceled += dr.Canceled
		tUnsupported += dr.Unsupported
	}
	fmt.Fprintf(&b, "%-18s %6.1f %8s %7d %6d %9d %9d\n",
		"Total", tKloc, "", tFields, tRaces, tNoRace, tTimeout)
	if tCanceled > 0 {
		fmt.Fprintf(&b, "(%d field checks canceled before completion; counts above are partial)\n", tCanceled)
	}
	if tUnsupported > 0 {
		fmt.Fprintf(&b, "(%d field checks outside the configured sequentialization's fragment)\n", tUnsupported)
	}
	return b.String()
}

// FormatTable2 renders results in the layout of Table 2 (drivers that had
// races in Table 1, rerun under the refined harness).
func FormatTable2(results []*DriverResult) string {
	var b strings.Builder
	b.WriteString("Table 2: races remaining under the refined harness (rules A1-A3 + driver-specific)\n")
	fmt.Fprintf(&b, "%-18s %6s\n", "Driver", "Races")
	total := 0
	for _, dr := range results {
		if len(dr.Fields) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-18s %6d\n", dr.Spec.Name, dr.Races)
		total += dr.Races
	}
	fmt.Fprintf(&b, "%-18s %6d\n", "Total", total)
	return b.String()
}

// CompareTable1 checks a Table 1 run against the paper's rows, returning a
// list of mismatches (empty = exact reproduction of the verdict counts).
func CompareTable1(results []*DriverResult) []string {
	var bad []string
	for _, dr := range results {
		s := dr.Spec
		if len(dr.Fields) != s.PaperFields {
			bad = append(bad, fmt.Sprintf("%s: checked %d fields, paper has %d", s.Name, len(dr.Fields), s.PaperFields))
		}
		if dr.Races != s.PaperRaces {
			bad = append(bad, fmt.Sprintf("%s: %d races, paper reports %d", s.Name, dr.Races, s.PaperRaces))
		}
		if dr.NoRace != s.PaperNoRace {
			bad = append(bad, fmt.Sprintf("%s: %d no-race, paper reports %d", s.Name, dr.NoRace, s.PaperNoRace))
		}
		if dr.Timeouts != s.Timeouts() {
			bad = append(bad, fmt.Sprintf("%s: %d timeouts, paper implies %d", s.Name, dr.Timeouts, s.Timeouts()))
		}
	}
	return bad
}

// CompareTable2 checks a Table 2 rerun against the paper's rows.
func CompareTable2(results []*DriverResult) []string {
	var bad []string
	for _, dr := range results {
		s := dr.Spec
		if s.PaperRacesRefined < 0 {
			continue
		}
		if dr.Races != s.PaperRacesRefined {
			bad = append(bad, fmt.Sprintf("%s: %d races refined, paper reports %d", s.Name, dr.Races, s.PaperRacesRefined))
		}
	}
	return bad
}
