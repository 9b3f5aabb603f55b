package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/stats"
)

// The memory-budget study (PR 9): the corpus's hard fields stop at
// MaxStates because the bound is really RAM — every frontier frame and
// every visited fingerprint lives in memory for the whole search. This
// study runs each hard field twice under one configured memory budget:
//
//   - arm A (exact): the exact visited set at the classic per-field
//     state budget — the run that trips ReasonStates;
//   - arm B (compact+spill): the compact visited filter plus the
//     disk-spilling frontier, at a 10x state ceiling and the *same*
//     MemBudgetMB.
//
// A field counts as improved when arm A tripped MaxStates and arm B
// either completed the search or explored at least 10x the states —
// the record behind "raise the state ceiling without raising the memory
// budget".

// MemBudgetOptions configure RunMemBudget.
type MemBudgetOptions struct {
	// MaxStates is arm A's per-field state budget (0 = DefaultMaxStates).
	MaxStates int
	// Multiplier scales arm B's state ceiling (0 = 10).
	Multiplier int
	// MemBudgetMB is the memory budget both arms run under (0 = 64).
	MemBudgetMB int
	// Drivers restricts to a subset of driver names (nil = all).
	Drivers map[string]bool
	// Workers bounds concurrent field pairs (0 = one per CPU, halved so
	// the two arms of a pair never oversubscribe).
	Workers int
	// SearchWorkers parallelizes each search (0 engages the sequential
	// bucket BFS; the spilling frontier requires a BFS engine either way).
	SearchWorkers int
	// SpillDir is where arm B's frontier spills ("" = system temp).
	SpillDir string
}

// MemBudgetRow is one hard field's A/B record.
type MemBudgetRow struct {
	Driver string `json:"driver"`
	Field  string `json:"field"`

	ExactVerdict string `json:"exact_verdict"`
	ExactReason  string `json:"exact_reason,omitempty"`
	ExactStates  int    `json:"exact_states"`

	CompactVerdict string `json:"compact_verdict"`
	CompactReason  string `json:"compact_reason,omitempty"`
	CompactStates  int    `json:"compact_states"`

	// Completed: arm B exhausted the state space inside the raised
	// ceiling. Improved: arm A tripped MaxStates and arm B completed or
	// explored >= Multiplier x the old ceiling.
	Completed bool `json:"completed"`
	Improved  bool `json:"improved"`

	// Memory is arm B's full memory-policy record: filter size,
	// occupancy, estimated false-positive rate, spilled bytes/frames/
	// runs, merge passes, and the frontier's resident high-water mark.
	Memory *stats.Memory `json:"memory,omitempty"`
	// PeakRAMBytes approximates arm B's search-owned peak RSS: the
	// frontier's resident high-water mark plus the visited filter.
	PeakRAMBytes int64 `json:"peak_ram_bytes"`
}

// MemBudgetReport is the study result.
type MemBudgetReport struct {
	MaxStates     int            `json:"max_states"`
	CeilingStates int            `json:"ceiling_states"`
	MemBudgetMB   int            `json:"mem_budget_mb"`
	Rows          []MemBudgetRow `json:"rows"`
	// Tripped counts fields where arm A hit MaxStates; Improved counts
	// those arm B completed or pushed >= Multiplier x further.
	Tripped  int `json:"tripped"`
	Improved int `json:"improved"`
}

func memBudgetConfig(field string, maxStates int, opts MemBudgetOptions, compact bool) *kiss.Config {
	cfg := &kiss.Config{
		MaxTS:         0,
		RaceTarget:    &kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: field},
		MaxStates:     maxStates,
		MemBudgetMB:   opts.MemBudgetMB,
		SpillDir:      opts.SpillDir,
		SearchWorkers: opts.SearchWorkers,
		// The spilling frontier lives in the BFS engines; the sequential
		// default (DFS) would silently ignore the budget.
		BFS: true,
	}
	if compact {
		cfg.VisitedMode = kiss.VisitedCompact
	}
	return cfg
}

// RunMemBudget runs the A/B study over every hard field of the selected
// drivers. Field pairs run concurrently; both arms of a pair run in the
// same slot, so the report is deterministic at any worker count.
func RunMemBudget(opts MemBudgetOptions) (*MemBudgetReport, error) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	mult := opts.Multiplier
	if mult <= 0 {
		mult = 10
	}
	if opts.MemBudgetMB == 0 {
		opts.MemBudgetMB = 64
	}
	rep := &MemBudgetReport{
		MaxStates:     maxStates,
		CeilingStates: maxStates * mult,
		MemBudgetMB:   opts.MemBudgetMB,
	}

	type job struct {
		model *drivers.Model
		field drivers.FieldSpec
	}
	var jobs []job
	for _, spec := range drivers.Specs() {
		if opts.Drivers != nil && !opts.Drivers[spec.Name] {
			continue
		}
		model := modelFor(spec)
		for _, f := range spec.Fields {
			if f.Pattern.TimesOut() {
				jobs = append(jobs, job{model: model, field: f})
			}
		}
	}
	rep.Rows = make([]MemBudgetRow, len(jobs))

	check := func(j job, maxStates int, compact bool) (*kiss.Result, error) {
		prog, err := parseHarness(j.model.HarnessProgram(j.field.Name, false))
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", j.model.Spec.Name, j.field.Name, err)
		}
		return memBudgetConfig(j.field.Name, maxStates, opts, compact).Check(prog)
	}
	run := func(i int) error {
		j := jobs[i]
		exact, err := check(j, maxStates, false)
		if err != nil {
			return err
		}
		compact, err := check(j, maxStates*mult, true)
		if err != nil {
			return err
		}
		row := MemBudgetRow{
			Driver:         j.model.Spec.Name,
			Field:          j.field.Name,
			ExactVerdict:   exact.Verdict.String(),
			ExactStates:    exact.States,
			CompactVerdict: compact.Verdict.String(),
			CompactStates:  compact.States,
			Completed:      compact.Verdict != kiss.ResourceBound,
			Memory:         compact.Stats.Memory,
		}
		if exact.Verdict == kiss.ResourceBound {
			row.ExactReason = stats.BoundName(exact.Stats.Reason)
		}
		if compact.Verdict == kiss.ResourceBound {
			row.CompactReason = stats.BoundName(compact.Stats.Reason)
		}
		if m := row.Memory; m != nil {
			row.PeakRAMBytes = m.FrontierPeakRAM + m.VisitedBytes
		}
		tripped := exact.Verdict == kiss.ResourceBound && exact.Stats.Reason == kiss.ReasonStates
		row.Improved = tripped && (row.Completed || compact.States >= mult*maxStates)
		rep.Rows[i] = row
		return nil
	}

	workers := opts.Workers
	if workers <= 0 {
		// Each pair runs two searches back to back; halving keeps the
		// default pool from oversubscribing alongside spill I/O.
		workers = max(1, runtime.GOMAXPROCS(0)/2)
		if opts.SearchWorkers > 1 {
			workers = max(1, workers/opts.SearchWorkers)
		}
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			if err := run(i); err != nil {
				return nil, err
			}
		}
	} else {
		var (
			next     atomic.Int64
			wg       sync.WaitGroup
			failOnce sync.Once
			firstErr error
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					if err := run(i); err != nil {
						failOnce.Do(func() { firstErr = err })
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

	for _, row := range rep.Rows {
		if row.ExactReason == stats.BoundName(kiss.ReasonStates) {
			rep.Tripped++
		}
		if row.Improved {
			rep.Improved++
		}
	}
	return rep, nil
}

// FormatMemBudget renders the study as the EXPERIMENTS.md table: field,
// old verdict at MaxStates, new verdict, peak search RAM, spilled bytes.
func FormatMemBudget(rep *MemBudgetReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory-budget study: hard fields at MaxStates=%d (exact) vs ceiling=%d (compact+spill, %d MiB budget)\n",
		rep.MaxStates, rep.CeilingStates, rep.MemBudgetMB)
	fmt.Fprintf(&b, "%-28s %-22s %-22s %10s %12s %8s\n",
		"Field", "Exact verdict", "Compact verdict", "PeakRAM", "Spilled", "FP rate")
	for _, r := range rep.Rows {
		name := r.Driver + "." + r.Field
		ev, cv := r.ExactVerdict, r.CompactVerdict
		if r.ExactReason != "" {
			ev += "(" + r.ExactReason + ")"
		}
		if r.CompactReason != "" {
			cv += "(" + r.CompactReason + ")"
		}
		cv += fmt.Sprintf(" %d states", r.CompactStates)
		spilled, fp := int64(0), 0.0
		if r.Memory != nil {
			spilled = r.Memory.SpilledBytes
			fp = r.Memory.VisitedFPRate
		}
		fmt.Fprintf(&b, "%-28s %-22s %-22s %9.1fM %11.1fM %8.5f\n",
			name, ev, cv, float64(r.PeakRAMBytes)/(1<<20), float64(spilled)/(1<<20), fp)
	}
	fmt.Fprintf(&b, "%d/%d MaxStates-tripped fields improved (completed or >=%dx states) under the unchanged budget\n",
		rep.Improved, rep.Tripped, rep.CeilingStates/max(1, rep.MaxStates))
	return b.String()
}

// WriteMemBudget emits the report as one indented JSON document.
func WriteMemBudget(w io.Writer, rep *MemBudgetReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
