package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// This file holds the macro-step ablation: the driver corpus run across
// two arms — compression off (the seed's per-statement search) and
// compression on (the default) — with verdict/position identity verified
// at several SearchWorkers settings and the
// stored-state/throughput/allocation deltas measured. kissbench
// -macrobench is its command-line front end; `make bench` archives its
// JSON next to the earlier PR benchmark records.

// AblationOptions configure RunMacroAblation.
type AblationOptions struct {
	// MaxStates is the per-field state bound (zero = DefaultMaxStates).
	MaxStates int
	// Drivers restricts the corpus subset (nil = all 18 drivers).
	Drivers map[string]bool
	// Workers bounds the corpus field-check pool per arm (0 = auto).
	Workers int
	// WorkerCounts are the SearchWorkers settings at which the macro arm
	// must reproduce the per-statement arm's verdicts and failure
	// positions field by field. Default: 0, 1, 8.
	WorkerCounts []int
}

// MacroArm is one measured arm of the ablation.
type MacroArm struct {
	MacroSteps bool `json:"macro_steps"`
	// StatesStored counts fingerprinted-and-stored states summed over the
	// corpus; StatesStepped counts executed transitions including the ones
	// folded inside macro steps. With compression off the two coincide.
	StatesStored  int     `json:"states_stored"`
	StatesStepped int     `json:"states_stepped"`
	Steps         int     `json:"steps"`
	Races         int     `json:"races"`
	NoRaces       int     `json:"no_races"`
	Timeouts      int     `json:"timeouts"`
	Seconds       float64 `json:"seconds"`
	StatesPerSec  float64 `json:"states_per_sec"`
	// SteppedPerSec is StatesStepped over wall time — the traversal rate,
	// the only throughput number comparable across arms (stored-state
	// rates divide by compression).
	SteppedPerSec float64 `json:"stepped_per_sec"`
	AllocBytes    uint64  `json:"alloc_bytes"`
}

// MacroAblation is the full report of RunMacroAblation.
type MacroAblation struct {
	WorkerCounts []int    `json:"search_workers"`
	Off          MacroArm `json:"off"`
	On           MacroArm `json:"on"`
	// CompressionRatio is off/on stored states over the fields that
	// completed (no budget trip) in both runs — the fields whose runs
	// covered the same state space. Budget-tripped fields store exactly
	// MaxStates states in either arm while covering *different* amounts
	// of the space (the compressed arm explores several times more states
	// before tripping), so including them dilutes the ratio without
	// measuring compression; AggregateRatio includes them anyway for the
	// whole-corpus storage picture.
	CompressionRatio float64 `json:"compression_ratio"`
	AggregateRatio   float64 `json:"aggregate_ratio"`
	CompletedFields  int     `json:"completed_fields"`
	BoundedFields    int     `json:"bounded_fields"`
	// Identical reports that every (driver, field) produced the same
	// verdict and failure position in both arms at every worker count.
	Identical  bool     `json:"identical"`
	Mismatches []string `json:"mismatches,omitempty"`
}

func defaultWorkerCounts() []int { return []int{0, 1, 8} }

// runArm runs one corpus arm and folds its results into a MacroArm with
// wall time and allocation deltas around the run.
func runArm(opts Options, macroOff bool) (MacroArm, []*DriverResult, error) {
	opts.DisableMacroSteps = macroOff
	arm := MacroArm{MacroSteps: !macroOff}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	results, err := RunCorpus(opts)
	arm.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	arm.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		return arm, nil, err
	}
	for _, dr := range results {
		arm.Races += dr.Races
		arm.NoRaces += dr.NoRace
		arm.Timeouts += dr.Timeouts
		for _, fr := range dr.Fields {
			arm.StatesStored += fr.Stats.States
			arm.Steps += fr.Stats.Steps
			stepped := fr.Stats.StatesStepped
			if stepped <= 0 {
				stepped = fr.Stats.States
			}
			arm.StatesStepped += stepped
		}
	}
	if arm.Seconds > 0 {
		arm.StatesPerSec = float64(arm.StatesStored) / arm.Seconds
		arm.SteppedPerSec = float64(arm.StatesStepped) / arm.Seconds
	}
	return arm, results, nil
}

// verdictKeys flattens a corpus run into "driver.field -> verdict@pos"
// for the cross-arm identity comparison. States/steps are deliberately
// excluded: those are exactly what compression changes.
func verdictKeys(results []*DriverResult) map[string]string {
	out := map[string]string{}
	for _, dr := range results {
		for _, fr := range dr.Fields {
			key := fr.Driver + "." + fr.Field
			v := fr.Verdict.String()
			if fr.Pos != "" {
				v += "@" + fr.Pos
			}
			out[key] = v
		}
	}
	return out
}

// RunMacroAblation measures macro-step compression on the driver corpus.
// The uncompressed arm (run once, sequentially searched) is the
// reference; the macro arm runs at every opts.WorkerCounts setting and each run's per-field verdicts and
// failure positions must match the reference exactly. (Cross-worker-count
// identity of the uncompressed search is already enforced by the
// parallel-search tests.) The timed/allocation comparison uses the
// WorkerCounts[0] runs of all arms so the measurements exercise the same
// search engine shape.
func RunMacroAblation(opts AblationOptions) (*MacroAblation, error) {
	wcs := opts.WorkerCounts
	if len(wcs) == 0 {
		wcs = defaultWorkerCounts()
	}
	base := Options{
		MaxStates: opts.MaxStates, Drivers: opts.Drivers, Workers: opts.Workers,
		SearchWorkers: wcs[0],
	}

	rep := &MacroAblation{WorkerCounts: wcs, Identical: true}
	var err error
	var refResults, onResults []*DriverResult
	rep.Off, refResults, err = runArm(base, true)
	if err != nil {
		return nil, fmt.Errorf("uncompressed arm: %w", err)
	}
	ref := verdictKeys(refResults)

	compare := func(results []*DriverResult, label string, sw int) {
		got := verdictKeys(results)
		var keys []string
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if got[k] != ref[k] {
				rep.Identical = false
				rep.Mismatches = append(rep.Mismatches,
					fmt.Sprintf("%s (%s, search-workers=%d): got=%s off=%s", k, label, sw, got[k], ref[k]))
			}
		}
	}

	for i, sw := range wcs {
		armOpts := base
		armOpts.SearchWorkers = sw
		arm, results, err := runArm(armOpts, false)
		if err != nil {
			return nil, fmt.Errorf("macro arm (search-workers=%d): %w", sw, err)
		}
		if i == 0 {
			rep.On = arm
			onResults = results
		}
		compare(results, "macro", sw)
	}

	rep.AggregateRatio = 1
	if rep.On.StatesStored > 0 {
		rep.AggregateRatio = float64(rep.Off.StatesStored) / float64(rep.On.StatesStored)
	}

	// Completed-fields ratio: restrict to fields neither run bounded.
	offStored, onStored := fieldStored(refResults), fieldStored(onResults)
	var offSum, onSum int
	for key, off := range offStored {
		on, ok := onStored[key]
		if !ok {
			continue
		}
		if off.bounded || on.bounded {
			rep.BoundedFields++
			continue
		}
		rep.CompletedFields++
		offSum += off.stored
		onSum += on.stored
	}
	rep.CompressionRatio = 1
	if onSum > 0 {
		rep.CompressionRatio = float64(offSum) / float64(onSum)
	}
	return rep, nil
}

type fieldStorage struct {
	stored  int
	bounded bool
}

func fieldStored(results []*DriverResult) map[string]fieldStorage {
	out := map[string]fieldStorage{}
	for _, dr := range results {
		for _, fr := range dr.Fields {
			out[fr.Driver+"."+fr.Field] = fieldStorage{
				stored:  fr.Stats.States,
				bounded: fr.Verdict == Timeout || fr.Verdict == Canceled,
			}
		}
	}
	return out
}

// WriteMacroAblation emits the report as a single JSON object (the
// `make bench` artifact of the ablation).
func WriteMacroAblation(w io.Writer, rep *MacroAblation) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FormatMacroAblation renders the report for terminals.
func FormatMacroAblation(rep *MacroAblation) string {
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	add("Macro-step ablation (search-workers identity set %v)\n", rep.WorkerCounts)
	add("%-14s %13s %14s %10s %8s %9s %11s %11s %11s\n",
		"arm", "states-stored", "states-stepped", "steps", "races", "sec", "states/s", "stepped/s", "alloc-MB")
	for _, arm := range []MacroArm{rep.Off, rep.On} {
		name := "per-statement"
		if arm.MacroSteps {
			name = "macro-steps"
		}
		add("%-14s %13d %14d %10d %8d %9.2f %11.0f %11.0f %11.1f\n",
			name, arm.StatesStored, arm.StatesStepped, arm.Steps, arm.Races,
			arm.Seconds, arm.StatesPerSec, arm.SteppedPerSec, float64(arm.AllocBytes)/(1<<20))
	}
	add("compression ratio (stored off/on, %d completed fields): %.2fx\n", rep.CompletedFields, rep.CompressionRatio)
	add("aggregate stored ratio (incl. %d budget-bounded fields): %.2fx\n", rep.BoundedFields, rep.AggregateRatio)
	if rep.Identical {
		add("verdicts and failure positions identical across arms and worker counts\n")
	} else {
		add("IDENTITY MISMATCHES:\n")
		for _, m := range rep.Mismatches {
			add("  %s\n", m)
		}
	}
	return string(b)
}
