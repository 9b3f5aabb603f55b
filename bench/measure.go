package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// record is one checked item: a field, or a program with all its arms.
type record struct {
	// repeat marks a closed loop's second or later check of an item in one
	// run. Latency percentiles and the decided share leave repeats out, so
	// that they weigh every item of the population once; throughput, CPU
	// and allocation count them.
	repeat bool
	// start is when the item was dispatched; end is when its last verdict
	// arrived.
	start, end time.Time
	// wrong: some verdict contradicts the known answer. failed: the
	// pipeline returned an error instead of a verdict.
	wrong, failed bool
	// verdicts counts the verdicts the item produced; decided those that
	// settled as much as the known answer allows (answer.decides).
	verdicts, decided int
}

func (r record) latency() time.Duration { return r.end.Sub(r.start) }

// snapshot is the process's resource counters at one instant.
type snapshot struct {
	cpu      time.Duration
	maxRSSKB int64
	mem      runtime.MemStats
}

func takeSnapshot() snapshot {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKB = ru.Maxrss
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// quantile is the nearest-rank q-quantile of sorted xs (q in [0, 1]).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// iqm is the interquartile mean of sorted xs: the mean of its middle half.
// It stands for a typical item where the median cannot: on assert-seq the
// median falls where cheap and costly items meet, and the latency there
// doubles within ten percentiles.
func iqm(sorted []float64) float64 {
	n := len(sorted)
	mid := sorted[n/4 : n-n/4]
	if len(mid) == 0 {
		return 0
	}
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// tail is the highest percentile of sorted xs that still has at least ten
// samples above it: the eleventh-largest value. It returns the value and
// the percentile it stands for; with ten samples or fewer it is the maximum.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summary is what one run's records add up to.
type summary struct {
	attempted, failed, wrong int
	verdicts, decided        int       // repeats left out
	done                     int       // items that ended with verdicts
	latMS                    []float64 // their latencies, repeats left out, sorted
	wall                     time.Duration
	probed                   time.Duration // probe time inside wall
}

func summarize(recs []record, attempted int) summary {
	s := summary{attempted: attempted}
	var first, last time.Time
	for _, r := range recs {
		if r.failed {
			s.failed++
		}
		if r.wrong {
			s.wrong++
		}
		if !r.repeat {
			s.verdicts += r.verdicts
			s.decided += r.decided
		}
		if first.IsZero() || r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
		if r.failed {
			continue
		}
		s.done++
		if !r.repeat {
			s.latMS = append(s.latMS, ms(r.latency()))
		}
	}
	sort.Float64s(s.latMS)
	s.wall = last.Sub(first)
	return s
}

// endToEnd derives the user-facing metrics of an untraced run from its
// set-up time (already scaled to the nominal host), its records and the
// resource counters taken around them. Every other time is multiplied by
// scale, which converts it to the nominal host (prober.scale), and the
// probes' own time is left out.
func endToEnd(setupS float64, s summary, before, after snapshot, scale float64) map[string]metric {
	n := float64(s.done)
	tailV, _ := tail(s.latMS)
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"check_iqm_ms":       {iqm(s.latMS) * scale, "ms"},
		"check_tail_ms":      {tailV * scale, "ms"},
		"checks_per_s":       {n / ((s.wall - s.probed).Seconds() * scale), "1/s"},
		"cpu_ms_per_check":   {ms(after.cpu-before.cpu-s.probed) / n * scale, "ms"},
		"peak_rss_mb":        {float64(after.maxRSSKB) / 1024, "MiB"},
		"alloc_mb_per_check": {float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20) / n, "MiB"},
		"decided_ratio":      {float64(s.decided) / float64(max(s.verdicts, 1)), "ratio"},
	}
}
