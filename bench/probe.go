package main

import (
	"sort"
	"time"
)

// The calibration host shares its cores with other tenants, and how much
// work one of its CPU seconds does drifts with their load: between runs of
// the same code, the spread of every timing was 20–33%, and a run could take
// twice as long as the one before. That is wider than any bound a timing
// could be given. Each run therefore times a fixed probe between its items
// and scales every time it reports to a host on which the probe takes
// probeNominal. The probe is the benchmark's own code and allocates nothing,
// so a change to the checker cannot change its cost.
//
// The probe does what the checker spends its time on: updates to a hash map
// (hashing, and reads and writes scattered over a few MiB) and clearing
// memory (bandwidth). It runs twice in a row and both passes are timed: the
// first on caches the workload left cold, the second on caches the first
// warmed. On the calibration host, scaling by the pair cut the spread of the
// end-to-end timings of 40 s runs from 7–22% to 3–16%. Either pass alone,
// either half of the work alone, or a random walk over a table in memory
// tracked the drift less closely.
const (
	probeNominal = 8 * time.Millisecond
	probeEvery   = 400 * time.Millisecond
	probeKeys    = 60000
)

var (
	probeMap = make(map[uint64]uint64, probeKeys)
	probeBuf = make([]byte, 8<<20)
)

func probeWork() {
	clear(probeMap) // keeps the map's storage
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < probeKeys/2; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		probeMap[x%probeKeys] += x
	}
	for i := 0; i < 4; i++ {
		clear(probeBuf)
	}
}

// prober times the probe during one run. The workload's one caller runs it
// between items, so that it measures the host and not the benchmark's own
// load.
type prober struct {
	last  time.Time
	times []float64 // milliseconds, one per probe
	spent time.Duration
}

// maybe runs the probe unless one ran within probeEvery.
func (p *prober) maybe() {
	if time.Since(p.last) >= probeEvery {
		p.run()
	}
}

func (p *prober) run() {
	start := time.Now()
	probeWork()
	probeWork()
	p.last = time.Now()
	d := p.last.Sub(start)
	p.times = append(p.times, ms(d))
	p.spent += d
}

// medianMS is the median probe time, or the nominal one if no probe ran.
func (p *prober) medianMS() float64 {
	if len(p.times) == 0 {
		return ms(probeNominal)
	}
	ts := append([]float64(nil), p.times...)
	sort.Float64s(ts)
	return quantile(ts, 0.5)
}

// scale converts a time measured in this run to one on the nominal host.
func (p *prober) scale() float64 { return ms(probeNominal) / p.medianMS() }
