package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side of
// the call. Spans of one checked item share Req; Parent links a layer call
// to the item's root span. Attrs are counts the layer reported for the call
// (the search statistics of a check, the blowup of a transform), recorded
// at the boundary where the work happened.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// req is the request id of s, or 0 for no span (an untraced run).
func (s *span) req() int64 {
	if s == nil {
		return 0
	}
	return s.Req
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per layer call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	// cost is the time spent recording: opening and closing spans and
	// computing their attributes. It is the tracing overhead.
	cost atomic.Int64

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span named name under parent (nil for a root span).
func (t *tracer) begin(name string, parent *span, req int64) *span {
	if t == nil {
		return nil
	}
	t0 := time.Now()
	s := &span{ID: t.ids.Add(1), Req: req, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	now := time.Now()
	s.Start = int64(now.Sub(t.epoch))
	t.cost.Add(int64(now.Sub(t0)))
	return s
}

// end closes s and keeps it.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	t0 := time.Now()
	s.End = int64(t0.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	t.cost.Add(int64(time.Since(t0)))
}

// annotate sets the attributes of the closed span s to what attrs
// computes, charging the time to the tracing cost. Call it from the
// goroutine that opened s.
func (t *tracer) annotate(s *span, attrs func() map[string]float64) {
	if t == nil {
		return
	}
	t0 := time.Now()
	s.Attrs = attrs()
	t.cost.Add(int64(time.Since(t0)))
}

// write stores the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span ID. Overlapping children count
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(spans []*span) map[int64]int64 {
	kids := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
