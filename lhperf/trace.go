package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point, recorded by
// the benchmark around the call (the engine itself is not
// instrumented). Spans of one request share Req; Parent is the ID of
// the span that caused this one (0 for a request root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so a parent can hand its ID to children
// before its own span is recorded.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// timed runs fn as a child span of parent and returns its duration.
func (t *tracer) timed(name string, parent, req int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(t.id(), parent, req, name, start, end)
	return end.Sub(start)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the part of its interval that its
// children's spans cover.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}
