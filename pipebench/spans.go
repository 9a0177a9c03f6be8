package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans live in memory until the pass ends; the orchestrator
// writes them out once the run is over.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Op     int    `json:"op"`     // one id per operation (figure, search)
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// and traced paths can share call sites.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is an open span; the zero scope (from a nil tracer) is inert.
type scope struct {
	tr *tracer
	id int
	op int
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) scope {
	if t == nil {
		return scope{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, Start: int64(time.Since(t.t0))})
	return scope{tr: t, id: id, op: id}
}

// child opens a span caused by s.
func (s scope) child(name string) scope {
	if s.tr == nil {
		return scope{}
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: s.id, Op: s.op, Name: name, Start: int64(time.Since(t.t0))})
	return scope{tr: t, id: id, op: s.op}
}

func (s scope) end() {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.id-1].End = int64(time.Since(s.tr.t0))
	s.tr.mu.Unlock()
}

// call runs fn inside a child span of s.
func call[T any](s scope, name string, fn func() T) T {
	c := s.child(name)
	defer c.end()
	return fn()
}

// callErr is call for functions that also return an error.
func callErr[T any](s scope, name string, fn func() (T, error)) (T, error) {
	c := s.child(name)
	defer c.end()
	return fn()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanTotals sums span durations by full span name, in seconds.
func spanTotals(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// selfTimes returns each layer's self time in seconds: a span's
// duration minus the part of its interval that its child spans cover
// (children may run concurrently, so their union is subtracted once).
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		out[s.layer()] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += min(curHi, hi) - max(curLo, lo)
		}
	}
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}
