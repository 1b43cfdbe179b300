package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed region of a traced run, recorded by the benchmark
// around a call into one layer of the program.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// Tracer keeps a run's spans in memory until the run ends. A nil
// *Tracer records nothing, so untraced runs pay one nil check per span.
// Spans nest by call structure: Begin's span becomes the parent of
// every span begun before its end function is called.
type Tracer struct {
	RunID string `json:"run_id"`
	Spans []Span `json:"spans"`
	t0    time.Time
	open  []int // stack of open span ids
}

// NewTracer starts a trace whose spans share runID.
func NewTracer(runID string) *Tracer {
	return &Tracer{RunID: runID, t0: time.Now()}
}

// Begin opens a span named name and returns the function that closes
// it.
func (t *Tracer) Begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.Spans) + 1
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.Spans = append(t.Spans, Span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.Spans[id-1].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// Add records an already-measured span under the innermost open span;
// load goroutines time their own work and hand it over afterwards.
func (t *Tracer) Add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.Spans = append(t.Spans, Span{
		ID: len(t.Spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// SelfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover.
func (t *Tracer) SelfTimes() map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range t.Spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.Spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how much of p's interval the union of kids covers.
func covered(p Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// WriteFile writes the trace as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
