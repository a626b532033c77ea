package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// tracer keeps the spans of one traced run in memory. Spans are opened
// in the benchmark's own code around each call into a layer, never
// inside the program. A nil *tracer is the off switch: every method is
// a no-op on it, so the untraced run pays one nil check per call.
type tracer struct {
	runID string
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished or open span. Parent is 0 for a root span;
// IDs start at 1.
type spanRec struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// span is a handle on an open span; End closes it.
type span struct {
	t  *tracer
	id int
}

func newTracer(runID string) *tracer { return &tracer{runID: runID} }

// start opens a span named after its layer and operation, e.g.
// "decoder.graph", under parent (nil for a root span).
func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	p := 0
	if parent != nil {
		p = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: p, Name: name, Start: time.Now()})
	return &span{t: t, id: id}
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	r := &s.t.spans[s.id-1]
	r.End = now
	return r.End.Sub(r.Start)
}

// durations returns the durations of every closed span with the name,
// in milliseconds, in start order.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, r := range t.spans {
		if r.Name == name && !r.End.IsZero() {
			out = append(out, ms(r.End.Sub(r.Start)))
		}
	}
	return out
}

// total is the summed duration of the named spans in milliseconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// writeNDJSON writes every span as one JSON line tagged with the run ID.
func (t *tracer) writeNDJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.spans {
		line := struct {
			Run string `json:"run"`
			spanRec
		}{t.runID, r}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
