package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Trace  int64   `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pay only a nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin allocates a span id; end records the span with that id.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	return t.ids.Add(1), time.Now()
}

func (t *tracer) end(id, trace, parent int64, name string, start time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: float64(start.Sub(t.epoch)) / 1e6, End: float64(time.Since(t.epoch)) / 1e6}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// Span context travels from the benchmark's clients to its server wrappers
// in these request headers.
const (
	hdrTrace  = "X-Perfbench-Trace"
	hdrParent = "X-Perfbench-Span"
)

func setSpanHeaders(h http.Header, trace, parent int64) {
	if trace != 0 {
		h.Set(hdrTrace, strconv.FormatInt(trace, 10))
		h.Set(hdrParent, strconv.FormatInt(parent, 10))
	}
}

// spanHandler records one span per request around next, named name, as a
// child of the client span named in the request headers. The tracer is read
// per request so one server can serve traced and untraced phases.
func spanHandler(tr *atomic.Pointer[tracer], name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		trace, _ := strconv.ParseInt(r.Header.Get(hdrTrace), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		id, start := t.begin()
		next.ServeHTTP(w, r)
		t.end(id, trace, parent, name, start)
	})
}
