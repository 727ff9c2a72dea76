package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceSchema versions the JSON trace format.
const TraceSchema = "roadside-trace/v1"

// spanLimit bounds a tracer's memory: long experiment runs emit one
// span per phase and trial, and a runaway emitter must not grow the trace
// without bound. Dropped spans are counted and reported in the export.
const spanLimit = 16384

// SpanRecord is one completed span. Offsets are relative to the trace
// start so exported traces are machine-comparable without clock parsing.
type SpanRecord struct {
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TraceExport is the JSON shape of a completed trace.
type TraceExport struct {
	Schema  string            `json:"schema"`
	Started time.Time         `json:"started"`
	Meta    map[string]string `json:"meta,omitempty"`
	Dropped int64             `json:"dropped_spans,omitempty"`
	Spans   []SpanRecord      `json:"spans"`
}

// Tracer collects spans and run metadata. All methods are safe for
// concurrent use; span order in the export is completion order.
type Tracer struct {
	mu      sync.Mutex
	started time.Time
	meta    map[string]string
	spans   []SpanRecord
	dropped int64
}

// NewTracer returns an empty tracer anchored at the current time.
func NewTracer() *Tracer {
	return &Tracer{
		started: time.Now(),
		meta:    map[string]string{},
	}
}

// SetMeta attaches a key/value metadata pair to the trace, overwriting
// any previous value for the key.
func (t *Tracer) SetMeta(key, value string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.meta[key] = value
}

// Record appends a completed span measured externally.
func (t *Tracer) Record(name string, start time.Time, d time.Duration, attrs map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= spanLimit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, SpanRecord{
		Name:    name,
		StartUS: start.Sub(t.started).Microseconds(),
		DurUS:   d.Microseconds(),
		Attrs:   attrs,
	})
}

// Span starts a span now and returns the function that ends and records
// it, for use as `defer tr.Span("phase", nil)()`.
func (t *Tracer) Span(name string, attrs map[string]string) func() {
	start := time.Now()
	return func() { t.Record(name, start, time.Since(start), attrs) }
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Export copies the trace into its JSON-marshalable form.
func (t *Tracer) Export() TraceExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta := make(map[string]string, len(t.meta))
	for k, v := range t.meta {
		meta[k] = v
	}
	return TraceExport{
		Schema:  TraceSchema,
		Started: t.started,
		Meta:    meta,
		Dropped: t.dropped,
		Spans:   append([]SpanRecord(nil), t.spans...),
	}
}

// WriteJSON writes the trace export as indented JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Export())
}
