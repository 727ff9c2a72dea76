package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTracerSpansAndMeta(t *testing.T) {
	tr := NewTracer()
	tr.SetMeta("runner", "test")
	end := tr.Span("phase.one", map[string]string{"items": "3"})
	time.Sleep(time.Millisecond)
	end()
	tr.Record("phase.two", time.Now(), 5*time.Millisecond, nil)
	exp := tr.Export()
	if exp.Schema != TraceSchema {
		t.Fatalf("schema = %q", exp.Schema)
	}
	if exp.Meta["runner"] != "test" {
		t.Fatalf("meta = %v", exp.Meta)
	}
	if len(exp.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(exp.Spans))
	}
	if exp.Spans[0].Name != "phase.one" || exp.Spans[0].DurUS <= 0 {
		t.Fatalf("span 0 = %+v", exp.Spans[0])
	}
	if exp.Spans[0].Attrs["items"] != "3" {
		t.Fatalf("span 0 attrs = %v", exp.Spans[0].Attrs)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back TraceExport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if len(back.Spans) != 2 || back.Spans[1].Name != "phase.two" {
		t.Fatalf("round-tripped spans = %+v", back.Spans)
	}
}

func TestTracerSpanLimit(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < spanLimit+7; i++ {
		tr.Record("s", time.Now(), 0, nil)
	}
	exp := tr.Export()
	if len(exp.Spans) != spanLimit {
		t.Fatalf("retained %d spans, want %d", len(exp.Spans), spanLimit)
	}
	if exp.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", exp.Dropped)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Record("s", time.Now(), time.Microsecond, nil)
				tr.SetMeta("k", "v")
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 1600 {
		t.Fatalf("spans = %d, want 1600", tr.Len())
	}
}
