package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// None of these may panic.
	tr.Complete("x", "c", 0, tr.Now(), nil)
	tr.CompleteAt("x", "c", 0, 0, 1, nil)
	tr.Instant("x", "c", 0, nil)
	tr.ThreadName(1, "t")
	if id := tr.AcquireTID(); id != 0 {
		t.Fatalf("nil AcquireTID = %d, want 0", id)
	}
	tr.ReleaseTID(0)
	if err := tracerErr(tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var p *Phases
	if !p.Start().IsZero() {
		t.Fatal("nil phases read the clock")
	}
	p.Stop(PhaseStep, time.Now().Add(-time.Second))
	p.Observe(PhaseStep, time.Second)
	p.EmitSpans(tr, 0, 0)
	if p.Total() != 0 || p.Count(PhaseStep) != 0 {
		t.Fatal("nil phases accumulated")
	}
}

func TestTracerEmitAndRead(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.ThreadName(0, "sweep")
	start := tr.Now()
	time.Sleep(2 * time.Millisecond)
	tr.Complete("unit/0", "unit", 0, start, map[string]any{"seed": 1})
	tr.Instant("steal", "orchestrator", 0, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Ph != "M" || events[1].Ph != "X" || events[2].Ph != "i" {
		t.Fatalf("phases = %s %s %s", events[0].Ph, events[1].Ph, events[2].Ph)
	}
	if events[1].Dur < 1000 {
		t.Fatalf("span dur = %dµs, want ≥ 2ms-ish", events[1].Dur)
	}
	if events[1].Args["seed"] != float64(1) {
		t.Fatalf("args = %v", events[1].Args)
	}
}

func TestTIDPool(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{})
	a := tr.AcquireTID()
	b := tr.AcquireTID()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("leased tids %d, %d", a, b)
	}
	tr.ReleaseTID(a)
	if c := tr.AcquireTID(); c != a {
		t.Fatalf("pool did not reuse released tid: got %d, want %d", c, a)
	}
}

func TestPhasesAccumulate(t *testing.T) {
	p := &Phases{}
	p.Observe(PhaseStep, 3*time.Millisecond)
	p.Observe(PhaseStep, 2*time.Millisecond)
	p.Observe(PhaseCommit, time.Millisecond)
	if got := p.Duration(PhaseStep); got != 5*time.Millisecond {
		t.Fatalf("step = %v", got)
	}
	if p.Count(PhaseStep) != 2 || p.Count(PhaseCommit) != 1 {
		t.Fatalf("counts = %d, %d", p.Count(PhaseStep), p.Count(PhaseCommit))
	}
	if p.Total() != 6*time.Millisecond {
		t.Fatalf("total = %v", p.Total())
	}

	var buf bytes.Buffer
	tr := NewTracer(&buf)
	p.EmitSpans(tr, 3, 100)
	tr.Flush()
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d phase spans, want 2", len(events))
	}
	if events[0].Name != "step" || events[0].Ts != 100 || events[0].Dur != 5000 {
		t.Fatalf("step span = %+v", events[0])
	}
	if events[1].Name != "commit" || events[1].Ts != 100+5000 {
		t.Fatalf("commit span = %+v", events[1])
	}
}

func TestExportChrome(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "trace.events.jsonl")
	tracePath := filepath.Join(dir, "trace.json")

	tr, err := CreateTracer(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	tr.ThreadName(0, "root")
	s := tr.Now()
	tr.Complete("sweep", "sweep", 0, s, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if err := ExportChromeFile(eventsPath, tracePath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Name == "" {
			t.Fatalf("event missing required fields: %+v", ev)
		}
	}
	if !strings.HasPrefix(string(raw), `{"traceEvents":[`) {
		t.Fatalf("unexpected framing: %.40s", raw)
	}
}

func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(failWriter{})
	tr.Instant("x", "c", 0, nil)
	tr.Flush()
	if tracerErr(tr) == nil {
		t.Fatal("expected sticky error")
	}
	// Further emits must not panic.
	tr.Instant("y", "c", 0, nil)
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, os.ErrClosed }

// tracerErr returns t's first write or marshal error, if any.
func tracerErr(t *Tracer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
