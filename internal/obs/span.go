package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one trace event in Chrome trace-event shape: the same record
// streams as a JSONL line during the run and is wrapped into
// {"traceEvents":[...]} by the Chrome exporter, so there is exactly one
// schema to validate. Timestamps and durations are microseconds, per the
// trace-event spec.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`            // "X" complete, "i" instant, "M" metadata
	Ts   int64          `json:"ts"`            // µs since tracer start
	Dur  int64          `json:"dur,omitempty"` // µs, complete events only
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope ("t" thread)
	Args map[string]any `json:"args,omitempty"`
}

// Tracer streams trace events to a writer as JSON Lines. The nil *Tracer is
// a valid no-op: every method checks the receiver, so call sites thread a
// possibly-nil tracer through without branching. A non-nil Tracer is safe
// for concurrent use; write errors are sticky and reported by Err/Close
// rather than failing the traced run.
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	start time.Time
	err   error

	tidMu   sync.Mutex
	tidFree []int64
	tidNext int64
}

// NewTracer wraps w. If w is also an io.Closer, Close closes it.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriter(w), start: time.Now(), tidNext: 1}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// CreateTracer creates path (O_EXCL would be hostile here — traces are
// scratch output, so truncate) and returns a tracer streaming to it.
func CreateTracer(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewTracer(f), nil
}

// Enabled reports whether events will actually be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the event clock: microseconds since the tracer started
// (0 on the nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Microseconds()
}

// emit serialises and writes one event.
func (t *Tracer) emit(ev *Event) {
	if t == nil {
		return
	}
	b, err := json.Marshal(ev)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
	}
}

// Complete records a finished span: start is the value of Now() when the
// span began, tid is the Perfetto row (lease one with AcquireTID for
// concurrent spans). args may be nil.
func (t *Tracer) Complete(name, cat string, tid, start int64, args map[string]any) {
	if t == nil {
		return
	}
	end := t.Now()
	dur := end - start
	if dur < 1 {
		dur = 1 // Perfetto drops zero-length complete events
	}
	t.emit(&Event{Name: name, Cat: cat, Ph: "X", Ts: start, Dur: dur, Pid: 1, Tid: tid, Args: args})
}

// CompleteAt records a span with an explicit start and duration, both in
// µs on the tracer clock — used to tile synthetic child spans (session
// phases) inside a real parent span.
func (t *Tracer) CompleteAt(name, cat string, tid, start, dur int64, args map[string]any) {
	if t == nil {
		return
	}
	if dur < 1 {
		dur = 1
	}
	t.emit(&Event{Name: name, Cat: cat, Ph: "X", Ts: start, Dur: dur, Pid: 1, Tid: tid, Args: args})
}

// Instant records a point-in-time event (steal, stall, restart).
func (t *Tracer) Instant(name, cat string, tid int64, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(&Event{Name: name, Cat: cat, Ph: "i", Ts: t.Now(), Pid: 1, Tid: tid, S: "t", Args: args})
}

// ThreadName labels a tid's row in the trace viewer.
func (t *Tracer) ThreadName(tid int64, name string) {
	if t == nil {
		return
	}
	t.emit(&Event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
}

// AcquireTID leases a thread-row id so concurrent spans render on distinct
// Perfetto rows; pair with ReleaseTID when the span completes. tid 0 is
// reserved for the root/sweep row and never leased.
func (t *Tracer) AcquireTID() int64 {
	if t == nil {
		return 0
	}
	t.tidMu.Lock()
	defer t.tidMu.Unlock()
	if n := len(t.tidFree); n > 0 {
		id := t.tidFree[n-1]
		t.tidFree = t.tidFree[:n-1]
		return id
	}
	id := t.tidNext
	t.tidNext++
	return id
}

// ReleaseTID returns a leased tid to the pool.
func (t *Tracer) ReleaseTID(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.tidMu.Lock()
	t.tidFree = append(t.tidFree, id)
	t.tidMu.Unlock()
}

// Flush drains the buffer without closing.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.w.Flush()
	}
	return t.err
}

// Close flushes and closes the underlying writer (when it is a Closer).
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadEvents parses a JSONL event log back into events.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// ExportChrome wraps a JSONL event log into the Chrome trace file format
// {"traceEvents":[...]} that Perfetto and chrome://tracing load directly.
// Events pass through verbatim — same schema, different framing.
func ExportChrome(r io.Reader, w io.Writer) error {
	events, err := ReadEvents(r)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "\n]}\n")
	return err
}

// ExportChromeFile converts the JSONL event log at eventsPath into a Chrome
// trace file at tracePath.
func ExportChromeFile(eventsPath, tracePath string) error {
	in, err := os.Open(eventsPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := ExportChrome(in, out); err != nil {
		out.Close()
		return fmt.Errorf("export trace: %w", err)
	}
	return out.Close()
}
