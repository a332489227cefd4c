package scenario

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Event is one recorded arrival: Amount units of load landing on Node at
// the end of round Round. Rounds number from 0, exactly like the k the
// round loop passes to Instance.Arrivals, so an event recorded while
// committing round k+1 of a live session replays at the same point of a
// grid run.
//
// The wire form is one JSON object per line (JSONL), no header:
//
//	{"k":0,"node":5,"amt":12500}
//	{"k":0,"node":9,"amt":3.5}
//	{"k":4,"node":0,"amt":800}
//
// Events are ordered by round; amounts are absolute load units (discrete
// runs round them to whole tokens at injection, like every arrival).
// TraceWriter emits the canonical encoding — json.Marshal of this struct —
// so read → rewrite round-trips byte-identically, which is what lets CI
// cmp a re-recorded trace against the committed one.
type Event struct {
	Round  int     `json:"k"`
	Node   int     `json:"node"`
	Amount float64 `json:"amt"`
}

// check rejects events no run could have produced.
func (e Event) check() error {
	if e.Round < 0 {
		return fmt.Errorf("round %d must be ≥ 0", e.Round)
	}
	if e.Node < 0 {
		return fmt.Errorf("node %d must be ≥ 0", e.Node)
	}
	if !(e.Amount > 0) || math.IsInf(e.Amount, 0) {
		return fmt.Errorf("amount %v must be positive and finite", e.Amount)
	}
	return nil
}

// ReadTraceFile loads a JSONL arrival trace from disk.
func ReadTraceFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	events, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return events, nil
}

// ReadTrace parses a JSONL arrival-event stream, validating each event and
// the round ordering. Blank lines are skipped; anything else malformed is
// an error with its line number — a truncated or hand-edited trace should
// fail loudly, not replay a silently different workload.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if err := e.check(); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if len(events) > 0 && e.Round < events[len(events)-1].Round {
			return nil, fmt.Errorf("line %d: round %d after round %d (events must be in round order)", line, e.Round, events[len(events)-1].Round)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// TraceWriter streams arrival events as canonical JSONL, enforcing the
// same validity and round ordering ReadTrace demands — whatever it writes
// is a valid trace:<file> scenario. Not safe for concurrent use.
type TraceWriter struct {
	w    *bufio.Writer
	c    io.Closer
	last int
}

// NewTraceWriter writes events to w; the caller owns w's lifecycle (Flush
// before discarding the writer).
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: bufio.NewWriter(w), last: -1}
}

// CreateTrace creates (or truncates) path and returns a writer that owns
// the file: Close flushes and closes it.
func CreateTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	tw := NewTraceWriter(f)
	tw.c = f
	return tw, nil
}

// Append records one event.
func (tw *TraceWriter) Append(e Event) error {
	if err := e.check(); err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	if e.Round < tw.last {
		return fmt.Errorf("trace: event round %d after round %d (rounds must not decrease)", e.Round, tw.last)
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if _, err := tw.w.Write(b); err != nil {
		return err
	}
	if err := tw.w.WriteByte('\n'); err != nil {
		return err
	}
	tw.last = e.Round
	return nil
}

// Flush pushes buffered events to the underlying writer.
func (tw *TraceWriter) Flush() error { return tw.w.Flush() }

// Close flushes and, when the writer owns its file (CreateTrace), closes
// it.
func (tw *TraceWriter) Close() error {
	if err := tw.w.Flush(); err != nil {
		if tw.c != nil {
			tw.c.Close()
		}
		return err
	}
	if tw.c != nil {
		return tw.c.Close()
	}
	return nil
}
