package batch

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Sink consumes finished cells one at a time. The engine feeds every sink
// through a sequencing layer that reorders completion-ordered results into
// expansion order, so a sink sees exactly the stream a Workers=1 run would
// produce — deterministic for any worker count — while each cell is still
// delivered the moment it (and all its predecessors) finished, not at the
// end of the sweep.
//
// Sink methods are never called concurrently. The engine does not call
// Close: the sink's creator owns its lifetime (a CLI closes its journal file
// after rendering, a test after asserting).
type Sink interface {
	// Cell receives one finished cell (successful, failed or cancelled —
	// failed cells carry their identity and a non-empty Err).
	Cell(c Cell) error
	// Close flushes and releases the sink.
	Close() error
}

// SpecWriter is an optional Sink extension: sinks that record provenance
// receive the fully-defaulted spec once, before any cell. JSONLSink uses it
// to stamp the journal with the parameters its outcomes were produced
// under, which is what lets Resume refuse a journal recorded for a
// different n/scale/ε (outcomes from different parameters are not
// comparable and would silently corrupt a merged figure).
type SpecWriter interface {
	Spec(spec Spec) error
}

// JSONLSink streams each finished cell as one JSON line. Every line is
// emitted with a single Write call, so an interrupted sweep leaves a valid
// journal of complete lines (plus at most one torn final line, which
// ReadJournal tolerates); nothing is buffered in user space between cells.
// The journal is the input to Resume.
type JSONLSink struct {
	w      io.Writer
	closer io.Closer
}

// NewJSONLSink streams cells to w. Close does not close w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// CreateJSONL creates the journal file at path and streams cells to it.
// Close closes the file.
//
// The open is O_EXCL: a journal that already exists is refused instead of
// truncated. Two shard processes accidentally pointed at the same journal
// path would otherwise interleave their lines into a file no reader could
// validate — the second opener now fails loudly before writing a byte. A
// journal that should legitimately be rewritten is either resumed in place
// (ReplaceJSONL, after its cells have been read back) or removed first.
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf(
				"batch: journal %s already exists — resume it (it may hold another shard's, or a previous run's, cells) or remove it first", path)
		}
		return nil, fmt.Errorf("batch: journal: %w", err)
	}
	return &JSONLSink{w: f, closer: f}, nil
}

// ReplaceJSONL truncates and rewrites the journal at path — the
// resume-in-place open, for callers that have already read the partial
// journal back and are about to re-journal every cell (replayed and fresh)
// through the new sink. Everything CreateJSONL's O_EXCL protects against is
// deliberate here.
func ReplaceJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("batch: journal: %w", err)
	}
	return &JSONLSink{w: f, closer: f}, nil
}

// specHeader is the journal's first line: the spec the cells were produced
// under. Cells never carry a "spec" key, so the reader can tell the two
// line shapes apart without a format version. Unknown header keys, such as
// the "origin" older journals carry, are ignored.
type specHeader struct {
	Spec *Spec `json:"spec"`
}

// Spec writes the journal header line (implements SpecWriter). An
// all-static scenario dimension is serialized as absent — the legacy
// header form — so scenario-free journals stay byte-identical across
// engine versions and golden-journal comparisons keep holding.
func (s *JSONLSink) Spec(spec Spec) error {
	spec = spec.headerCanonical()
	b, err := json.Marshal(specHeader{Spec: &spec})
	if err != nil {
		return fmt.Errorf("batch: journal: marshal spec: %w", err)
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	return nil
}

// Cell writes c as one JSON line.
func (s *JSONLSink) Cell(c Cell) error {
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("batch: journal: marshal %s: %w", c.Key(), err)
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	return nil
}

// Close fsyncs the journal (when the writer supports it) and closes the
// underlying file when the sink owns one. The sync is what makes a cleanly
// exiting shard's journal durable: without it, the final lines could still
// sit in the OS page cache when the process exits, and a machine crash
// before writeback would hand the merger a torn tail even though the shard
// reported success.
func (s *JSONLSink) Close() error {
	if f, ok := s.w.(interface{ Sync() error }); ok {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("batch: journal: sync: %w", err)
		}
	}
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// MultiSink fans every cell out to each sink in order. A failing sink does
// not stop delivery to the others; the first error is reported.
type MultiSink []Sink

// Spec forwards the spec to every member implementing SpecWriter.
func (m MultiSink) Spec(spec Spec) error {
	var first error
	for _, s := range m {
		if sw, ok := s.(SpecWriter); ok {
			if err := sw.Spec(spec); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Cell delivers c to every sink.
func (m MultiSink) Cell(c Cell) error {
	var first error
	for _, s := range m {
		if err := s.Cell(c); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close closes every sink.
func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sequencer is the ordering layer between the worker pool and a sink: units
// finish in scheduling order, but the sink must observe expansion order for
// its output to be deterministic across worker counts. Workers hand each
// finished cell to deliver, which buffers it until every lower-index cell
// has been passed on.
//
// Dynamic index hand-out puts no bound of its own on how far workers can
// run ahead of one slow unit, so the sequencer enforces one: acquire blocks
// a worker whose index is more than lookahead cells past the oldest
// undelivered unit. That caps both the pending buffer and the journal's lag
// behind the computation frontier — after a hard kill, at most
// lookahead+workers completed cells can be missing from the journal (they
// simply re-run on resume).
type sequencer struct {
	mu        sync.Mutex
	ready     sync.Cond // broadcast whenever next advances
	sink      Sink      // nil → pure reordering no-op
	next      int
	pending   map[int]Cell
	err       error  // first sink error; delivery stops feeding the sink after it
	abort     func() // cancels the sweep when the sink fails
	lookahead int    // max distance a worker may run ahead of next (≤ 0 = unbounded)
}

func newSequencer(sink Sink, abort func(), lookahead int) *sequencer {
	q := &sequencer{sink: sink, pending: make(map[int]Cell), abort: abort, lookahead: lookahead}
	q.ready.L = &q.mu
	return q
}

// acquire blocks until index i is within the lookahead window. The worker
// holding the oldest undelivered index never blocks (i == next there), so
// the window always makes progress.
func (q *sequencer) acquire(i int) {
	if q.lookahead <= 0 {
		return
	}
	q.mu.Lock()
	for i >= q.next+q.lookahead {
		q.ready.Wait()
	}
	q.mu.Unlock()
}

// deliver registers cell i and flushes the contiguous run starting at next.
func (q *sequencer) deliver(i int, c Cell) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending[i] = c
	advanced := false
	for {
		ready, ok := q.pending[q.next]
		if !ok {
			break
		}
		delete(q.pending, q.next)
		q.next++
		advanced = true
		if q.sink == nil || q.err != nil {
			continue
		}
		if err := q.sink.Cell(ready); err != nil {
			q.err = err
			if q.abort != nil {
				q.abort()
			}
		}
	}
	if advanced {
		q.ready.Broadcast()
	}
}
