package batch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Journal is a parsed JSONL journal: the spec headers and the cells
// recovered before the first undecodable line.
type Journal struct {
	// Specs are the specs the journal's outcomes were produced under, one
	// per header line in order — several when shard journals were
	// concatenated, empty for headerless journals. Resume uses them to
	// refuse journals whose run parameters don't match the resuming spec.
	Specs []Spec
	// Cells are the recovered cells, in journal order.
	Cells []Cell
	// Dropped counts the non-empty lines discarded as corrupt/truncated.
	Dropped int
}

// ReadJournal parses a JSONL journal written by JSONLSink: a spec header
// followed by one Cell per line. A sweep killed mid-write can leave a torn
// final line, and a corrupt byte invalidates everything after it (there is
// no resynchronization point inside a line) — so parsing stops at the first
// undecodable line, and the remainder, like a torn tail, is discarded into
// Dropped; Resume simply re-runs the units those lines would have covered,
// which is the safe direction. err reports I/O failures only.
func ReadJournal(r io.Reader) (*Journal, error) {
	j := &Journal{}
	jr := journalReader{br: bufio.NewReader(r)}
	for {
		header, c, ok, err := jr.next()
		switch {
		case err != nil:
			return j, fmt.Errorf("batch: journal: %w", err)
		case !ok:
			j.Dropped = jr.lost()
			return j, nil
		case header != nil:
			j.Specs = append(j.Specs, *header.Spec)
		default:
			j.Cells = append(j.Cells, c)
		}
	}
}

// journalReader is the one decoder of the journal line format; ReadJournal,
// MergeJournals and JournalTailer all pull records through it, so every
// reader agrees on what a journal holds:
//   - blank lines are skipped;
//   - a line is a record only once its newline has been read — an
//     unterminated final line is a torn tail (a write in flight, or cut
//     short by a kill), left unconsumed;
//   - the first complete line that fails to decode ends the read, and it
//     and every later non-empty line count as dropped.
//
// Headers are recognized anywhere, not just on line one: concatenated
// shard journals carry one per shard, and every one of them must reach the
// spec checks (a mid-file header misread as a Cell would both bypass the
// parameter check and inject a phantom zero-value cell).
type journalReader struct {
	br *bufio.Reader
	// off is the byte offset just past last, the last complete line: where
	// a read resumed over the grown file picks up.
	off  int64
	last []byte
	// corrupt is set once a complete line failed to decode; dropped counts
	// that line and every complete non-empty line after it.
	corrupt bool
	dropped int
	// torn reports that the input read so far ends in an unterminated
	// non-empty line.
	torn bool
}

// next returns the next record: a spec header (header non-nil) or a cell.
// ok is false once the input is exhausted; err reports I/O failures only.
func (r *journalReader) next() (header *specHeader, c Cell, ok bool, err error) {
	for {
		line, readErr := r.br.ReadBytes('\n')
		if readErr != nil {
			r.torn = len(bytes.TrimSpace(line)) > 0
			if readErr == io.EOF {
				readErr = nil
			}
			return nil, Cell{}, false, readErr
		}
		r.off += int64(len(line))
		r.last = line
		t := bytes.TrimSpace(line)
		if len(t) == 0 {
			continue
		}
		if !r.corrupt {
			h, cell, perr := parseJournalLine(t)
			if perr == nil {
				return h, cell, true, nil
			}
			r.corrupt = true
		}
		r.dropped++
	}
}

// lost is what a one-shot read discards: the dropped lines plus a torn
// tail, which no later write will complete.
func (r *journalReader) lost() int {
	if r.torn {
		return r.dropped + 1
	}
	return r.dropped
}

// parseJournalLine classifies one non-empty journal line. A header is
// distinguishable by its "spec" key, which a cell line never has; a line
// that decodes as neither reports an error.
func parseJournalLine(t []byte) (*specHeader, Cell, error) {
	var h specHeader
	if json.Unmarshal(t, &h) == nil && h.Spec != nil {
		return &h, Cell{}, nil
	}
	var c Cell
	if err := json.Unmarshal(t, &c); err != nil {
		return nil, Cell{}, err
	}
	return nil, c, nil
}

// CheckSpec verifies every run-parameter header recorded in the journal
// matches spec. A unit Key names only the grid coordinates (topology,
// algorithm, mode, workload, seed), so outcomes recorded under a different
// n, scale, ε or round cap would replay cleanly by Key while silently
// corrupting the merged figure — exactly the mistake this check turns into
// an error, including for a single mismatched shard inside a concatenated
// journal. Headerless journals (truncated before the header, or written by
// hand) pass on trust. Resume runs the check itself; CLIs also call it
// before truncating the output journal, while the partial one is still the
// only copy.
func (j *Journal) CheckSpec(spec Spec) error {
	want := spec.withDefaults()
	for _, js := range j.Specs {
		if js.N != want.N || js.Scale != want.Scale || js.Epsilon != want.Epsilon || js.MaxRounds != want.MaxRounds {
			return fmt.Errorf(
				"batch: resume: journal was recorded with n=%d scale=%g epsilon=%g max_rounds=%d, "+
					"but this sweep uses n=%d scale=%g epsilon=%g max_rounds=%d — "+
					"outcomes are not comparable; match the parameters or start fresh without the journal",
				js.N, js.Scale, js.Epsilon, js.MaxRounds,
				want.N, want.Scale, want.Epsilon, want.MaxRounds)
		}
	}
	return nil
}

// ReadJournalFile is ReadJournal over the file at path.
func ReadJournalFile(path string) (*Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("batch: journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}

// Resume re-runs spec against a partial journal: units whose Key appears in
// journal.Cells with an empty Err adopt the journaled outcome without
// re-running; missing, failed and cancelled units are re-enqueued on the
// pool. The merged report — and the stream delivered to sink, typically a
// fresh journal replacing the partial one — is byte-identical to an
// uninterrupted run of the same spec, for any worker count: replayed
// outcomes round-trip exactly through JSON, derived statistics are
// recomputed from them, and re-run units draw the same Key-derived RNG
// streams they would have drawn the first time.
//
// A unit Key names only the grid coordinates (topology, algorithm, mode,
// workload, seed), not the run parameters, so when the journal carries a
// spec header Resume refuses to merge outcomes produced under a different
// n, scale, ε or round cap — that mismatch would silently corrupt the
// figure. Headerless journals are replayed on trust.
//
// Journal cells whose Key is not in spec's expansion are ignored, so a
// journal can be replayed against a grown grid; keys duplicated by repeated
// resumes resolve to the last occurrence. A nil journal runs the whole grid
// fresh.
//
// Units not yet started when ctx fires record ctx.Err() in their cells; the
// already-running ones finish normally, and the partial report is returned
// together with ctx.Err(). sink, when non-nil, receives every finished cell
// in expansion order (see Sink).
func Resume(ctx context.Context, spec Spec, run RunFunc, journal *Journal, sink Sink) (*Report, error) {
	replay, err := journal.replayFor(spec)
	if err != nil {
		return nil, err
	}
	return runSink(ctx, spec, run, sink, replay, true)
}

// ResumeStream is Resume without the in-process Report: cells go to sink
// only, so the run's memory footprint is independent of the unit count (the
// sequencer's bounded lookahead window is all that is ever buffered; the
// replay index holds one key and outcome per journaled unit). Pair it with
// an AggSink — which folds aggregates incrementally — to render a summary
// of a grid too large to hold cell-by-cell in RAM. sink is required.
func ResumeStream(ctx context.Context, spec Spec, run RunFunc, journal *Journal, sink Sink) error {
	if sink == nil {
		return fmt.Errorf("batch: ResumeStream needs a sink")
	}
	replay, err := journal.replayFor(spec)
	if err != nil {
		return err
	}
	_, err = runSink(ctx, spec, run, sink, replay, false)
	return err
}

// replayFor checks the journal's headers against spec and indexes its clean
// outcomes by unit Key; keys duplicated by repeated resumes resolve to the
// last occurrence. A nil journal replays nothing.
func (j *Journal) replayFor(spec Spec) (map[string]Outcome, error) {
	if j == nil {
		return nil, nil
	}
	if err := j.CheckSpec(spec); err != nil {
		return nil, err
	}
	replay := make(map[string]Outcome, len(j.Cells))
	for _, c := range j.Cells {
		if c.Err != "" {
			continue
		}
		replay[c.Key()] = c.Outcome
	}
	return replay, nil
}
