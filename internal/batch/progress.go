package batch

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// JournalProgress summarizes how far a shard journal has gotten, without
// retaining a single cell — the orchestrator's view of a running (or dead)
// shard. It is safe to take while the writing process is still appending:
// the scan reads to EOF, and whatever the writer had not finished flushing
// yet simply shows up as a torn tail that the next scan resolves.
type JournalProgress struct {
	// Specs are the spec headers encountered, in order (one per shard
	// journal; several for concatenated files). A header-only journal — an
	// empty shard, or a shard killed before its first cell — has Specs but
	// zero Cells.
	Specs []Spec
	// Cells counts the complete, decodable cell lines; Failed how many of
	// them carry an error (failed or cancelled units).
	Cells  int
	Failed int
	// LastIndex is the highest unit expansion index seen (-1 when no cell
	// has been journaled yet). Engine-written journals are in expansion
	// order, so this is also the journal's final cell.
	LastIndex int
	// Torn reports a final line with no trailing newline — the signature of
	// a write in progress (or cut short by a kill). A torn tail is not
	// corruption: the next scan rereads it once the writer finishes the
	// line. A one-shot read (ReadJournal, MergeJournals) counts it into its
	// Dropped; here it is not.
	Torn bool
	// Dropped counts the first complete-but-undecodable line (real
	// corruption) and every complete non-empty line after it; as in
	// ReadJournal, no header or cell after that line is tallied.
	Dropped int
}

// Done reports whether progress covers every unit its own headers promise:
// the shard's owned unit count when the journal is sharded, the full
// expansion otherwise. False when no header has been seen (nothing to be
// complete against).
func (p JournalProgress) Done() bool {
	if len(p.Specs) == 0 {
		return false
	}
	return p.Cells >= p.Specs[0].OwnedUnitCount()
}

// JournalTailer tallies a journal that is being appended to, incrementally:
// each Scan resumes the journal decoder at the end of the last complete
// line and folds only the bytes added since, so polling a growing
// multi-gigabyte journal every second costs O(new data), not O(file) — the
// supervisor's progress loop stays cheap for the sweep's whole lifetime.
// After every Scan the tally is exactly what one read of the whole file
// would report: the same decoder applies the same rules (see ReadJournal),
// and an unterminated tail is reported Torn and reread by the next Scan
// once the writer finishes the line. A file rewritten between scans — a
// ReplaceJSONL resume, which replaces cancelled cells with re-run ones —
// resets the tally and is re-read from the start.
type JournalTailer struct {
	path string
	jr   journalReader
	p    JournalProgress
}

// NewJournalTailer tails the journal at path (which need not exist yet).
func NewJournalTailer(path string) *JournalTailer {
	t := &JournalTailer{path: path}
	t.reset()
	return t
}

func (t *JournalTailer) reset() {
	t.jr, t.p = journalReader{}, JournalProgress{LastIndex: -1}
}

// Scan folds any bytes appended since the previous Scan and returns the
// running tally. I/O failures are the only errors; a journal that does not
// exist yet — a task that has not started, or was killed before creating
// it — is zero progress.
func (t *JournalTailer) Scan() (JournalProgress, error) {
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		t.reset()
		return t.p, nil
	}
	if err != nil {
		return t.p, fmt.Errorf("batch: journal: %w", err)
	}
	defer f.Close()
	// The last line already folded must still be in place: a file that
	// shrank or was rewritten since the previous Scan — a ReplaceJSONL
	// resume, a fresh fetch of a remote journal — is re-read from the start.
	if t.jr.off > 0 {
		last := make([]byte, len(t.jr.last))
		if _, err := f.ReadAt(last, t.jr.off-int64(len(last))); err != nil || !bytes.Equal(last, t.jr.last) {
			t.reset()
		}
	}
	if _, err := f.Seek(t.jr.off, io.SeekStart); err != nil {
		return t.p, fmt.Errorf("batch: journal: %w", err)
	}
	t.jr.br = bufio.NewReader(f)
	for {
		header, c, ok, err := t.jr.next()
		switch {
		case err != nil:
			return t.p, fmt.Errorf("batch: journal: %w", err)
		case !ok:
			t.p.Torn, t.p.Dropped = t.jr.torn, t.jr.dropped
			return t.p, nil
		case header != nil:
			t.p.Specs = append(t.p.Specs, *header.Spec)
		default:
			t.p.Cells++
			if c.Err != "" {
				t.p.Failed++
			}
			if c.Index > t.p.LastIndex {
				t.p.LastIndex = c.Index
			}
		}
	}
}
