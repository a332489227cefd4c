package batch_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/batch"
)

// journalBytes runs okSpec through a JSONL sink and returns the journal.
func journalBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := batch.Resume(context.Background(), okSpec(), fakeRun, nil, batch.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanOnce writes b to a fresh file and tallies it with one tailer Scan —
// the one-shot progress read.
func scanOnce(t *testing.T, b []byte) batch.JournalProgress {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := batch.NewJournalTailer(path).Scan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScanJournalProgressComplete(t *testing.T) {
	p := scanOnce(t, journalBytes(t))
	want := okSpec().UnitCount()
	if p.Cells != want || p.Failed != 0 || p.Torn || p.Dropped != 0 {
		t.Fatalf("progress = %+v, want %d clean cells", p, want)
	}
	if len(p.Specs) != 1 {
		t.Fatalf("got %d headers, want 1", len(p.Specs))
	}
	if p.LastIndex != want-1 {
		t.Fatalf("LastIndex = %d, want %d", p.LastIndex, want-1)
	}
	if !p.Done() {
		t.Fatal("complete journal not reported Done")
	}
}

// TestScanJournalProgressTornTail cuts the journal mid-line — the state a
// SIGKILL during a write leaves behind — and checks the scan reports Torn
// without treating it as corruption or an error.
func TestScanJournalProgressTornTail(t *testing.T) {
	b := journalBytes(t)
	lines := bytes.SplitAfter(b, []byte("\n"))
	// Keep the header and 5 cells, then half of the 6th cell's line.
	torn := bytes.Join(lines[:6], nil)
	torn = append(torn, lines[6][:len(lines[6])/2]...)
	p := scanOnce(t, torn)
	if p.Cells != 5 || !p.Torn || p.Dropped != 0 {
		t.Fatalf("progress = %+v, want 5 cells + torn tail", p)
	}
	if p.Done() {
		t.Fatal("torn journal reported Done")
	}
}

// TestScanJournalProgressCorruptInterior flips a complete interior line into
// garbage: that is corruption (Dropped), not a torn tail, and the scan stops
// there like ReadJournal does.
func TestScanJournalProgressCorruptInterior(t *testing.T) {
	b := journalBytes(t)
	lines := bytes.SplitAfter(b, []byte("\n"))
	lines[3] = []byte("{not json\n")
	p := scanOnce(t, bytes.Join(lines, nil))
	if p.Cells != 2 || p.Torn {
		t.Fatalf("progress = %+v, want 2 cells before the corruption", p)
	}
	if p.Dropped != len(lines)-3-1 { // everything from the bad line on (last split entry is empty)
		t.Fatalf("Dropped = %d, want %d", p.Dropped, len(lines)-3-1)
	}
}

// TestScanJournalProgressHeaderOnly covers the empty-shard shape: a journal
// holding a lone spec header is zero units done, not an error — and when the
// header says the shard owns nothing, it is already Done.
func TestScanJournalProgressHeaderOnly(t *testing.T) {
	spec := okSpec()
	var buf bytes.Buffer
	sink := batch.NewJSONLSink(&buf)
	if err := sink.Spec(spec); err != nil {
		t.Fatal(err)
	}
	p := scanOnce(t, buf.Bytes())
	if p.Cells != 0 || p.LastIndex != -1 || p.Torn || p.Dropped != 0 || len(p.Specs) != 1 {
		t.Fatalf("progress = %+v, want header-only", p)
	}
	if p.Done() {
		t.Fatal("unsharded header-only journal reported Done")
	}

	// A shard that owns zero units (m > unit count) journals only its header
	// and is complete by construction.
	empty, err := spec.Shard(spec.UnitCount(), spec.UnitCount()+1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := batch.NewJSONLSink(&buf).Spec(empty); err != nil {
		t.Fatal(err)
	}
	if p := scanOnce(t, buf.Bytes()); !p.Done() {
		t.Fatalf("empty shard's header-only journal not Done: %+v", p)
	}
}

// TestScanJournalProgressFileMissing is the shard-never-started shape the
// supervisor's stall detector leans on: no file yet means zero progress,
// not an error.
func TestScanJournalProgressFileMissing(t *testing.T) {
	p, err := batch.NewJournalTailer(filepath.Join(t.TempDir(), "nope.jsonl")).Scan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells != 0 || p.LastIndex != -1 || len(p.Specs) != 0 {
		t.Fatalf("progress = %+v, want zero", p)
	}
}

// TestScanJournalProgressWhileGrowing re-scans a journal file between
// appends — including appends cut mid-line — the way the supervisor tails a
// live shard: every scan must see exactly the complete lines written so
// far, with the partial tail reported Torn and resolved by the next scan.
func TestScanJournalProgressWhileGrowing(t *testing.T) {
	b := journalBytes(t)
	lines := bytes.SplitAfter(b, []byte("\n"))
	path := filepath.Join(t.TempDir(), "grow.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	tailer := batch.NewJournalTailer(path)
	wrote := 0 // complete cell lines on disk
	check := func(torn bool) {
		t.Helper()
		p, err := tailer.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if p.Cells != wrote || p.Torn != torn || p.Dropped != 0 {
			t.Fatalf("after %d complete lines (torn=%v): progress = %+v", wrote, torn, p)
		}
	}

	check(false) // empty file
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		// Write all but the newline, scan (torn: a line counts only once its
		// newline is in), then finish the line and scan again.
		if _, err := f.Write(line[:len(line)-1]); err != nil {
			t.Fatal(err)
		}
		check(true)
		if _, err := f.Write(line[len(line)-1:]); err != nil {
			t.Fatal(err)
		}
		if i > 0 { // line 0 is the header
			wrote++
		}
		check(false)
	}
	if wrote != okSpec().UnitCount() {
		t.Fatalf("test wrote %d cells, want %d", wrote, okSpec().UnitCount())
	}
}

// TestJournalTailerMatchesFullRescan appends a journal byte range by byte
// range — including cuts mid-line — and checks the incremental tailer's
// tally equals a from-scratch read at every step. This is the supervisor's
// cheap poll path: same numbers, O(new data) per Scan. The journals carry
// the shapes where readers used to disagree: a corrupt interior line
// (everything from it on is dropped, including cells the tailer could
// still parse) and an unterminated final line that decodes (torn, not a
// cell).
func TestJournalTailerMatchesFullRescan(t *testing.T) {
	b := journalBytes(t)
	lines := bytes.SplitAfter(b, []byte("\n"))
	unterminated := bytes.TrimSuffix(lines[len(lines)-2], []byte("\n"))
	corrupt := append([][]byte(nil), lines...)
	corrupt[4] = []byte("{not json\n")
	journals := map[string][]byte{
		"clean":              b,
		"corrupt interior":   append(bytes.Join(corrupt, nil), unterminated...),
		"unterminated final": append(bytes.Join(lines[:len(lines)-2], nil), unterminated...),
	}
	for name, b := range journals {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tail.jsonl")
			tailer := batch.NewJournalTailer(path)

			// Before the file exists: zero progress, no error.
			p, err := tailer.Scan()
			if err != nil || p.Cells != 0 || p.LastIndex != -1 {
				t.Fatalf("pre-creation scan: %+v err=%v", p, err)
			}

			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Append in ragged 37-byte chunks so most scans land mid-line.
			for start := 0; start < len(b); start += 37 {
				end := start + 37
				if end > len(b) {
					end = len(b)
				}
				if _, err := f.Write(b[start:end]); err != nil {
					t.Fatal(err)
				}
				got, err := tailer.Scan()
				if err != nil {
					t.Fatal(err)
				}
				if want := scanOnce(t, b[:end]); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d bytes: tailer %+v != rescan %+v", end, got, want)
				}
				j, err := batch.ReadJournal(bytes.NewReader(b[:end]))
				if err != nil {
					t.Fatal(err)
				}
				lost := got.Dropped
				if got.Torn {
					lost++
				}
				if got.Cells != len(j.Cells) || len(got.Specs) != len(j.Specs) || lost != j.Dropped {
					t.Fatalf("after %d bytes: tailer %+v disagrees with ReadJournal (%d cells, %d headers, %d dropped)",
						end, got, len(j.Cells), len(j.Specs), j.Dropped)
				}
			}
		})
	}
}

// TestJournalTailerResetsOnRewrite: a ReplaceJSONL resume truncates and
// rewrites the journal; the tailer must notice the shrink and start over
// rather than folding the new file's cells on top of the old tally.
func TestJournalTailerResetsOnRewrite(t *testing.T) {
	b := journalBytes(t)
	path := filepath.Join(t.TempDir(), "tail.jsonl")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	tailer := batch.NewJournalTailer(path)
	if p, err := tailer.Scan(); err != nil || p.Cells != okSpec().UnitCount() {
		t.Fatalf("initial scan: %+v err=%v", p, err)
	}

	// Rewrite shorter: header + 3 cells.
	lines := bytes.SplitAfter(b, []byte("\n"))
	if err := os.WriteFile(path, bytes.Join(lines[:4], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := tailer.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells != 3 || len(p.Specs) != 1 {
		t.Fatalf("post-rewrite tally not reset: %+v", p)
	}

	// Rewrite longer: a resume replaces the cancelled third cell with its
	// re-run and appends the rest, growing the file past the tailer's offset
	// without ever shrinking it below.
	cancelled := bytes.Replace(lines[3], []byte("}\n"), []byte(`,"error":"context canceled"}`+"\n"), 1)
	if err := os.WriteFile(path, append(bytes.Join(lines[:3], nil), cancelled...), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := tailer.Scan(); err != nil || p.Cells != 3 || p.Failed != 1 {
		t.Fatalf("cancelled-tail scan: %+v err=%v", p, err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := tailer.Scan(); err != nil || !reflect.DeepEqual(p, scanOnce(t, b)) {
		t.Fatalf("post-resume tally %+v (err %v), want %+v", p, err, scanOnce(t, b))
	}
}

// TestCreateJSONLRefusesExisting is the two-shards-one-journal accident:
// the second process to open the same path must fail loudly before writing
// a byte, not interleave lines.
func TestCreateJSONLRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.jsonl")
	first, err := batch.CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := batch.CreateJSONL(path); err == nil {
		t.Fatal("second CreateJSONL on the same path succeeded")
	} else if !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestReplaceJSONLTruncates is the resume-in-place open: replacing an
// existing journal after reading it back is deliberate and allowed.
func TestReplaceJSONLTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.jsonl")
	if err := os.WriteFile(path, []byte("old partial journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, err := batch.ReplaceJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Spec(okSpec()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("old partial")) {
		t.Fatal("ReplaceJSONL did not truncate")
	}
	if p := scanOnce(t, b); len(p.Specs) != 1 {
		t.Fatalf("rewritten journal unreadable: %+v", p)
	}
}
