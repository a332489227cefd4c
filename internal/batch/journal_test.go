package batch_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/batch"
)

// FuzzJournalRead feeds arbitrary bytes to every journal reader and checks
// they agree on what the journal holds — specs, cells and dropped lines:
// ReadJournal, one JournalTailer Scan, a tailer that sees the bytes arrive
// in two appends split at cut, and MergeJournals over the file whenever it
// accepts it. One-shot readers count a torn tail into Dropped; the tailer
// reports it as Torn instead. The seed corpus under testdata/fuzz covers a
// torn tail, a corrupt interior line, a mid-file header, reordered and
// duplicated cell lines, an empty file and CRLF line endings.
func FuzzJournalRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		j, err := batch.ReadJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "once.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		once, err := batch.NewJournalTailer(path).Scan()
		if err != nil {
			t.Fatal(err)
		}
		want := batch.JournalProgress{Specs: j.Specs, Cells: len(j.Cells), LastIndex: -1}
		for _, c := range j.Cells {
			if c.Err != "" {
				want.Failed++
			}
			want.LastIndex = max(want.LastIndex, c.Index)
		}
		want.Torn, want.Dropped = once.Torn, j.Dropped
		if once.Torn {
			want.Dropped--
		}
		if !reflect.DeepEqual(once, want) {
			t.Fatalf("tailer %+v, ReadJournal implies %+v", once, want)
		}

		k := int(cut % uint(len(data)+1))
		grown := filepath.Join(dir, "grown.jsonl")
		if err := os.WriteFile(grown, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		tailer := batch.NewJournalTailer(grown)
		if _, err := tailer.Scan(); err != nil {
			t.Fatal(err)
		}
		fh, err := os.OpenFile(grown, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = fh.Write(data[k:])
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		twice, err := tailer.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(twice, once) {
			t.Fatalf("tailer over two appends split at %d: %+v, one scan: %+v", k, twice, once)
		}

		merged, stats, err := batch.ReadMergedJournals(path)
		if err != nil {
			return // out-of-order cells or mismatched headers: refused, not misread
		}
		if !reflect.DeepEqual(merged.Specs, j.Specs) || !reflect.DeepEqual(merged.Cells, j.Cells) || stats.Dropped != j.Dropped {
			t.Fatalf("merge read %d specs, %d cells, %d dropped; ReadJournal %d, %d, %d",
				len(merged.Specs), len(merged.Cells), stats.Dropped, len(j.Specs), len(j.Cells), j.Dropped)
		}
	})
}
