package batch

import (
	"bufio"
	"fmt"
	"os"
	"slices"
)

// MergeStats summarizes one merge pass.
type MergeStats struct {
	// Journals is how many journal files were merged, Cells how many cells
	// were delivered to the sink, and Dropped how many corrupt/truncated
	// lines were discarded across all inputs.
	Journals, Cells, Dropped int
}

// MergeJournals merges the per-shard JSONL journals at paths into sink.
//
// Shard journals are each written in expansion order, so their cell indices
// are strictly increasing per file and disjoint across shards; a k-way merge
// by unit Index therefore reconstructs the exact global expansion order a
// single-process sweep would have streamed — which is what lets a sink fold
// or re-journal the merged stream bit-identically. Memory stays at one
// buffered cell per input file, independent of the unit count.
//
// Validation fails loudly instead of corrupting a figure quietly:
//   - every spec header must describe the same grid (dimensions, n, scale,
//     ε, round cap) as the first one — only the shard assignment may differ;
//     each header is also forwarded to the sink (SpecWriter) in encounter
//     order, so an AggSink can total the expected units per shard;
//   - a unit Index appearing in two journals (overlapping or duplicated
//     shards, the same shard merged twice) is an error naming the unit and
//     both files;
//   - a journal whose indices are not strictly increasing (e.g. two shard
//     journals hand-concatenated into one file) is rejected — pass the
//     original per-shard files separately, or replay a concatenated journal
//     through Resume, which orders by Key instead.
//
// A torn final line (shard killed mid-write) or a corrupt one is tolerated
// exactly as ReadJournal tolerates it — the same decoder reads both: the
// remainder of that file is dropped and counted, and the missing units
// simply stay missing — Resume re-runs them.
func MergeJournals(sink Sink, paths ...string) (MergeStats, error) {
	var stats MergeStats
	if len(paths) == 0 {
		return stats, fmt.Errorf("batch: merge: no journals given")
	}
	var ref *Spec
	scanners := make([]*journalScanner, 0, len(paths))
	defer func() {
		for _, s := range scanners {
			s.close()
		}
	}()
	for _, path := range paths {
		path := path
		onSpec := func(sp Spec) error {
			if ref == nil {
				first := sp.withDefaults()
				ref = &first
			} else if err := SameGrid(*ref, sp); err != nil {
				return fmt.Errorf("batch: merge: journal %s: %w", path, err)
			}
			if sw, ok := sink.(SpecWriter); ok {
				return sw.Spec(sp)
			}
			return nil
		}
		s, err := openJournalScanner(path, onSpec)
		if err != nil {
			return stats, err
		}
		scanners = append(scanners, s)
		// Priming pulls the file's leading header(s) through onSpec before
		// any cell flows, in path order — deterministic header delivery.
		if err := s.advance(); err != nil {
			return stats, err
		}
		stats.Journals++
	}

	lastIdx, lastPath := -1, ""
	for {
		best := -1
		for i, s := range scanners {
			if s.ok && (best == -1 || s.cur.Index < scanners[best].cur.Index) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		c := scanners[best].cur
		if c.Index == lastIdx {
			return stats, fmt.Errorf(
				"batch: merge: unit %s (index %d) appears in both %s and %s — "+
					"shard journals overlap; merge each shard's journal exactly once",
				c.Key(), c.Index, lastPath, scanners[best].path)
		}
		lastIdx, lastPath = c.Index, scanners[best].path
		if err := sink.Cell(c); err != nil {
			return stats, err
		}
		stats.Cells++
		if err := scanners[best].advance(); err != nil {
			return stats, err
		}
	}
	for _, s := range scanners {
		stats.Dropped += s.jr.lost()
	}
	return stats, nil
}

// ReadMergedJournals merges the journals at paths into memory: one Journal
// with every header (in encounter order) and the cells in global expansion
// order, ready for Resume. The convenience form of MergeJournals for
// report-building callers; use MergeJournals with an AggSink when the cells
// must not materialize.
func ReadMergedJournals(paths ...string) (*Journal, MergeStats, error) {
	j := &Journal{}
	stats, err := MergeJournals(&journalCollector{j: j}, paths...)
	if err != nil {
		return nil, stats, err
	}
	j.Dropped = stats.Dropped
	return j, stats, nil
}

// journalCollector adapts a Journal to the Sink interface for
// ReadMergedJournals.
type journalCollector struct{ j *Journal }

func (c *journalCollector) Spec(s Spec) error {
	c.j.Specs = append(c.j.Specs, s)
	return nil
}

func (c *journalCollector) Cell(cell Cell) error {
	c.j.Cells = append(c.j.Cells, cell)
	return nil
}

func (c *journalCollector) Close() error { return nil }

// SameGrid verifies two specs describe the same grid: identical dimensions
// (after the expansion's own normalization), identical seed lists and
// identical run parameters. Shard assignment and worker count are free to
// differ — they change which process computed a unit, never the unit's
// outcome. This is the merge path's compatibility check, stronger than
// Journal.CheckSpec (which compares run parameters only): two specs can
// agree on n/scale/ε while indexing entirely different grids, and a merge
// keyed by expansion index must refuse exactly that.
func SameGrid(a, b Spec) error {
	a, b = a.withDefaults(), b.withDefaults()
	if a.N != b.N || a.Scale != b.Scale || a.Epsilon != b.Epsilon || a.MaxRounds != b.MaxRounds {
		return fmt.Errorf(
			"run parameters differ (n=%d scale=%g epsilon=%g max_rounds=%d vs n=%d scale=%g epsilon=%g max_rounds=%d) — outcomes are not comparable",
			a.N, a.Scale, a.Epsilon, a.MaxRounds, b.N, b.Scale, b.Epsilon, b.MaxRounds)
	}
	a, err := a.Canonical()
	if err != nil {
		return err
	}
	b, err = b.Canonical()
	if err != nil {
		return err
	}
	bd := b.nameDims()
	for i, d := range a.nameDims() {
		if !slices.Equal(*d.names, *bd[i].names) {
			return fmt.Errorf("%s dimensions differ (%v vs %v) — these journals index different grids; "+
				"merge only shards of one sweep, or concatenate and replay through -resume (which matches by Key)", d.dim, *d.names, *bd[i].names)
		}
	}
	// Scenarios compare in canonical form, so "bursty" matches
	// "bursty:16:0.25" (same process) and an old scenario-free journal
	// header (nil → default {"static"}) matches a defaulted new one.
	as, err := a.CanonicalScenarios()
	if err != nil {
		return err
	}
	bs, err := b.CanonicalScenarios()
	if err != nil {
		return err
	}
	if !slices.Equal(as, bs) {
		return fmt.Errorf("scenario dimensions differ (%v vs %v) — these journals index different grids; "+
			"merge only shards of one sweep, or concatenate and replay through -resume (which matches by Key)", as, bs)
	}
	if !slices.Equal(a.Seeds, b.Seeds) {
		return fmt.Errorf("seed lists differ (%v vs %v)", a.Seeds, b.Seeds)
	}
	return nil
}

// journalScanner pulls one journal file cell by cell for the k-way merge,
// processing header lines through onSpec as they are encountered and
// enforcing the strictly-increasing index invariant every engine-written
// journal satisfies.
type journalScanner struct {
	path    string
	f       *os.File
	jr      journalReader
	onSpec  func(Spec) error
	cur     Cell
	ok      bool
	lastIdx int
}

func openJournalScanner(path string, onSpec func(Spec) error) (*journalScanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("batch: merge: %w", err)
	}
	return &journalScanner{
		path: path, f: f, jr: journalReader{br: bufio.NewReader(f)},
		onSpec: onSpec, lastIdx: -1,
	}, nil
}

func (s *journalScanner) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// advance loads the file's next cell into cur (ok reports whether one is
// available). Headers are forwarded inline; corrupt lines and a torn tail
// end the file exactly as they end ReadJournal.
func (s *journalScanner) advance() error {
	s.ok = false
	for {
		header, cell, ok, err := s.jr.next()
		switch {
		case err != nil:
			return fmt.Errorf("batch: merge: journal %s: %w", s.path, err)
		case !ok:
			return nil
		case header != nil:
			if err := s.onSpec(*header.Spec); err != nil {
				return err
			}
		default:
			if cell.Index <= s.lastIdx {
				return fmt.Errorf(
					"batch: merge: journal %s is not in expansion order (index %d after %d) — "+
						"was it hand-concatenated? pass the original per-shard journals separately",
					s.path, cell.Index, s.lastIdx)
			}
			s.lastIdx = cell.Index
			s.cur, s.ok = cell, true
			return nil
		}
	}
}
