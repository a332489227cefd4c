package batch_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
)

// TestRangeValidation: malformed unit windows are rejected by Range and, when
// the fields are planted directly, at expansion time.
func TestRangeValidation(t *testing.T) {
	spec := okSpec()
	for _, bad := range [][2]int{{-1, 0}, {5, 5}, {5, 3}} {
		if _, err := spec.Range(bad[0], bad[1]); err == nil {
			t.Fatalf("Range(%d, %d) accepted", bad[0], bad[1])
		}
	}
	direct := spec
	direct.UnitLo, direct.UnitHi = 7, 3
	if _, err := batch.Expand(direct); err == nil {
		t.Fatal("Expand accepted an inverted unit range")
	}
	direct = spec
	direct.UnitHi = -2
	if err := direct.Validate(); err == nil {
		t.Fatal("Validate accepted a negative unit range end")
	}
}

// TestRangeOwnershipArithmetic: OwnedUnitCount's closed form must agree with
// brute-force counting over the expansion for every shard × window shape,
// including windows past the end of the grid and empty intersections.
func TestRangeOwnershipArithmetic(t *testing.T) {
	spec := okSpec()
	units, err := batch.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(units)
	for _, m := range []int{1, 2, 3, 7} {
		for i := 0; i < m; i++ {
			for _, win := range [][2]int{{0, 0}, {0, 5}, {3, 17}, {17, 0}, {total - 1, 0}, {total, 0}, {0, total + 50}, {31, 32}} {
				s, err := spec.Shard(i, m)
				if err != nil {
					t.Fatal(err)
				}
				s, err = s.Range(win[0], win[1])
				if err != nil {
					t.Fatal(err)
				}
				brute := 0
				for idx := range units {
					if s.Owns(idx) {
						brute++
					}
				}
				if got := s.OwnedUnitCount(); got != brute {
					t.Fatalf("shard %d/%d window %v: OwnedUnitCount=%d, brute force=%d", i, m, win, got, brute)
				}
			}
		}
	}
}

// TestRangeCarveDisjointExhaustive: carving a shard's tail into sub-ranges —
// the supervisor's steal — partitions the shard's ownership exactly: every
// unit the victim owned is owned by precisely one of {victim prefix, thief
// ranges}, and nothing outside the shard is touched.
func TestRangeCarveDisjointExhaustive(t *testing.T) {
	spec := okSpec()
	units, err := batch.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	const m = 3
	shard, err := spec.Shard(1, m)
	if err != nil {
		t.Fatal(err)
	}
	// Split the shard at expansion index 20 and carve the tail in two at 40.
	parts := make([]batch.Spec, 0, 3)
	for _, win := range [][2]int{{0, 20}, {20, 40}, {40, 0}} {
		p, err := shard.Range(win[0], win[1])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	sum := 0
	for idx := range units {
		owners := 0
		for _, p := range parts {
			if p.Owns(idx) {
				owners++
			}
		}
		want := 0
		if shard.Owns(idx) {
			want = 1
		}
		if owners != want {
			t.Fatalf("index %d owned by %d carve parts, want %d", idx, owners, want)
		}
		sum += owners
	}
	if sum != shard.OwnedUnitCount() {
		t.Fatalf("carve covers %d units, shard owns %d", sum, shard.OwnedUnitCount())
	}
}

// runJournal runs spec into a fresh JSONL journal at path.
func runJournal(t *testing.T, spec batch.Spec, path string) {
	t.Helper()
	sink, err := batch.CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Resume(context.Background(), spec, fakeRun, nil, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeAcrossStolenSubRanges is the steal identity guarantee at engine
// level: shard 1 of 3 "dies" after its prefix, its unstarted tail is carved
// into two windowed sub-shards run elsewhere, and the merge of {shard 0,
// victim prefix, two thief journals, shard 2} must reconstruct exact global
// expansion order and a report byte-identical to the uninterrupted sweep —
// with no unit re-run by the resume.
func TestMergeAcrossStolenSubRanges(t *testing.T) {
	spec := okSpec() // 72 units
	const m = 3
	full, err := batch.Resume(context.Background(), spec, fakeRun, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	shard1, err := spec.Shard(1, m)
	if err != nil {
		t.Fatal(err)
	}
	// The victim journaled every owned unit below expansion index 31; the
	// steal split point is the next owned index.
	victim, err := shard1.Range(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	thiefA, err := shard1.Range(31, 52)
	if err != nil {
		t.Fatal(err)
	}
	thiefB, err := shard1.Range(52, 0)
	if err != nil {
		t.Fatal(err)
	}

	paths := []string{
		filepath.Join(dir, "shard0.jsonl"),
		filepath.Join(dir, "shard1.jsonl"),
		filepath.Join(dir, "shard1-steal-1.jsonl"),
		filepath.Join(dir, "shard1-steal-2.jsonl"),
		filepath.Join(dir, "shard2.jsonl"),
	}
	s0, err := spec.Shard(0, m)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := spec.Shard(2, m)
	if err != nil {
		t.Fatal(err)
	}
	runJournal(t, s0, paths[0])
	runJournal(t, victim, paths[1])
	runJournal(t, thiefA, paths[2])
	runJournal(t, thiefB, paths[3])
	runJournal(t, s2, paths[4])

	journal, stats, err := batch.ReadMergedJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Journals != 5 || stats.Dropped != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if len(journal.Cells) != len(full.Cells) {
		t.Fatalf("merged %d cells, want %d", len(journal.Cells), len(full.Cells))
	}
	for i, c := range journal.Cells {
		if c.Index != i {
			t.Fatalf("merged cell %d has index %d — stolen sub-ranges broke global order", i, c.Index)
		}
	}
	var calls atomic.Int64
	resumed, err := batch.Resume(context.Background(), spec, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		return fakeRun(u, g, loads, algoSeed)
	}, journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("complete stolen set still re-ran %d units", calls.Load())
	}
	if !bytes.Equal(renderAll(t, resumed), renderAll(t, full)) {
		t.Fatal("merged stolen sweep differs from the uninterrupted sweep")
	}

	// Stream-aggregation over the same journal set must see no missing
	// units: thief headers promise only their windows.
	agg := batch.NewAggSink()
	if _, err := batch.MergeJournals(agg, paths...); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	if missing := rep.Missing(); missing != 0 {
		t.Fatalf("stream-agg over stolen journals reports %d missing units", missing)
	}
}

// TestMergeRejectsOverlappingStolenRanges: a thief window that re-covers
// units the victim already journaled is an overlap, not a quiet
// double-count.
func TestMergeRejectsOverlappingStolenRanges(t *testing.T) {
	spec := okSpec()
	shard1, err := spec.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := shard1.Range(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	thief, err := shard1.Range(31, 0) // overlaps the victim's [31, 40)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "victim.jsonl"), filepath.Join(dir, "thief.jsonl")
	runJournal(t, victim, a)
	runJournal(t, thief, b)
	if _, _, err := batch.ReadMergedJournals(a, b); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping stolen ranges accepted: %v", err)
	}
}

// TestJournalTailerPartialFetch models the ssh launcher's journal fetch: the
// remote journal is copied home repeatedly, each snapshot a longer prefix of
// the final file — often cut mid-line, exactly what a cat racing an appender
// produces. The tailer must fold each increment once, report the torn tail
// while it lasts, and converge on the true tally with nothing double-counted.
func TestJournalTailerPartialFetch(t *testing.T) {
	spec := okSpec()
	shard, err := spec.Shard(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	remote := filepath.Join(dir, "remote.jsonl")
	runJournal(t, shard, remote)
	final, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	want := scanOnce(t, final)

	local := filepath.Join(dir, "fetched.jsonl")
	fetch := func(n int) {
		t.Helper()
		tmp := local + ".tmp"
		if err := os.WriteFile(tmp, final[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, local); err != nil {
			t.Fatal(err)
		}
	}

	tailer := batch.NewJournalTailer(local)
	// Before any fetch: zero progress, no error.
	p, err := tailer.Scan()
	if err != nil || p.Cells != 0 || p.LastIndex != -1 {
		t.Fatalf("pre-fetch scan: %+v, %v", p, err)
	}
	sawTorn := false
	for _, tenths := range []int{1, 3, 5, 6, 8, 9} { // strictly growing prefixes, mostly mid-line
		n := len(final) * tenths / 10
		fetch(n)
		p, err = tailer.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if final[n-1] != '\n' && p.Torn {
			sawTorn = true
		}
		if p.Cells > want.Cells {
			t.Fatalf("partial fetch tallied %d cells, final journal has %d", p.Cells, want.Cells)
		}
	}
	if !sawTorn {
		t.Fatal("no mid-line fetch reported a torn tail")
	}
	fetch(len(final))
	p, err = tailer.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells != want.Cells || p.LastIndex != want.LastIndex || p.Torn || p.Dropped != 0 {
		t.Fatalf("converged tally %+v, want %+v", p, want)
	}
	if len(p.Specs) != 1 {
		t.Fatalf("tailer header tally: specs=%d", len(p.Specs))
	}
	if !p.Done() {
		t.Fatal("complete fetched journal not Done")
	}
}

// TestJournalTailerShrinkResetAfterSteal: a steal rewrites a tailed path
// with a different ownership — a shorter sub-range journal replaces the
// victim's. The size drop must reset the tailer's tally so the new file is
// re-read from scratch, not folded on top of stale counts.
func TestJournalTailerShrinkResetAfterSteal(t *testing.T) {
	spec := okSpec()
	shard1, err := spec.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.jsonl")
	runJournal(t, shard1, path)

	tailer := batch.NewJournalTailer(path)
	p, err := tailer.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells != shard1.OwnedUnitCount() {
		t.Fatalf("initial tally %d cells, want %d", p.Cells, shard1.OwnedUnitCount())
	}

	// The steal: ownership shrinks to the tail window and the path is
	// rewritten from scratch (shorter file, different header).
	stolen, err := shard1.Range(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	runJournal(t, stolen, path)

	p, err = tailer.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells != stolen.OwnedUnitCount() {
		t.Fatalf("post-steal tally %d cells, want %d — shrink did not reset", p.Cells, stolen.OwnedUnitCount())
	}
	if len(p.Specs) != 1 || p.Specs[0].UnitLo != 50 {
		t.Fatalf("post-steal header tally: %+v", p.Specs)
	}
	if !p.Done() {
		t.Fatal("rewritten sub-range journal not Done against its own header")
	}
}

// TestRangedJournalHeaderRoundTrip: UnitLo/UnitHi survive the header
// round-trip and drive Done()'s denominator, and an unbounded window is
// omitted from the bytes entirely.
func TestRangedJournalHeaderRoundTrip(t *testing.T) {
	spec := okSpec()
	shard, err := spec.Shard(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranged, err := shard.Range(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := batch.Resume(context.Background(), ranged, fakeRun, nil, batch.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	header := buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')]
	for _, want := range []string{`"unit_lo":10`, `"unit_hi":40`} {
		if !bytes.Contains(header, []byte(want)) {
			t.Fatalf("ranged header lacks %s: %s", want, header)
		}
	}
	p := scanOnce(t, buf.Bytes())
	if p.Cells != ranged.OwnedUnitCount() || !p.Done() {
		t.Fatalf("ranged journal: %d cells, done=%v, want %d cells done", p.Cells, p.Done(), ranged.OwnedUnitCount())
	}

	var unbounded bytes.Buffer
	tail, err := shard.Range(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Resume(context.Background(), tail, fakeRun, nil, batch.NewJSONLSink(&unbounded)); err != nil {
		t.Fatal(err)
	}
	header = unbounded.Bytes()[:bytes.IndexByte(unbounded.Bytes(), '\n')]
	if bytes.Contains(header, []byte("unit_hi")) {
		t.Fatalf("unbounded window serialized an upper end: %s", header)
	}
	if !bytes.Contains(header, []byte(`"unit_lo":10`)) {
		t.Fatalf("tail window lost its start: %s", header)
	}
}

// TestEmptyRangedShardJournalsHeaderOnly: a window that owns nothing — the
// degenerate steal — journals a lone header, counts as done, and merges
// cleanly alongside real journals.
func TestEmptyRangedShardJournalsHeaderOnly(t *testing.T) {
	spec := okSpec()
	units, err := batch.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := spec.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// [69, ∞) with 72 units and shard 1 of 3: the only indices ≥ 69 are
	// 69, 70, 71; shard 1 owns 70 only — shrink below that.
	empty, err := shard.Range(len(units)-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Owns(len(units) - 1) {
		// Index 71 % 3 == 2, not shard 1's — the window really is empty.
		t.Fatal("test premise broken: window owns the last unit")
	}
	if empty.OwnedUnitCount() != 0 {
		t.Fatalf("empty window owns %d units", empty.OwnedUnitCount())
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "empty.jsonl"), filepath.Join(dir, "rest.jsonl")
	runJournal(t, empty, a)
	p, err := batch.NewJournalTailer(a).Scan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells != 0 || !p.Done() {
		t.Fatalf("empty ranged journal: %d cells, done=%v", p.Cells, p.Done())
	}
	head, err := shard.Range(0, len(units)-1)
	if err != nil {
		t.Fatal(err)
	}
	runJournal(t, head, b)
	if _, stats, err := batch.ReadMergedJournals(a, b); err != nil || stats.Cells != shard.OwnedUnitCount() {
		t.Fatalf("merge with empty ranged journal: %+v, %v", stats, err)
	}
}

// okSpecSanity pins the expansion size the windows above are written
// against, so a future grid change fails here with a clear message instead
// of silently weakening the carve tests.
func TestStealTestGridSanity(t *testing.T) {
	units, err := batch.Expand(okSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 72 {
		t.Fatalf("okSpec expands to %d units; the steal tests assume 72 — update their windows", len(units))
	}
	_ = fmt.Sprintf // keep fmt imported if assertions above change
}
