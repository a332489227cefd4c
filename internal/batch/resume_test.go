package batch_test

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
)

// renderAll renders the deterministic emitters of a report into one buffer.
func renderAll(t *testing.T, rep *batch.Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := rep.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// interruptedJournal produces a valid-but-partial journal: a serial sweep
// cancelled after cutAt units, streamed through a JSONL sink exactly the way
// lbbench -out does it.
func interruptedJournal(t *testing.T, spec batch.Spec, cutAt int) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec.Workers = 1
	var buf bytes.Buffer
	_, err := batch.Resume(ctx, spec, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		if u.Index == cutAt {
			cancel()
		}
		return fakeRun(u, g, loads, algoSeed)
	}, nil, batch.NewJSONLSink(&buf))
	if err != context.Canceled {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	return buf.Bytes()
}

// TestResumeByteIdenticalToFreshRun is the core resume guarantee: interrupt
// a sweep halfway, resume from its journal, and both the merged report and
// the rewritten journal must be byte-identical to an uninterrupted run —
// for any worker count.
func TestResumeByteIdenticalToFreshRun(t *testing.T) {
	spec := okSpec()
	fullRep, err := batch.Resume(context.Background(), spec, fakeRun, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullOut := renderAll(t, fullRep)
	var fullJournal bytes.Buffer
	if _, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&fullJournal)); err != nil {
		t.Fatal(err)
	}

	cut := len(fullRep.Cells) / 2
	partial := interruptedJournal(t, spec, cut)
	journal, err := batch.ReadJournal(bytes.NewReader(partial))
	if err != nil || journal.Dropped != 0 {
		t.Fatalf("partial journal unreadable: dropped=%d err=%v", journal.Dropped, err)
	}
	if len(journal.Specs) != 1 {
		t.Fatal("interrupted journal lost its spec header")
	}
	clean := 0
	for _, c := range journal.Cells {
		if c.Err == "" {
			clean++
		}
	}
	if clean == 0 || clean >= len(fullRep.Cells) {
		t.Fatalf("interrupt produced %d clean cells of %d — not a partial journal", clean, len(fullRep.Cells))
	}

	for _, workers := range []int{1, 8} {
		respec := spec
		respec.Workers = workers
		var rewritten bytes.Buffer
		resumed, err := batch.Resume(context.Background(), respec, fakeRun, journal, batch.NewJSONLSink(&rewritten))
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(t, resumed); !bytes.Equal(got, fullOut) {
			t.Fatalf("workers=%d: resumed report differs from uninterrupted run", workers)
		}
		if !bytes.Equal(rewritten.Bytes(), fullJournal.Bytes()) {
			t.Fatalf("workers=%d: rewritten journal differs from uninterrupted journal", workers)
		}
	}
}

// TestResumeOnlyRunsMissingUnits replays a complete journal and checks the
// run function is never invoked; then drops cells and checks exactly those
// re-run.
func TestResumeOnlyRunsMissingUnits(t *testing.T) {
	spec := okSpec()
	var full bytes.Buffer
	if _, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&full)); err != nil {
		t.Fatal(err)
	}
	journal, err := batch.ReadJournal(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	counting := func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		return fakeRun(u, g, loads, algoSeed)
	}
	if _, err := batch.Resume(context.Background(), spec, counting, journal, nil); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("complete journal still re-ran %d units", n)
	}

	// Drop three cells and fail one: exactly those four must re-run.
	pruned := &batch.Journal{
		Specs: journal.Specs,
		Cells: append([]batch.Cell(nil), journal.Cells[3:]...),
	}
	pruned.Cells[0].Err = "synthetic failure from a previous run"
	want := int64(3 + 1)
	calls.Store(0)
	rep, err := batch.Resume(context.Background(), spec, counting, pruned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != want {
		t.Fatalf("re-ran %d units, want %d", n, want)
	}
	if rep.Failed() != 0 {
		t.Fatalf("resumed report still has %d failures", rep.Failed())
	}
}

// TestReadJournalToleratesTruncatedTail cuts the journal mid-line (the
// torn-write crash shape) and checks the intact prefix is recovered, the
// torn line is dropped, and a resume over it reproduces the full report.
func TestReadJournalToleratesTruncatedTail(t *testing.T) {
	spec := okSpec()
	var full bytes.Buffer
	fullRep, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&full))
	if err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	lines := bytes.Count(raw, []byte("\n")) // header + one line per cell

	// Cut inside the final line: drop its trailing newline plus a few bytes.
	truncated := raw[:len(raw)-8]
	j, err := batch.ReadJournal(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if j.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", j.Dropped)
	}
	if len(j.Cells) != lines-2 {
		t.Fatalf("recovered %d cells, want %d (all complete lines minus the header)", len(j.Cells), lines-2)
	}
	if len(j.Specs) != 1 {
		t.Fatal("header lost")
	}

	resumed, err := batch.Resume(context.Background(), spec, fakeRun, j, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, resumed), renderAll(t, fullRep)) {
		t.Fatal("resume over a truncated journal does not reproduce the full report")
	}
}

// TestReadJournalStopsAtCorruption flips bytes in the middle of the journal
// and checks parsing keeps the prefix and reports everything after the
// corruption as dropped (no resynchronization guessing).
func TestReadJournalStopsAtCorruption(t *testing.T) {
	spec := okSpec()
	var full bytes.Buffer
	if _, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&full)); err != nil {
		t.Fatal(err)
	}
	text := full.String()
	lineStarts := []int{0}
	for i, ch := range text {
		if ch == '\n' && i+1 < len(text) {
			lineStarts = append(lineStarts, i+1)
		}
	}
	corruptAt := lineStarts[len(lineStarts)/2]
	mangled := []byte(text)
	copy(mangled[corruptAt:], []byte(`{"broken`))

	j, err := batch.ReadJournal(bytes.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 is the header; lines 1..k-1 are intact cells, k.. are dropped.
	k := len(lineStarts) / 2
	if len(j.Cells) != k-1 {
		t.Fatalf("kept %d cells, want the %d before the corruption", len(j.Cells), k-1)
	}
	if j.Dropped != len(lineStarts)-k {
		t.Fatalf("dropped = %d, want %d", j.Dropped, len(lineStarts)-k)
	}
}

// TestResumeIgnoresStaleKeys feeds a journal from a different grid and
// checks its unknown keys are skipped while the matching ones replay.
func TestResumeIgnoresStaleKeys(t *testing.T) {
	big := okSpec()
	var full bytes.Buffer
	if _, err := batch.Resume(context.Background(), big, fakeRun, nil, batch.NewJSONLSink(&full)); err != nil {
		t.Fatal(err)
	}
	journal, err := batch.ReadJournal(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	small := big
	small.Topologies = []string{"cycle"} // subset: most journal keys are stale
	var calls atomic.Int64
	rep, err := batch.Resume(context.Background(), small, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		return fakeRun(u, g, loads, algoSeed)
	}, journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("subset grid re-ran %d units despite full journal coverage", calls.Load())
	}
	for _, c := range rep.Cells {
		if !strings.HasPrefix(c.Key(), "cycle/") {
			t.Fatalf("stale journal key leaked into the report: %s", c.Key())
		}
	}
}

// TestResumeRefusesParameterMismatch: a journal recorded under a different
// n (or scale, ε, round cap) replays cleanly by Key, so it must be refused
// outright — merging it would silently corrupt the figure.
func TestResumeRefusesParameterMismatch(t *testing.T) {
	spec := okSpec()
	var full bytes.Buffer
	if _, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&full)); err != nil {
		t.Fatal(err)
	}
	journal, err := batch.ReadJournal(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*batch.Spec){
		"different n":     func(s *batch.Spec) { s.N = 32 },
		"different scale": func(s *batch.Spec) { s.Scale = 1e3 },
		"different eps":   func(s *batch.Spec) { s.Epsilon = 1e-6 },
		"different cap":   func(s *batch.Spec) { s.MaxRounds = 10 },
	} {
		mismatched := spec
		mutate(&mismatched)
		if _, err := batch.Resume(context.Background(), mismatched, fakeRun, journal, nil); err == nil {
			t.Fatalf("%s: resume accepted an incompatible journal", name)
		} else if !strings.Contains(err.Error(), "not comparable") {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
	}

	// Headerless journals (hand-written, or truncated before the header)
	// replay on trust.
	headerless := &batch.Journal{Cells: journal.Cells}
	if _, err := batch.Resume(context.Background(), spec, fakeRun, headerless, nil); err != nil {
		t.Fatalf("headerless journal refused: %v", err)
	}
}

// TestConcatenatedShardJournals covers the sharding recipe the docs
// advertise: journals from per-shard sweeps concatenated with cat. Every
// shard's header must be recognized mid-file (not misread as a phantom
// cell), all cells must replay, and one shard recorded under different
// parameters must fail CheckSpec.
func TestConcatenatedShardJournals(t *testing.T) {
	whole := okSpec()
	shardA, shardB := whole, whole
	shardA.Topologies = []string{"cycle"}
	shardB.Topologies = []string{"torus", "hypercube"}

	var buf bytes.Buffer
	if _, err := batch.Resume(context.Background(), shardA, fakeRun, nil, batch.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Resume(context.Background(), shardB, fakeRun, nil, batch.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}

	journal, err := batch.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil || journal.Dropped != 0 {
		t.Fatalf("concatenated journal unreadable: dropped=%d err=%v", journal.Dropped, err)
	}
	if len(journal.Specs) != 2 {
		t.Fatalf("recovered %d shard headers, want 2", len(journal.Specs))
	}
	for _, c := range journal.Cells {
		if c.Topology == "" {
			t.Fatalf("phantom cell parsed from a header line: %+v", c)
		}
	}

	// The merged resume over the whole grid re-runs nothing and matches a
	// fresh full run.
	var calls atomic.Int64
	merged, err := batch.Resume(context.Background(), whole, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		return fakeRun(u, g, loads, algoSeed)
	}, journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("merged shards still re-ran %d units", calls.Load())
	}
	full, err := batch.Resume(context.Background(), whole, fakeRun, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, merged), renderAll(t, full)) {
		t.Fatal("merged shard resume differs from a fresh full run")
	}

	// One shard recorded under a different n poisons the whole merge.
	badShard := shardB
	badShard.N = 8
	if _, err := batch.Resume(context.Background(), badShard, fakeRun, nil, batch.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	journal, err = batch.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Resume(context.Background(), whole, fakeRun, journal, nil); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("mismatched shard accepted: %v", err)
	}
}
