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

// writeShardJournals runs every shard of spec through its own JSONL journal
// file and returns the paths, the way m separate processes would.
func writeShardJournals(t *testing.T, spec batch.Spec, m int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, m)
	for i := 0; i < m; i++ {
		sharded, err := spec.Shard(i, m)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		sink, err := batch.CreateJSONL(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := batch.Resume(context.Background(), sharded, fakeRun, nil, sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestSpecShardValidation(t *testing.T) {
	spec := okSpec()
	for _, bad := range [][2]int{{0, 0}, {0, -1}, {-1, 3}, {3, 3}, {7, 3}} {
		if _, err := spec.Shard(bad[0], bad[1]); err == nil {
			t.Fatalf("Shard(%d, %d) accepted", bad[0], bad[1])
		}
	}
	// Shard fields planted directly (bypassing Shard) are rejected at
	// expansion time, before any unit runs.
	direct := spec
	direct.ShardIndex, direct.ShardCount = 5, 3
	if _, err := batch.Expand(direct); err == nil {
		t.Fatal("Expand accepted an out-of-range shard index")
	}
	direct = spec
	direct.ShardIndex, direct.ShardCount = 2, 0
	if err := direct.Validate(); err == nil {
		t.Fatal("Validate accepted a shard index without a shard count")
	}
}

// TestShardOwnershipDisjointExhaustive: every expansion index is owned by
// exactly one shard, for any shard count — including m far beyond the unit
// count.
func TestShardOwnershipDisjointExhaustive(t *testing.T) {
	units, err := batch.Expand(okSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 3, 5, len(units), len(units) + 31} {
		shards := make([]batch.Spec, m)
		for i := range shards {
			if shards[i], err = okSpec().Shard(i, m); err != nil {
				t.Fatal(err)
			}
		}
		for idx := range units {
			owners := 0
			for _, s := range shards {
				if s.Owns(idx) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("m=%d: index %d owned by %d shards", m, idx, owners)
			}
		}
	}
}

// TestShardedSweepMergesByteIdentical is the tentpole guarantee at engine
// level: run the grid as m shard processes, k-way merge their journals, and
// the resumed report — and rewritten journal — must be byte-identical to an
// uninterrupted single-process sweep. m > unit count exercises empty
// shards: their journals hold a lone header and must merge cleanly.
func TestShardedSweepMergesByteIdentical(t *testing.T) {
	spec := okSpec() // 72 units
	fullRep, err := batch.Resume(context.Background(), spec, fakeRun, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullOut := renderAll(t, fullRep)
	var fullJournal bytes.Buffer
	if _, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&fullJournal)); err != nil {
		t.Fatal(err)
	}

	for _, m := range []int{3, 100} {
		paths := writeShardJournals(t, spec, m)
		journal, stats, err := batch.ReadMergedJournals(paths...)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if stats.Journals != m || stats.Dropped != 0 {
			t.Fatalf("m=%d: stats %+v", m, stats)
		}
		if len(journal.Cells) != len(fullRep.Cells) {
			t.Fatalf("m=%d: merged %d cells, want %d", m, len(journal.Cells), len(fullRep.Cells))
		}
		// The merge reconstructs global expansion order exactly.
		for i, c := range journal.Cells {
			if c.Index != i {
				t.Fatalf("m=%d: merged cell %d has index %d", m, i, c.Index)
			}
		}
		var calls atomic.Int64
		var rewritten bytes.Buffer
		resumed, err := batch.Resume(context.Background(), spec, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
			calls.Add(1)
			return fakeRun(u, g, loads, algoSeed)
		}, journal, batch.NewJSONLSink(&rewritten))
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if calls.Load() != 0 {
			t.Fatalf("m=%d: complete shard set still re-ran %d units", m, calls.Load())
		}
		if !bytes.Equal(renderAll(t, resumed), fullOut) {
			t.Fatalf("m=%d: merged report differs from single-process sweep", m)
		}
		if !bytes.Equal(rewritten.Bytes(), fullJournal.Bytes()) {
			t.Fatalf("m=%d: rewritten journal differs from single-process journal", m)
		}
	}
}

// TestShardedResumeAfterKill: a shard dies partway, resumes from its own
// journal, and the merged whole still matches the uninterrupted sweep —
// the exact recipe the CI shard-merge job drives through the CLI.
func TestShardedResumeAfterKill(t *testing.T) {
	spec := okSpec()
	const m = 3
	fullRep, err := batch.Resume(context.Background(), spec, fakeRun, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := writeShardJournals(t, spec, m)

	// Shard 1 "dies": keep its header and first 5 cells only.
	dead, err := batch.ReadJournalFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	dead.Cells = dead.Cells[:5]

	// Resume the dead shard under its sharded spec; only its missing units
	// re-run, and they re-run inside the shard's slice.
	sharded, err := spec.Shard(1, m)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	sink, err := batch.ReplaceJSONL(paths[1]) // resume-in-place: the partial journal is already read back
	if err != nil {
		t.Fatal(err)
	}
	shardRep, err := batch.Resume(context.Background(), sharded, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		if !sharded.Owns(u.Index) {
			t.Errorf("resumed shard ran foreign unit %d", u.Index)
		}
		return fakeRun(u, g, loads, algoSeed)
	}, dead, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(shardRep.Cells) - 5); calls.Load() != want {
		t.Fatalf("resumed shard re-ran %d units, want %d", calls.Load(), want)
	}

	journal, _, err := batch.ReadMergedJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := batch.Resume(context.Background(), spec, fakeRun, journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, merged), renderAll(t, fullRep)) {
		t.Fatal("merge after a shard kill+resume differs from the uninterrupted sweep")
	}
}

// TestMergeJournalsRejectsOverlap: the same unit appearing in two journals
// (a shard merged twice, or overlapping hand-built shards) must fail loudly
// with the unit named — never fold into a silently double-counted figure.
func TestMergeJournalsRejectsOverlap(t *testing.T) {
	paths := writeShardJournals(t, okSpec(), 3)
	_, _, err := batch.ReadMergedJournals(paths[0], paths[1], paths[0])
	if err == nil {
		t.Fatal("duplicate shard journal accepted")
	}
	if !strings.Contains(err.Error(), "overlap") || !strings.Contains(err.Error(), "index 0") {
		t.Fatalf("overlap error does not name the collision: %v", err)
	}
}

// TestMergeJournalsRejectsDifferentGrids: journals indexing different grids
// share expansion indices without sharing units, so merging them must be
// refused outright.
func TestMergeJournalsRejectsDifferentGrids(t *testing.T) {
	spec := okSpec()
	other := spec
	other.Topologies = []string{"cycle", "star"}
	dir := t.TempDir()
	write := func(name string, s batch.Spec) string {
		path := filepath.Join(dir, name)
		sink, err := batch.CreateJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := batch.Resume(context.Background(), s, fakeRun, nil, sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", spec)
	b := write("b.jsonl", other)
	if _, _, err := batch.ReadMergedJournals(a, b); err == nil || !strings.Contains(err.Error(), "topology dimensions differ") {
		t.Fatalf("different-grid merge accepted: %v", err)
	}

	// Different run parameters with identical dimensions are just as
	// incomparable.
	cheap := spec
	cheap.N = 8
	c := write("c.jsonl", cheap)
	if _, _, err := batch.ReadMergedJournals(a, c); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("different-parameter merge accepted: %v", err)
	}
}

// TestMergeJournalsRejectsUnordered: two shard journals concatenated into
// one file break the strictly-increasing index invariant the k-way merge
// depends on; the file must be rejected with advice, not misfolded.
func TestMergeJournalsRejectsUnordered(t *testing.T) {
	paths := writeShardJournals(t, okSpec(), 3)
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	cat := filepath.Join(t.TempDir(), "cat.jsonl")
	if err := os.WriteFile(cat, append(a, b...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := batch.ReadMergedJournals(cat); err == nil || !strings.Contains(err.Error(), "expansion order") {
		t.Fatalf("concatenated journal accepted: %v", err)
	}
}

// TestMergeToleratesTornTail: a shard hard-killed mid-write leaves a torn
// final line; the merge must keep every intact cell, count the tear, and a
// resume over the merged journal must reproduce the full sweep.
func TestMergeToleratesTornTail(t *testing.T) {
	spec := okSpec()
	paths := writeShardJournals(t, spec, 3)
	raw, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[2], raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	journal, stats, err := batch.ReadMergedJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 {
		t.Fatalf("dropped %d lines, want 1", stats.Dropped)
	}
	full, err := batch.Resume(context.Background(), spec, fakeRun, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(journal.Cells) != len(full.Cells)-1 {
		t.Fatalf("merged %d cells, want %d", len(journal.Cells), len(full.Cells)-1)
	}
	resumed, err := batch.Resume(context.Background(), spec, fakeRun, journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, resumed), renderAll(t, full)) {
		t.Fatal("resume over a torn merge differs from the full sweep")
	}
}
