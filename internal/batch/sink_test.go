package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/graph"
)

// TestJSONLSinkStreamsInExpansionOrder runs a wide pool against a JSONL sink
// and checks the journal holds exactly one line per unit, in expansion
// order, regardless of completion order.
func TestJSONLSinkStreamsInExpansionOrder(t *testing.T) {
	spec := okSpec()
	spec.Workers = 8
	var buf bytes.Buffer
	rep, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	j, err := batch.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil || j.Dropped != 0 {
		t.Fatalf("ReadJournal: dropped=%d err=%v", j.Dropped, err)
	}
	if len(j.Specs) != 1 || j.Specs[0].N != spec.N {
		t.Fatalf("journal header lost the spec: %+v", j.Specs)
	}
	cells := j.Cells
	if len(cells) != len(rep.Cells) {
		t.Fatalf("journal has %d cells, report has %d", len(cells), len(rep.Cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("journal line %d carries unit index %d — not expansion order", i, c.Index)
		}
		if c.Key() != rep.Cells[i].Key() {
			t.Fatalf("journal line %d is %s, report cell is %s", i, c.Key(), rep.Cells[i].Key())
		}
		if c.Rounds != rep.Cells[i].Rounds || c.PhiEnd != rep.Cells[i].PhiEnd {
			t.Fatalf("journal outcome for %s differs from report", c.Key())
		}
	}
}

// TestJSONLJournalBytesDeterministicAcrossWorkers asserts the streamed
// journal — not just the final report — is byte-identical for any pool
// width, which is what the sequencing layer exists for.
func TestJSONLJournalBytesDeterministicAcrossWorkers(t *testing.T) {
	journal := func(workers int) []byte {
		spec := okSpec()
		spec.Workers = workers
		var buf bytes.Buffer
		if _, err := batch.Resume(context.Background(), spec, fakeRun, nil, batch.NewJSONLSink(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	j1 := journal(1)
	for _, w := range []int{2, 8} {
		if !bytes.Equal(j1, journal(w)) {
			t.Fatalf("journal bytes differ between workers=1 and workers=%d", w)
		}
	}
	if len(j1) == 0 {
		t.Fatal("empty journal")
	}
}

// memorySink collects every cell a sweep delivers, in delivery order.
type memorySink struct{ cells []batch.Cell }

func (m *memorySink) Cell(c batch.Cell) error {
	m.cells = append(m.cells, c)
	return nil
}

func (m *memorySink) Close() error { return nil }

// TestMemorySinkMatchesReport checks the sink path observes exactly the
// cells the report records, in the same (expansion) order.
func TestMemorySinkMatchesReport(t *testing.T) {
	spec := okSpec()
	spec.Workers = 4
	mem := &memorySink{}
	rep, err := batch.Resume(context.Background(), spec, fakeRun, nil, mem)
	if err != nil {
		t.Fatal(err)
	}
	fromSink, err := json.Marshal(mem.cells)
	if err != nil {
		t.Fatal(err)
	}
	fromRun, err := json.Marshal(rep.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromSink, fromRun) {
		t.Fatal("the sink saw different cells from the ones the report records")
	}
}

// TestMultiSinkFansOut delivers to a memory sink and a JSONL sink at once.
func TestMultiSinkFansOut(t *testing.T) {
	spec := okSpec()
	spec.Workers = 4
	mem := &memorySink{}
	var buf bytes.Buffer
	multi := batch.MultiSink{mem, batch.NewJSONLSink(&buf)}
	rep, err := batch.Resume(context.Background(), spec, fakeRun, nil, multi)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := batch.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Specs) != 1 {
		t.Fatal("MultiSink did not forward the spec header to the JSONL member")
	}
	if len(mem.cells) != len(rep.Cells) || len(j.Cells) != len(rep.Cells) {
		t.Fatalf("fan-out incomplete: mem=%d jsonl=%d want=%d", len(mem.cells), len(j.Cells), len(rep.Cells))
	}
}

// failingSink errors after accepting `limit` cells.
type failingSink struct {
	seen  int
	limit int
}

func (f *failingSink) Cell(batch.Cell) error {
	f.seen++
	if f.seen > f.limit {
		return fmt.Errorf("disk full after %d cells", f.limit)
	}
	return nil
}

func (f *failingSink) Close() error { return nil }

// TestSinkErrorAbortsTheSweep checks a failing sink both reports its error
// and cancels the remaining units: with nothing durable being recorded,
// computing the rest of a large grid would be pure waste.
func TestSinkErrorAbortsTheSweep(t *testing.T) {
	spec := okSpec()
	spec.Workers = 4
	sink := &failingSink{limit: 5}
	rep, err := batch.Resume(context.Background(), spec, fakeRun, nil, sink)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sink error was swallowed: %v", err)
	}
	if rep == nil || len(rep.Cells) != 72 {
		t.Fatalf("partial report missing: %+v", rep)
	}
	if rep.Failed() == 0 {
		t.Fatal("sweep kept computing every unit after the sink died")
	}
	// The cells delivered before the failure are intact.
	for _, c := range rep.Cells[:5] {
		if c.Err != "" {
			t.Fatalf("pre-failure cell corrupted: %+v", c)
		}
	}
}

// TestSinkBackpressureBoundsJournalLag stalls unit 0 and checks the pool
// cannot run arbitrarily far ahead of the journal: without the sequencer's
// lookahead window, a single slow unit would let every other cell finish
// into the in-memory pending buffer with nothing journaled — exactly the
// cells a hard kill would lose.
func TestSinkBackpressureBoundsJournalLag(t *testing.T) {
	spec := okSpec() // 72 units
	spec.Workers = 2
	gate := make(chan struct{})
	var started atomic.Int64
	var buf bytes.Buffer

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := batch.Resume(context.Background(), spec, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
			if u.Index == 0 {
				<-gate
			} else {
				started.Add(1)
			}
			return fakeRun(u, g, loads, algoSeed)
		}, nil, batch.NewJSONLSink(&buf))
		if err != nil {
			t.Error(err)
		}
	}()

	// Wait for the free worker to run as far ahead as the window allows,
	// i.e. until its progress stalls.
	prev := int64(-1)
	for i := 0; i < 200; i++ {
		cur := started.Load()
		if cur == prev && cur > 0 {
			break
		}
		prev = cur
		time.Sleep(5 * time.Millisecond)
	}
	ahead := started.Load()
	close(gate)
	<-done

	// Lookahead for workers=2 is 4·2+16 = 24: the free worker may start
	// units 1..23 while unit 0 stalls, but not the whole grid.
	if ahead >= 71 {
		t.Fatalf("pool ran all %d remaining units ahead of a stalled unit 0 — no backpressure", ahead)
	}
	if ahead == 0 {
		t.Fatal("free worker made no progress at all — window too tight or deadlocked")
	}
	j, err := batch.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil || len(j.Cells) != 72 || j.Dropped != 0 {
		t.Fatalf("journal incomplete after release: cells=%d dropped=%d err=%v", len(j.Cells), j.Dropped, err)
	}
}

// syncWriter records whether Sync was called before Close — the durability
// contract a shard process relies on when it exits cleanly.
type syncWriter struct {
	bytes.Buffer
	synced           bool
	closed           bool
	syncedThenClosed bool
}

func (s *syncWriter) Sync() error { s.synced = true; return nil }
func (s *syncWriter) Close() error {
	s.closed = true
	s.syncedThenClosed = s.synced
	return nil
}

// TestJSONLSinkCloseSyncs: Close must fsync the journal before returning,
// so a shard that exits cleanly can never leave its final lines in the page
// cache for a machine crash to tear.
func TestJSONLSinkCloseSyncs(t *testing.T) {
	w := &syncWriter{}
	sink := batch.NewJSONLSink(w)
	if err := sink.Cell(batch.Cell{}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.synced {
		t.Fatal("Close returned without syncing the journal")
	}
	if w.closed {
		t.Fatal("Close closed a writer the sink does not own")
	}
}

// TestJSONLCellRoundTrip checks a cell's JSON line restores every field the
// resume path and the deterministic emitters depend on, bit-exactly.
func TestJSONLCellRoundTrip(t *testing.T) {
	spec := batch.Spec{
		Topologies: []string{"cycle"},
		Algorithms: []string{"diffusion"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		N:          16,
	}
	rep, err := batch.Resume(context.Background(), spec, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		return batch.Outcome{
			Rounds: 17, Converged: true,
			PhiStart: 1.0 / 3.0, PhiEnd: 2.220446049250313e-16,
			Bound: 123.456789, BoundName: "Theorem 4",
		}, nil
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(rep.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	var back batch.Cell
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	orig := rep.Cells[0]
	if back.Key() != orig.Key() || back.Rounds != orig.Rounds || back.Converged != orig.Converged ||
		back.PhiStart != orig.PhiStart || back.PhiEnd != orig.PhiEnd ||
		back.Bound != orig.Bound || back.BoundName != orig.BoundName {
		t.Fatalf("round trip lost data:\n  orig %+v\n  back %+v", orig, back)
	}
}
