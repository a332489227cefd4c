package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs"
)

// sweepBench runs the batch grid: {torus, hypercube, random-regular,
// debruijn} × {diffusion, dimexchange, randpair} × {continuous, discrete} ×
// {spike, uniform} × {static, poisson-arrivals, adversarial-respike} at
// n = 1024 with Workers = CPU count, two seeds (288 units) per pass. Each
// pass journals the grid unsharded, then as two shards that
// batch.MergeJournals reassembles; the merged cells must match the
// unsharded journal byte for byte.
type sweepBench struct {
	o     options
	spec  batch.Spec
	n     int
	seeds int64 // seeds per pass
	next  int64 // first seed of the next pass
}

func newSweep(o options) bench {
	spec := batch.Spec{
		Topologies: []string{"torus", "hypercube", "random-regular", "debruijn"},
		Algorithms: []string{"diffusion", "dimexchange", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Scenarios:  []string{"static", "poisson-arrivals", "adversarial-respike"},
		N:          1024,
		Workers:    o.workers,
	}
	b := &sweepBench{o: o, spec: spec, seeds: 2, next: o.seed}
	if o.small {
		b.spec.N, b.seeds = 64, 1
	}
	return b
}

// nodes is the size every topology of the grid builds at (1024 is a
// square, a power of two and even, so no family rounds it up).
func (b *sweepBench) nodes() int { return b.n }

// setUp builds every topology of the grid and opens one session on each,
// which pays its cold λ₂ solve.
func (b *sweepBench) setUp(st *setupStats) error {
	for _, topo := range b.spec.Topologies {
		g, err := buildTimed(st, topo, b.spec.N)
		if err != nil {
			return err
		}
		if g.N() != b.spec.N {
			return fmt.Errorf("%s built %d nodes, want %d", topo, g.N(), b.spec.N)
		}
		b.n = g.N()
		loads := make([]float64, g.N())
		loads[0] = float64(g.N())
		s, err := openTimed(st, core.Config{Graph: g, Loads: loads})
		if err != nil {
			return err
		}
		s.Close()
	}
	return nil
}

// check warms the engine's own graph instances and their spectra with a
// one-round pass; the byte-identity check runs on every measured pass.
func (b *sweepBench) check() error {
	warm := b.spec
	warm.Seeds = []int64{b.o.seed}
	warm.MaxRounds = 1
	rep, err := core.GridRun(context.Background(), warm)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if f := rep.Failed(); f > 0 {
		return fmt.Errorf("warm-up: %d units failed", f)
	}
	return nil
}

func (b *sweepBench) measure(deadline time.Time, tr *obs.Tracer, w *window) error {
	unitHist := obs.Default().Histogram("batch_unit_seconds", "", nil)
	waitHist := obs.Default().Histogram("batch_sink_wait_seconds", "", nil)
	unit0, wait0 := unitHist.Sum(), waitHist.Sum()
	start := time.Now()
	for {
		if err := b.pass(tr, w); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	w.elapsed = time.Since(start)
	w.unitBusy = seconds(unitHist.Sum() - unit0)
	w.sinkWait = seconds(waitHist.Sum() - wait0)
	return nil
}

// pass runs one seed block unsharded and as two merged shards.
func (b *sweepBench) pass(tr *obs.Tracer, w *window) error {
	spec := b.spec
	for i := int64(0); i < b.seeds; i++ {
		spec.Seeds = append(spec.Seeds, b.next+i)
	}
	b.next += b.seeds
	start, rounds := time.Now(), w.rounds
	defer func() { w.rates = append(w.rates, rate(float64(w.rounds-rounds), time.Since(start))) }()

	dir, err := os.MkdirTemp(b.o.workDir, "sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	full := filepath.Join(dir, "full.jsonl")
	if err := b.journal(spec, full, tr, w); err != nil {
		return err
	}
	shards := []string{filepath.Join(dir, "shard-0.jsonl"), filepath.Join(dir, "shard-1.jsonl")}
	for i, path := range shards {
		if err := b.journal(spec, path, tr, w, core.GridShard(i, len(shards))); err != nil {
			return err
		}
	}

	var merged bytes.Buffer
	sink := &timedSink{sink: batch.NewJSONLSink(&merged)}
	t0 := time.Now()
	_, err = batch.MergeJournals(sink, shards...)
	w.merge += time.Since(t0)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		return err
	}
	if !bytes.Equal(cellLines(want), cellLines(merged.Bytes())) {
		w.fail(fmt.Errorf("seeds %v: merged shard journals differ from the unsharded journal", spec.Seeds))
	}
	return nil
}

// journal runs spec into a JSONL journal at path through a timedSink.
func (b *sweepBench) journal(spec batch.Spec, path string, tr *obs.Tracer, w *window, opts ...core.GridOption) error {
	js, err := batch.CreateJSONL(path)
	if err != nil {
		return err
	}
	ts := &timedSink{sink: js}
	opts = append(opts, core.GridSink(ts))
	if tr != nil {
		opts = append(opts, core.GridTrace(tr))
	}
	rep, err := core.GridRun(context.Background(), spec, opts...)
	if cerr := ts.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	w.journal += ts.busy
	for _, c := range rep.Cells {
		w.attempted++
		if c.Err != "" {
			w.fail(fmt.Errorf("%s: %s", c.Key(), c.Err))
		}
		w.latencies = append(w.latencies, ms(c.Wall))
		w.rounds += int64(c.Rounds)
	}
	return nil
}

// timedSink forwards to a batch.Sink, spec header included, and adds up the
// time spent writing cells. The engine never calls a sink concurrently.
type timedSink struct {
	sink batch.Sink
	busy time.Duration
}

func (t *timedSink) Spec(spec batch.Spec) error {
	if sw, ok := t.sink.(batch.SpecWriter); ok {
		return sw.Spec(spec)
	}
	return nil
}

func (t *timedSink) Cell(c batch.Cell) error {
	t0 := time.Now()
	err := t.sink.Cell(c)
	t.busy += time.Since(t0)
	return err
}

func (t *timedSink) Close() error { return t.sink.Close() }

// cellLines drops a journal's spec header lines: shard headers carry their
// shard fields, so only the cell lines of a merge can match an unsharded
// journal.
func cellLines(journal []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"spec":`)) {
			out = append(out, line...)
		}
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
