package core

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
)

// GridOption configures one GridRun invocation.
type GridOption func(*gridOptions)

type gridOptions struct {
	sink       batch.Sink
	journal    *batch.Journal
	shard, of  int
	sharded    bool
	streamOnly bool
	tracer     *obs.Tracer
}

// GridSink streams every finished cell to sink in expansion order as the
// sweep progresses (typically a batch.JSONLSink journal, which makes long
// sweeps crash-resumable, or a batch.AggSink — fan out with
// batch.MultiSink for both).
func GridSink(sink batch.Sink) GridOption {
	return func(o *gridOptions) { o.sink = sink }
}

// GridResume replays units journaled with a clean outcome by Key instead
// of re-running them; missing and failed units execute normally. The
// merged report (and the stream written to the sink) is byte-identical to
// an uninterrupted run of the same spec — see batch.Resume, including its
// refusal of journals recorded under different run parameters. A nil
// journal is a fresh start.
func GridResume(journal *batch.Journal) GridOption {
	return func(o *gridOptions) { o.journal = journal }
}

// GridShard runs shard `shard` of `of` of the sweep: the slice of the
// expansion whose unit indices are ≡ shard (mod of), so the `of` shard
// processes together cover every unit exactly once. Each shard journals to
// its own sink; batch.MergeJournals (or lbbench -merge) reassembles the
// per-shard journals into one report byte-identical to a single-process
// sweep.
func GridShard(shard, of int) GridOption {
	return func(o *gridOptions) { o.shard, o.of, o.sharded = shard, of, true }
}

// GridStreamOnly skips materializing the in-process report — cells exist
// only in the sink's stream, so memory stays independent of the unit
// count. Requires GridSink; GridRun returns a nil report.
func GridStreamOnly() GridOption {
	return func(o *gridOptions) { o.streamOnly = true }
}

// GridTrace records the sweep's execution as hierarchical spans on tr: a
// root sweep span, one span per executed unit (replayed units emit
// nothing — they do no work) and synthetic per-phase child spans from the
// session's phase timings. The trace is written out-of-band — it never
// touches the sink's stream or the report, whose bytes stay identical to
// an untraced run. A nil tr is the no-op default.
func GridTrace(tr *obs.Tracer) GridOption {
	return func(o *gridOptions) { o.tracer = tr }
}

// GridRun expands the declarative sweep spec into independent run units
// and executes every (topology × algorithm × mode × workload × scenario ×
// seed) combination through Balance on the batch engine's worker pool.
// Per-unit RNG streams are derived from each unit's identity, so the
// aggregated report is identical for any Spec.Workers value — one
// invocation with Workers = GOMAXPROCS reproduces a whole paper figure's
// grid at full hardware speed. Per-(topology, n) spectral quantities
// (λ₂, γ) are memoized in the shared speccache, so they are computed once
// per process, not once per unit.
//
// Algorithm/mode combinations Balance rejects (e.g. firstorder × discrete)
// surface as per-cell errors in the report, not as an overall failure.
// Units not yet started when ctx fires record the context error in their
// cells, and the partial report is returned together with ctx.Err().
//
// Options compose the sweep's plumbing: GridSink streams cells, GridResume
// skips journaled work, GridShard takes one slice of a multi-process
// sweep, GridStreamOnly drops the in-process report. This is the sole
// sweep entry point — the pre-PR-8 BalanceGrid* wrappers are gone; each
// was a one-line composition of the options above.
func GridRun(ctx context.Context, spec batch.Spec, opts ...GridOption) (*batch.Report, error) {
	var o gridOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.sharded {
		sharded, err := spec.Shard(o.shard, o.of)
		if err != nil {
			return nil, err
		}
		spec = sharded
	}
	if err := validateGridSpec(spec); err != nil {
		return nil, err
	}
	run := func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		res, err := RunUnit(spec, u, g, loads, algoSeed, o.tracer)
		return res.Outcome, err
	}
	var sweepStart int64
	if o.tracer.Enabled() {
		o.tracer.ThreadName(0, "sweep")
		sweepStart = o.tracer.Now()
	}
	var rep *batch.Report
	var err error
	if o.streamOnly {
		err = batch.ResumeStream(ctx, spec, run, o.journal, o.sink)
	} else {
		rep, err = batch.Resume(ctx, spec, run, o.journal, o.sink)
	}
	if o.tracer.Enabled() {
		o.tracer.Complete("sweep", "sweep", 0, sweepStart, map[string]any{
			"topologies": spec.Topologies, "algorithms": spec.Algorithms,
			"n": spec.N, "seeds": len(spec.Seeds),
		})
		_ = o.tracer.Flush()
	}
	return rep, err
}

// ValidateGridSpec rejects every spec GridRun would reject, without
// running any unit: dimension validation (empty/duplicate entries,
// duplicate seeds), algorithm names, and topology buildability at spec.N.
// The topology check constructs each graph (and discards it — the sweep
// builds its own), so call this only when an early failure protects a side
// effect, in particular before truncating a journal file that a failed
// sweep could not repopulate.
func ValidateGridSpec(spec batch.Spec) error {
	if err := validateGridSpec(spec); err != nil {
		return err
	}
	_, err := batch.BuildGraphs(spec)
	return err
}

// validateGridSpec rejects bad specs up front: a typo'd algorithm or an
// empty/duplicated dimension should fail the sweep, not silently error
// every cell. Algorithms are checked on their canonical spelling, the one
// every unit carries.
func validateGridSpec(spec batch.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	spec, err := spec.Canonical()
	if err != nil {
		return err
	}
	for _, name := range spec.Algorithms {
		if _, err := ParseAlgorithm(name); err != nil {
			return err
		}
	}
	return nil
}

// RunUnit runs unit u of spec through Balance on g from the loads and
// algorithm seed batch.Unit.Inputs derives: the one Config behind every
// sweep cell and lbbench -explain, whose errors carry the unit key. The
// round-level worker width comes from the spec's hybrid split (results are
// byte-identical for any width). With a non-nil tracer the unit emits a
// complete span on a leased tid, with synthetic child spans for the session
// phases; with the nil default the unit runs with zero telemetry cost.
func RunUnit(spec batch.Spec, u batch.Unit, g *graph.G, loads []float64, algoSeed int64, tracer *obs.Tracer) (Result, error) {
	alg, err := ParseAlgorithm(u.Algorithm)
	if err != nil {
		return Result{}, err
	}
	mode, err := load.ParseMode(u.Mode)
	if err != nil {
		return Result{}, err
	}
	_, roundWorkers := spec.WorkerSplit()
	var phases *obs.Phases
	var tid, unitStart int64
	if tracer.Enabled() {
		phases = &obs.Phases{}
		tid = tracer.AcquireTID()
		unitStart = tracer.Now()
	}
	res, err := Balance(Config{
		Graph:        g,
		Algorithm:    alg,
		Mode:         mode,
		Loads:        loads,
		Epsilon:      spec.Epsilon,
		MaxRounds:    spec.MaxRounds,
		Seed:         nonZeroSeed(algoSeed),
		Workers:      roundWorkers,
		Scenario:     u.ScenarioSpec,
		ScenarioSeed: nonZeroSeed(u.ScenarioSeed()),
		Phases:       phases,
	})
	if tracer.Enabled() {
		args := map[string]any{
			"unit": u.Index, "n": g.N(), "seed": u.Seed,
			"rounds": res.Rounds,
		}
		tracer.Complete(u.Key(), "unit", tid, unitStart, args)
		phases.EmitSpans(tracer, tid, unitStart)
		tracer.ReleaseTID(tid)
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", u.Key(), err)
	}
	return res, nil
}

// nonZeroSeed keeps a derived seed out of Balance's "0 means default"
// convention.
func nonZeroSeed(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}
