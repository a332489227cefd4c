package batch

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/topoparse"
)

// Outcome is what a RunFunc reports for one completed unit.
type Outcome struct {
	// Rounds executed and whether the convergence target was reached.
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	// PhiStart and PhiEnd bracket the potential trajectory.
	PhiStart float64 `json:"phi_start"`
	PhiEnd   float64 `json:"phi_end"`
	// Bound is the paper's round bound for this configuration and
	// BoundName the theorem behind it: Theorem 4 (diffusion, continuous),
	// Theorem 6 (diffusion, discrete), the Theorem 12 or 14 shape for
	// randpair. 0 and "" when no theorem applies, as for every scenario
	// run: the one-shot theorems say nothing under ongoing arrivals.
	Bound     float64 `json:"bound,omitempty"`
	BoundName string  `json:"bound_name,omitempty"`
	// Scenario metrics, populated by non-static scenario runs only (all
	// zero — and omitted from journals — for static units, keeping
	// scenario-free journal bytes identical to the pre-scenario engine):
	// PeakPhi is the largest potential observed over the run (peak
	// backlog), SteadyRMS the mean RMS discrepancy over the final quarter
	// of rounds (steady state under ongoing arrivals), and RebalanceRounds
	// how many rounds after the last load injection the potential needed
	// to fall back under the target (0 when it never did — see Converged).
	PeakPhi         float64 `json:"peak_phi,omitempty"`
	SteadyRMS       float64 `json:"steady_rms,omitempty"`
	RebalanceRounds int     `json:"rebalance_rounds,omitempty"`
	// Reason says why a unit stopped short of its target before its round
	// cap ("disconnected": a static unit on a disconnected graph runs no
	// rounds). Omitted when empty, so only those cells' journal lines
	// carry it.
	Reason string `json:"reason,omitempty"`
}

// RunFunc executes one run unit on graph g from the given initial loads.
// algoSeed drives the unit's randomized algorithm components; it is derived
// from the unit key, so implementations must use it (not global state) to
// stay deterministic under parallel scheduling.
type RunFunc func(u Unit, g *graph.G, loads []float64, algoSeed int64) (Outcome, error)

// runSink is the engine body behind Resume and ResumeStream: it expands
// spec and executes every owned unit through run on the worker pool,
// delivering each finished cell to sink (which may be nil when collect is
// set) in expansion order. replay maps unit Keys to journaled outcomes that
// are adopted instead of re-run (nil for a fresh sweep). When collect is
// false no cells are retained and the returned report is nil — the
// streaming path for grids whose cells must not accumulate in memory. The
// only overall errors are spec-level (bad grid, unbuildable topology), a
// failing sink, and ctx firing; per-unit failures and panics land in the
// matching cell's Err field so the rest of the sweep still completes, and
// the partial report is returned alongside a sink or ctx error.
func runSink(ctx context.Context, spec Spec, run RunFunc, sink Sink, replay map[string]Outcome, collect bool) (*Report, error) {
	spec = spec.withDefaults()
	units, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	// A sharded spec runs (and reports, and journals) only its own slice of
	// the expansion; the slice preserves expansion order, so the sequencer
	// still delivers a deterministic stream and the journal's indices are
	// monotonic — what lets MergeJournals interleave shard journals back
	// into global expansion order.
	units = spec.ownedUnits(units)
	graphs, err := BuildGraphs(spec)
	if err != nil {
		return nil, err
	}
	if sw, ok := sink.(SpecWriter); ok {
		if err := sw.Spec(spec); err != nil {
			return nil, err
		}
	}

	// A failing sink (disk full under the journal) cancels the sweep: with
	// nothing durable being recorded, computing the remaining units at full
	// cost would be pure waste. In-flight units finish; the rest record the
	// cancellation.
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	var cells []Cell
	if collect {
		cells = make([]Cell, len(units))
	}
	// The unit pool width comes from the resolved hybrid split, so a
	// round-parallel sweep (few huge cells) narrows the pool instead of
	// stacking both levels of fan-out.
	unitWorkers, _ := spec.WorkerSplit()
	var seq *sequencer
	if sink != nil {
		seq = newSequencer(sink, cancel, sinkLookahead(unitWorkers))
	}
	parallel.ForDynamic(len(units), unitWorkers, func(i int) {
		if seq != nil {
			w0 := time.Now()
			seq.acquire(i)
			sinkWait.Observe(time.Since(w0).Seconds())
		}
		c := execUnit(ctx, spec, units[i], graphs[units[i].Topology], run, replay)
		if collect {
			cells[i] = c
		}
		if seq != nil {
			seq.deliver(i, c)
		}
	})

	var rep *Report
	if collect {
		rep = &Report{
			Spec:    spec,
			Cells:   cells,
			Elapsed: time.Since(start),
		}
		rep.aggregate()
	}
	if seq != nil && seq.err != nil {
		return rep, seq.err
	}
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}

// sinkLookahead sizes the sequencer's window: wide enough that a full pool
// never throttles on ordinary cost variation, narrow enough that one
// pathologically slow unit cannot leave an unbounded stretch of completed
// cells buffered in memory instead of journaled.
func sinkLookahead(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return 4*workers + 16
}

// builtGraphs memoizes topology construction per (name, n): construction is
// deterministic (the seed derives from the name alone), graphs are
// immutable, and the engine's instance-sharing invariant only gets stronger
// when validation, repeated sweeps and the run itself all see the same
// instance — so the second build a validate-then-run CLI would otherwise
// pay disappears, and so do duplicate eigensolves downstream (same instance
// → same speccache fingerprint, trivially).
var builtGraphs sync.Map // "name|n" → *graph.G

// BuildGraphs builds each distinct topology of spec exactly as the engine
// will run it: with name-derived construction seeds, so randomized families
// (rgg, smallworld, random-regular) are reproducible regardless of pool
// scheduling and every unit of a topology sees the same instance — the same
// one across repeated calls in a process, via memoization. Exposed so
// callers can validate a spec's topologies are buildable before committing
// to side effects (truncating a journal file) without paying for the
// construction twice.
func BuildGraphs(spec Spec) (map[string]*graph.G, error) {
	if err := spec.validParams(); err != nil {
		return nil, err
	}
	spec, err := spec.withDefaults().Canonical()
	if err != nil {
		return nil, err
	}
	graphs := make(map[string]*graph.G)
	for _, name := range spec.Topologies {
		key := fmt.Sprintf("%s|%d", name, spec.N)
		if g, ok := builtGraphs.Load(key); ok {
			graphs[name] = g.(*graph.G)
			continue
		}
		g, err := topoparse.Build(name, spec.N, topologySeed(name))
		if err != nil {
			return nil, fmt.Errorf("batch: %w", err)
		}
		// Concurrent builders race benignly: construction is deterministic,
		// so whichever instance lands in the map is the one everyone shares
		// from then on.
		actual, _ := builtGraphs.LoadOrStore(key, g)
		graphs[name] = actual.(*graph.G)
	}
	return graphs, nil
}

// execUnit produces unit u's cell: a replayed outcome when the journal has
// one, a fresh run otherwise. Panics and per-unit errors are captured in the
// cell so one bad unit never wedges the sweep.
func execUnit(ctx context.Context, spec Spec, u Unit, g *graph.G, run RunFunc, replay map[string]Outcome) (c Cell) {
	c.Unit = u
	if out, ok := replay[u.Key()]; ok {
		c.Outcome = out
		c.finish(g.N())
		unitsReplayed.Inc()
		return c
	}
	if ctx != nil && ctx.Err() != nil {
		c.Err = ctx.Err().Error()
		return c
	}
	defer func() {
		if r := recover(); r != nil {
			c = Cell{Unit: u, Err: fmt.Sprintf("batch: unit %d panicked: %v", u.Index, r)}
			unitsFailed.Inc()
		}
	}()
	loads, algoSeed := u.Inputs(g.N(), spec.Scale)
	unitStart := time.Now()
	out, err := run(u, g, loads, algoSeed)
	c.Outcome = out
	c.Wall = time.Since(unitStart)
	unitWall.Observe(c.Wall.Seconds())
	if err != nil {
		c.Err = err.Error()
		unitsFailed.Inc()
		return c
	}
	c.finish(g.N())
	unitsDone.Inc()
	return c
}

// topologySeed derives the deterministic construction seed for a randomized
// topology family from the topology name alone — never from the sweep's
// seed list — so the instance behind a unit Key is stable no matter how the
// grid grows around it (the Key-as-cache-identity invariant).
func topologySeed(name string) int64 {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return parallel.DeriveSeed(h, 0)
}

// boundRatio is rounds/bound, or 0 when no bound applies (kept NaN-free so
// the report marshals to JSON).
func boundRatio(rounds int, bound float64) float64 {
	if bound <= 0 || math.IsNaN(bound) {
		return 0
	}
	return float64(rounds) / bound
}
