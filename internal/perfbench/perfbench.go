// Package perfbench is the performance-trajectory harness: it measures
// ns/round as a function of n for every topology×algorithm×mode combination
// (at each configured round-level worker count) and cells/sec for two
// pinned reference sweeps — the many-small-cells regime unit fan-out is for
// and the few-huge-cells regime round fan-out is for — and emits a
// machine-readable report (BENCH_PRn.json at the repo root) that every
// future change must beat.
//
// Two properties make the numbers comparable:
//
//   - Fixed work profiles. Each measurement times a pinned number of rounds
//     (a node-operation budget divided by n) from a freshly built stepper,
//     so every sample — on any machine, at any worker count — executes the
//     same deterministic trajectory rather than "however many rounds fit in
//     a wall-clock window".
//   - A calibration anchor. The report records the serial ns/round of one
//     fixed reference workload; Compare normalizes by the two reports'
//     anchors, so a faster or slower machine shifts every number together
//     and only genuine regressions move the ratio.
//
// The harness also re-verifies the determinism contract it depends on:
// every measurement records an FNV-64a checksum of the final load state,
// and Run fails if any two worker counts of the same configuration
// disagree — a byte-identity check built into the benchmark itself.
package perfbench

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/topoparse"
	"repro/internal/workload"
)

// Config selects what Run measures. The zero value measures the default
// grid committed as the repo's benchmark trajectory — CI and the committed
// baseline must use the same configuration, or Compare reports the
// difference as missing coverage.
type Config struct {
	// Topologies are topoparse names (default torus, hypercube).
	Topologies []string
	// Algorithms are core algorithm names (default diffusion, firstorder,
	// dimexchange, randpair).
	Algorithms []string
	// Modes are load models (default continuous, discrete); combinations
	// an algorithm does not support are skipped silently.
	Modes []string
	// Sizes are the node counts of the ns/round-vs-n curve (default 1024,
	// 4096, 16384; rigid families round up as topoparse does).
	Sizes []int
	// LargeSizes extends the curve into the million-node regime: for each
	// topology × large size the harness measures one serial continuous
	// diffusion row (a handful of rounds — see largeRoundsFor) plus a timed
	// λ₂ solve, recording which solver path (closed-form, Lanczos, …) the
	// spectral layer picked. Empty = no large-n rows; the committed baseline
	// uses {1<<17, 1<<20} via cmd/perfbench's -large-sizes default.
	LargeSizes []int
	// RoundWorkersList are the round-level worker counts each
	// configuration is measured at (default 1, 8).
	RoundWorkersList []int
	// Scale is the spike magnitude per node (default 1e6).
	Scale float64
	// Seed drives the randomized algorithms (default 1).
	Seed int64
	// RoundsBudget is the per-sample node-operation budget: a measurement
	// times budget/n rounds, clamped to [64, 4096], so samples cost
	// roughly constant wall time across sizes while the round count stays
	// a pinned, machine-independent function of n (default 2²²).
	RoundsBudget int
	// Samples is how many times each measurement repeats; the fastest
	// sample wins, discarding scheduler noise (default 3).
	Samples int
	// SkipSweeps drops the two cells/sec reference sweeps (they dominate
	// the harness's wall time; the CI gate wants them, quick local runs
	// may not).
	SkipSweeps bool
	// Log receives one progress line per measurement (nil = silent).
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if len(c.Topologies) == 0 {
		c.Topologies = []string{"torus", "hypercube"}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"diffusion", "firstorder", "dimexchange", "randpair"}
	}
	if len(c.Modes) == 0 {
		c.Modes = []string{"continuous", "discrete"}
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1024, 4096, 16384}
	}
	if len(c.RoundWorkersList) == 0 {
		c.RoundWorkersList = []int{1, 8}
	}
	if c.Scale <= 0 {
		c.Scale = 1e6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RoundsBudget <= 0 {
		c.RoundsBudget = 1 << 22
	}
	if c.Samples <= 0 {
		c.Samples = 3
	}
	return c
}

// roundsFor pins the timed round count for size n.
func (c Config) roundsFor(n int) int {
	r := c.RoundsBudget / n
	if r < 64 {
		r = 64
	}
	if r > 4096 {
		r = 4096
	}
	return r
}

// largeRoundsFor pins the timed round count for the large-n rows. The
// regular 64-round floor would cost minutes at n = 2²⁰, so the large rows
// clamp to [8, 64]: still a pinned, machine-independent function of n, just
// sized for graphs where a single round touches millions of nodes.
func (c Config) largeRoundsFor(n int) int {
	r := c.RoundsBudget / n
	if r < 8 {
		r = 8
	}
	if r > 64 {
		r = 64
	}
	return r
}

// RoundResult is one point of the ns/round-vs-n curve.
type RoundResult struct {
	Topology     string  `json:"topology"`
	Algorithm    string  `json:"algorithm"`
	Mode         string  `json:"mode"`
	N            int     `json:"n"`
	RoundWorkers int     `json:"round_workers"`
	RoundsTimed  int     `json:"rounds_timed"`
	NsPerRound   float64 `json:"ns_per_round"`
	// Checksum fingerprints the final load state (FNV-64a over the raw
	// bits); Run requires it to be identical across worker counts.
	Checksum string `json:"state_checksum"`
}

// Key identifies the measurement across reports.
func (r RoundResult) Key() string {
	return fmt.Sprintf("%s/%s/%s/n%d/rw%d", r.Topology, r.Algorithm, r.Mode, r.N, r.RoundWorkers)
}

// SpectralResult is one timed λ₂ solve from the large-n rows: how long the
// spectral layer took for the topology at size n and which solver path it
// used — "closed-form" for recognized structured families (microseconds),
// "lanczos" for the implicit CSR solver, "dense" or "inverse-power"
// otherwise. The committed baseline pins the expected path; a future change
// that silently falls off the closed-form or Lanczos path shows up here as
// a thousand-fold ElapsedNs regression rather than a quiet CI slowdown.
type SpectralResult struct {
	Topology  string  `json:"topology"`
	N         int     `json:"n"`
	Lambda2   float64 `json:"lambda2"`
	ElapsedNs int64   `json:"elapsed_ns"`
	Path      string  `json:"path"`
}

// Key identifies the spectral entry across reports.
func (s SpectralResult) Key() string {
	return fmt.Sprintf("lambda2:%s/n%d", s.Topology, s.N)
}

// SweepResult is the throughput of one pinned reference sweep.
type SweepResult struct {
	Name         string  `json:"name"`
	Units        int     `json:"units"`
	UnitWorkers  int     `json:"unit_workers"`
	RoundWorkers int     `json:"round_workers"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	CellsPerSec  float64 `json:"cells_per_sec"`
}

// Key identifies the sweep entry across reports.
func (s SweepResult) Key() string {
	return fmt.Sprintf("sweep:%s/w%d/rw%d", s.Name, s.UnitWorkers, s.RoundWorkers)
}

// Report is the serialized trajectory.
type Report struct {
	Version int `json:"version"`
	// Label names the baseline (e.g. "PR6").
	Label      string `json:"label,omitempty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CalibrationNs is the serial ns/round of the fixed reference workload
	// (continuous diffusion, 1024-node torus) — the machine-speed anchor
	// Compare normalizes both reports by.
	CalibrationNs float64          `json:"calibration_ns_per_round"`
	Rounds        []RoundResult    `json:"rounds"`
	Spectra       []SpectralResult `json:"spectra,omitempty"`
	Sweeps        []SweepResult    `json:"sweeps,omitempty"`
}

// Run executes the configured measurements and assembles the report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		Version:    1,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	cal, err := calibrate(cfg)
	if err != nil {
		return nil, fmt.Errorf("perfbench: calibration: %w", err)
	}
	rep.CalibrationNs = cal
	cfg.logf("calibration: %.0f ns/round", cal)

	for _, topo := range cfg.Topologies {
		for _, size := range cfg.Sizes {
			g, err := topoparse.Build(topo, size, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("perfbench: %w", err)
			}
			loads := workload.Continuous(workload.Spike, g.N(), cfg.Scale*float64(g.N()), nil)
			for _, algoName := range cfg.Algorithms {
				algo, err := core.ParseAlgorithm(algoName)
				if err != nil {
					return nil, fmt.Errorf("perfbench: %w", err)
				}
				for _, modeName := range cfg.Modes {
					mode, err := parseMode(modeName)
					if err != nil {
						return nil, err
					}
					if (algo == core.FirstOrder || algo == core.SecondOrder) && mode == core.Discrete {
						continue // continuous-only schemes
					}
					var want string
					for _, rw := range cfg.RoundWorkersList {
						ns, sum, err := measure(cfg, g, algo, mode, loads, rw, cfg.roundsFor(g.N()))
						if err != nil {
							return nil, err
						}
						res := RoundResult{
							Topology:     topo,
							Algorithm:    algoName,
							Mode:         modeName,
							N:            g.N(),
							RoundWorkers: rw,
							RoundsTimed:  cfg.roundsFor(g.N()),
							NsPerRound:   ns,
							Checksum:     sum,
						}
						if want == "" {
							want = sum
						} else if sum != want {
							return nil, fmt.Errorf(
								"perfbench: %s: checksum %s differs from round-workers=%d checksum %s — the byte-identity contract is broken",
								res.Key(), sum, cfg.RoundWorkersList[0], want)
						}
						rep.Rounds = append(rep.Rounds, res)
						cfg.logf("%-48s %12.0f ns/round  (%d rounds)", res.Key(), res.NsPerRound, res.RoundsTimed)
					}
				}
			}
		}
	}

	for _, topo := range cfg.Topologies {
		for _, size := range cfg.LargeSizes {
			round, spec, err := measureLarge(cfg, topo, size)
			if err != nil {
				return nil, err
			}
			rep.Rounds = append(rep.Rounds, round)
			cfg.logf("%-48s %12.0f ns/round  (%d rounds)", round.Key(), round.NsPerRound, round.RoundsTimed)
			rep.Spectra = append(rep.Spectra, spec)
			cfg.logf("%-48s %12d ns  (λ₂=%.6g, path=%s)", spec.Key(), spec.ElapsedNs, spec.Lambda2, spec.Path)
		}
	}

	if !cfg.SkipSweeps {
		sweeps, err := runSweeps(cfg)
		if err != nil {
			return nil, err
		}
		rep.Sweeps = sweeps
	}
	return rep, nil
}

// measureLarge runs one large-n row: a serial continuous diffusion
// measurement (the CSR hot loop under test, at the worker count the
// byte-identity contract anchors) and a timed λ₂ solve with the solver path
// recorded from the spectral layer's solve counters. The graph is built
// once and shared by both measurements — at n = 2²⁰ the build itself costs
// seconds and hundreds of MB, so it must stay outside the clock.
func measureLarge(cfg Config, topo string, size int) (RoundResult, SpectralResult, error) {
	g, err := topoparse.Build(topo, size, cfg.Seed)
	if err != nil {
		return RoundResult{}, SpectralResult{}, fmt.Errorf("perfbench: %w", err)
	}
	loads := workload.Continuous(workload.Spike, g.N(), cfg.Scale*float64(g.N()), nil)
	rounds := cfg.largeRoundsFor(g.N())
	ns, sum, err := measure(cfg, g, core.Diffusion, core.Continuous, loads, 1, rounds)
	if err != nil {
		return RoundResult{}, SpectralResult{}, err
	}
	round := RoundResult{
		Topology:     topo,
		Algorithm:    "diffusion",
		Mode:         "continuous",
		N:            g.N(),
		RoundWorkers: 1,
		RoundsTimed:  rounds,
		NsPerRound:   ns,
		Checksum:     sum,
	}

	before := spectral.SolveStats()
	start := time.Now()
	l2, err := spectral.Lambda2(g)
	elapsed := time.Since(start)
	if err != nil {
		return RoundResult{}, SpectralResult{}, fmt.Errorf("perfbench: λ₂(%s, n=%d): %w", topo, g.N(), err)
	}
	spec := SpectralResult{
		Topology:  topo,
		N:         g.N(),
		Lambda2:   l2,
		ElapsedNs: elapsed.Nanoseconds(),
		Path:      solvePath(before, spectral.SolveStats()),
	}
	return round, spec, nil
}

// solvePath names the solver the spectral layer used between two counter
// snapshots. A single Lambda2 call bumps exactly one counter; if several
// moved (another goroutine raced a solve in), the slowest path wins so the
// report never under-states the cost.
func solvePath(before, after spectral.SolveCounts) string {
	switch {
	case after.Dense > before.Dense:
		return "dense"
	case after.InversePower > before.InversePower:
		return "inverse-power"
	case after.Lanczos > before.Lanczos:
		return "lanczos"
	case after.ClosedForm > before.ClosedForm:
		return "closed-form"
	default:
		return "unknown"
	}
}

// SmokeResult is what LargeNSmoke measured, for logging and the CI gate.
type SmokeResult struct {
	DiffusionN       int
	DiffusionRounds  int
	DiffusionNs      float64 // ns/round
	Lambda2Topology  string
	Lambda2N         int
	Lambda2          float64
	Lambda2Ns        int64
	Lambda2Path      string
	Elapsed          time.Duration
	DenseSolvesDelta uint64
}

// LargeNSmoke is the CI large-n gate: it steps a million-node hypercube
// diffusion cell for a few rounds (the CSR hot loop at the scale the PR 7
// work targets) and solves λ₂ of the million-node de Bruijn graph — a
// topology with no closed form, so the solve must take the implicit Lanczos
// path. It fails if the dense eigensolver ran at all (materializing an n×n
// matrix at n = 2²⁰ would be an 8 TB allocation — the counter check catches
// a dispatch regression long before an OOM would), if the λ₂ solve fell off
// the Lanczos path, or if the whole check exceeded the wall-clock budget.
func LargeNSmoke(budget time.Duration, logw io.Writer) (*SmokeResult, error) {
	const smokeN = 1 << 20
	cfg := Config{Samples: 1, Log: logw}.withDefaults()
	start := time.Now()
	before := spectral.SolveStats()

	g, err := topoparse.Build("hypercube", smokeN, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("perfbench: smoke: %w", err)
	}
	loads := workload.Continuous(workload.Spike, g.N(), cfg.Scale*float64(g.N()), nil)
	rounds := cfg.largeRoundsFor(g.N())
	ns, _, err := measure(cfg, g, core.Diffusion, core.Continuous, loads, 1, rounds)
	if err != nil {
		return nil, fmt.Errorf("perfbench: smoke: %w", err)
	}
	res := &SmokeResult{DiffusionN: g.N(), DiffusionRounds: rounds, DiffusionNs: ns}
	cfg.logf("smoke: hypercube n=%d diffusion: %.0f ns/round (%d rounds)", g.N(), ns, rounds)
	g = nil // let the ~300 MB hypercube go before the next build

	db, err := topoparse.Build("debruijn", smokeN, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("perfbench: smoke: %w", err)
	}
	mid := spectral.SolveStats()
	solveStart := time.Now()
	l2, err := spectral.Lambda2(db)
	solveElapsed := time.Since(solveStart)
	if err != nil {
		return nil, fmt.Errorf("perfbench: smoke: λ₂(debruijn, n=%d): %w", db.N(), err)
	}
	after := spectral.SolveStats()
	res.Lambda2Topology = "debruijn"
	res.Lambda2N = db.N()
	res.Lambda2 = l2
	res.Lambda2Ns = solveElapsed.Nanoseconds()
	res.Lambda2Path = solvePath(mid, after)
	res.Elapsed = time.Since(start)
	res.DenseSolvesDelta = after.Dense - before.Dense
	cfg.logf("smoke: λ₂(debruijn, n=%d) = %.6g via %s in %v (total %v)",
		db.N(), l2, res.Lambda2Path, solveElapsed.Round(time.Millisecond), res.Elapsed.Round(time.Millisecond))

	if res.DenseSolvesDelta != 0 {
		return res, fmt.Errorf("perfbench: smoke: dense eigensolver ran %d time(s) at n=%d — the spectral dispatch must never materialize matrices at this scale", res.DenseSolvesDelta, smokeN)
	}
	if res.Lambda2Path != "lanczos" {
		return res, fmt.Errorf("perfbench: smoke: λ₂ solved via %q, want the implicit lanczos path", res.Lambda2Path)
	}
	if budget > 0 && res.Elapsed > budget {
		return res, fmt.Errorf("perfbench: smoke: took %v, budget %v", res.Elapsed.Round(time.Millisecond), budget)
	}
	return res, nil
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// calibrate measures the fixed reference workload: serial continuous
// diffusion on a 1024-node torus, 1024 rounds, spike start. Its ns/round
// anchors cross-machine comparison, so its definition must never change
// between baselines.
func calibrate(cfg Config) (float64, error) {
	g, err := topoparse.Build("torus", 1024, 1)
	if err != nil {
		return 0, err
	}
	loads := workload.Continuous(workload.Spike, g.N(), 1e6*float64(g.N()), nil)
	ns, _, err := measure(cfg, g, core.Diffusion, core.Continuous, loads, 1, 1024)
	return ns, err
}

// measure times `rounds` steps of the configuration at the given round
// worker count, best of cfg.Samples fresh runs (each sample rebuilds the
// stepper, so every sample — and every worker count — walks the same
// deterministic trajectory). One untimed warm-up step per sample lets the
// steppers allocate their scratch buffers outside the clock. Returns
// ns/round of the fastest sample and the final-state checksum.
func measure(cfg Config, g *graph.G, algo core.Algorithm, mode core.Mode, loads []float64, rw, rounds int) (float64, string, error) {
	best := time.Duration(math.MaxInt64)
	var last core.System
	for s := 0; s < cfg.Samples; s++ {
		sys, err := core.NewSystem(core.Config{
			Graph:     g,
			Algorithm: algo,
			Mode:      mode,
			Loads:     loads,
			Seed:      cfg.Seed,
			Workers:   rw,
		})
		if err != nil {
			return 0, "", fmt.Errorf("perfbench: %w", err)
		}
		sys.Step()
		start := time.Now()
		for r := 0; r < rounds; r++ {
			sys.Step()
		}
		if el := time.Since(start); el < best {
			best = el
		}
		last = sys
	}
	return float64(best.Nanoseconds()) / float64(rounds), stateChecksum(last), nil
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "continuous":
		return core.Continuous, nil
	case "discrete":
		return core.Discrete, nil
	default:
		return 0, fmt.Errorf("perfbench: unknown mode %q (want continuous or discrete)", s)
	}
}

// stateChecksum fingerprints a stepper's load state: FNV-64a over the raw
// float bits (continuous) or token values (discrete). Bit-level, not
// value-level — +0/−0 or differing NaN payloads would show — which is
// exactly the byte-identity contract the parallel paths promise.
func stateChecksum(sys core.System) string {
	h := fnv.New64a()
	var buf [8]byte
	switch s := sys.(type) {
	case core.Stepper[int64]:
		for _, t := range s.Values() {
			binary.LittleEndian.PutUint64(buf[:], uint64(t))
			h.Write(buf[:])
		}
	case core.Stepper[float64]:
		for _, v := range s.Values() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	default:
		return "unavailable"
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runSweeps measures the two pinned reference sweeps through the real grid
// engine: many-small (144 cheap units — the regime unit-level fan-out is
// for) at pool widths 1 and 4, and few-huge (4 expensive 4096-node units
// on a fixed 128-round horizon — the regime round-level fan-out is for)
// with 4 workers on the unit level vs. 4 on the round level. The sweeps
// run once each (no best-of): they are throughput references, and their
// cells/sec is normalized by the calibration anchor like everything else.
func runSweeps(cfg Config) ([]SweepResult, error) {
	manySmall := batch.Spec{
		Topologies: []string{"cycle", "torus", "hypercube"},
		Algorithms: []string{"diffusion", "dimexchange", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		N:          64,
		Seeds:      []int64{1, 2},
	}
	fewHuge := batch.Spec{
		Topologies: []string{"torus"},
		Algorithms: []string{"diffusion"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		N:          4096,
		Seeds:      []int64{1, 2, 3, 4},
		MaxRounds:  128,
	}
	entries := []struct {
		name  string
		spec  batch.Spec
		w, rw int
	}{
		{"many-small", manySmall, 1, 1},
		{"many-small", manySmall, 4, 1},
		{"few-huge", fewHuge, 4, 1},
		{"few-huge", fewHuge, 1, 4},
	}
	// Warm the process-wide spectral cache before the clock starts: the
	// first sweep to touch each (topology, n) pays its λ₂ eigensolve, which
	// would otherwise be billed to whichever entry happens to run first.
	for _, spec := range []batch.Spec{manySmall, fewHuge} {
		warm := spec
		warm.Seeds = []int64{1}
		warm.MaxRounds = 1
		if _, err := core.GridRun(context.Background(), warm); err != nil {
			return nil, fmt.Errorf("perfbench: sweep warm-up: %w", err)
		}
	}

	var out []SweepResult
	for _, e := range entries {
		spec := e.spec
		spec.Workers, spec.RoundWorkers = e.w, e.rw
		start := time.Now()
		rep, err := core.GridRun(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("perfbench: sweep %s: %w", e.name, err)
		}
		if rep.Failed() > 0 {
			return nil, fmt.Errorf("perfbench: sweep %s: %d units failed", e.name, rep.Failed())
		}
		elapsed := time.Since(start)
		res := SweepResult{
			Name:         e.name,
			Units:        len(rep.Cells),
			UnitWorkers:  e.w,
			RoundWorkers: e.rw,
			ElapsedNs:    elapsed.Nanoseconds(),
			CellsPerSec:  float64(len(rep.Cells)) / elapsed.Seconds(),
		}
		out = append(out, res)
		cfg.logf("%-48s %12.2f cells/sec (%d units in %v)", res.Key(), res.CellsPerSec, res.Units, elapsed.Round(time.Millisecond))
	}
	return out, nil
}
