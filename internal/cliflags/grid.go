package cliflags

import (
	"flag"
	"fmt"

	"repro/internal/batch"
)

// Grid holds the shared sweep-grid flag values after parsing. Register it
// with RegisterGrid; build the spec with Spec.
type Grid struct {
	Topos, Algos, Modes, Loads, Scenarios string
	N                                     int
	Seeds                                 string
	Scale, Eps                            float64
	Rounds, Parallel                      int
}

// RegisterGrid registers the sweep grid's dimension and run-parameter flags
// on fs — lbbench's grid mode and its -spawn orchestrator read the same
// values, so a spawned sweep's shards run exactly the grid it was given.
func RegisterGrid(fs *flag.FlagSet) *Grid {
	g := &Grid{}
	fs.StringVar(&g.Topos, "topos", "cycle,torus,hypercube", "grid: comma-separated topology names")
	fs.StringVar(&g.Algos, "algos", "diffusion,dimexchange,randpair", "grid: comma-separated algorithm names")
	fs.StringVar(&g.Modes, "modes", "continuous", "grid: comma-separated load modes (continuous,discrete)")
	fs.StringVar(&g.Loads, "loads", "spike,uniform", "grid: comma-separated workload kinds")
	fs.StringVar(&g.Scenarios, "scenarios", "static", "grid: comma-separated scenarios (time-varying arrivals / adversarial spikes / topology churn)")
	fs.IntVar(&g.N, "n", 64, "grid: approximate node count per topology")
	fs.StringVar(&g.Seeds, "seeds", "1", "grid: comma-separated repetition seeds")
	fs.Float64Var(&g.Scale, "scale", 1e6, "grid: load magnitude")
	fs.Float64Var(&g.Eps, "eps", 1e-3, "grid: convergence target Φ ≤ ε·Φ⁰")
	fs.IntVar(&g.Rounds, "rounds", 0, "grid: round cap per unit (0 = theorem-derived default)")
	fs.IntVar(&g.Parallel, "parallel", 0, "worker-pool width for sweeps (0 = GOMAXPROCS; a grid with fewer units than cores gives the spare ones to its rounds)")
	return g
}

// Spec assembles the batch spec the parsed flags describe. Seed-list
// parse errors surface here, after flag.Parse.
func (g *Grid) Spec() (batch.Spec, error) {
	seeds, err := ParseSeeds(g.Seeds)
	if err != nil {
		return batch.Spec{}, err
	}
	return batch.Spec{
		Topologies: SplitList(g.Topos),
		Algorithms: SplitList(g.Algos),
		Modes:      SplitList(g.Modes),
		Workloads:  SplitList(g.Loads),
		Scenarios:  SplitList(g.Scenarios),
		Seeds:      seeds,
		N:          g.N,
		Scale:      g.Scale,
		Epsilon:    g.Eps,
		MaxRounds:  g.Rounds,
		Workers:    g.Parallel,
	}, nil
}

// Output holds the shared report-output flag values.
type Output struct {
	Format    string
	StreamAgg bool
}

// RegisterOutput registers the report knobs every sweep CLI ends with.
func RegisterOutput(fs *flag.FlagSet) *Output {
	o := &Output{}
	fs.StringVar(&o.Format, "format", "table", "output format: table, csv or json for a grid report; table or csv for -exp")
	fs.BoolVar(&o.StreamAgg, "stream-agg", false, "streaming-only aggregation: fold aggregates and per-dimension marginals incrementally, never materializing cells")
	return o
}

// CheckFormat validates the -format value: a sweep report (grid) renders
// as table, csv or json, an experiment table as table or csv.
func (o *Output) CheckFormat(grid bool) error {
	switch {
	case o.Format == "table" || o.Format == "csv" || o.Format == "json" && grid:
		return nil
	case grid:
		return fmt.Errorf("unknown -format %q (want table, csv or json)", o.Format)
	}
	return fmt.Errorf("unknown -format %q for -exp (want table or csv)", o.Format)
}
