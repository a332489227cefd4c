package cliflags

import (
	"flag"

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
	RoundWorkers                          string
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
	fs.IntVar(&g.Parallel, "parallel", 0, "worker-pool width for sweeps (0 = GOMAXPROCS)")
	RegisterRoundWorkers(fs, &g.RoundWorkers)
	return g
}

// RegisterRoundWorkers registers the one -round-workers flag every lb* CLI
// presents (lbbench through RegisterGrid, lbserved directly):
// parse the value with ParseRoundWorkers.
func RegisterRoundWorkers(fs *flag.FlagSet, v *string) {
	fs.StringVar(v, "round-workers", "1", "round-level workers inside every stepper's node loops: a number, or 'auto' to fan out over all cores (grid sweeps split GOMAXPROCS between unit- and round-level work from the grid shape; results are byte-identical for any value)")
}

// Spec assembles the batch spec the parsed flags describe. Seed-list and
// round-workers parse errors surface here, after flag.Parse.
func (g *Grid) Spec() (batch.Spec, error) {
	seeds, err := ParseSeeds(g.Seeds)
	if err != nil {
		return batch.Spec{}, err
	}
	rw, err := ParseRoundWorkers(g.RoundWorkers)
	if err != nil {
		return batch.Spec{}, err
	}
	return batch.Spec{
		Topologies:   SplitList(g.Topos),
		Algorithms:   SplitList(g.Algos),
		Modes:        SplitList(g.Modes),
		Workloads:    SplitList(g.Loads),
		Scenarios:    SplitList(g.Scenarios),
		Seeds:        seeds,
		N:            g.N,
		Scale:        g.Scale,
		Epsilon:      g.Eps,
		MaxRounds:    g.Rounds,
		Workers:      g.Parallel,
		RoundWorkers: rw,
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
	fs.StringVar(&o.Format, "format", "table", "final report format (table, csv, json)")
	fs.BoolVar(&o.StreamAgg, "stream-agg", false, "streaming-only aggregation: fold aggregates and per-dimension marginals incrementally, never materializing cells")
	return o
}

// CheckFormat validates the -format value.
func (o *Output) CheckFormat() error {
	switch o.Format {
	case "table", "csv", "json":
		return nil
	}
	return badFormatError(o.Format)
}

type badFormatError string

func (e badFormatError) Error() string {
	return "unknown -format \"" + string(e) + "\" (want table, csv or json)"
}
