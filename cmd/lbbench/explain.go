package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/spectral"
)

// explainIgnored names the flags -explain would ignore: the other modes,
// the sweep dimensions a unit key already fixes, and the journal, shard and
// report plumbing of a sweep. Setting one next to -explain exits
// exitConflict.
var explainIgnored = map[string]bool{
	"grid": true, "exp": true, "seed": true, "quick": true, "format": true,
	"spawn": true, "merge": true, "resume": true, "out": true, "shard": true, "units": true,
	"stream-agg": true, "emit-matrix": true,
	"topos": true, "algos": true, "modes": true, "loads": true, "scenarios": true, "seeds": true,
}

// explainUnit turns key — a unit key as sweep error columns and -trace-out
// unit spans print it, topology/algorithm/mode/workload/s<seed>[/scenario] —
// into the one-unit spec that runs it under base's run parameters, and
// builds the unit's graph. Anything but the canonical key of exactly one
// unit is refused, so the key needs no parser of its own.
func explainUnit(base batch.Spec, key string) (batch.Spec, batch.Unit, *graph.G, error) {
	parts := strings.SplitN(key, "/", 6) // a trace:<path> scenario keeps its slashes
	if len(parts) < 5 || !strings.HasPrefix(parts[4], "s") {
		return batch.Spec{}, batch.Unit{}, nil, fmt.Errorf("-explain %q: want topology/algorithm/mode/workload/s<seed>[/scenario]", key)
	}
	seed, err := strconv.ParseInt(parts[4][1:], 10, 64)
	if err != nil {
		return batch.Spec{}, batch.Unit{}, nil, fmt.Errorf("-explain %q: bad seed %q", key, parts[4])
	}
	spec := base
	spec.Topologies, spec.Algorithms, spec.Modes, spec.Workloads = parts[0:1], parts[1:2], parts[2:3], parts[3:4]
	spec.Seeds, spec.Scenarios = []int64{seed}, parts[5:]
	if err := core.ValidateGridSpec(spec); err != nil {
		return batch.Spec{}, batch.Unit{}, nil, err
	}
	units, err := batch.Expand(spec)
	if err != nil {
		return batch.Spec{}, batch.Unit{}, nil, err
	}
	if len(units) != 1 || units[0].Key() != key {
		return batch.Spec{}, batch.Unit{}, nil, fmt.Errorf("-explain %q is not a unit key (the unit it names is %q)", key, units[0].Key())
	}
	graphs, _ := batch.BuildGraphs(spec) // ValidateGridSpec built them
	return spec.WithDefaults(), units[0], graphs[units[0].Topology], nil
}

// runExplain runs the unit key names exactly as its sweep cell runs —
// same inputs, same Config, same error — and prints its report to stdout.
func runExplain(base batch.Spec, key string, tracer *obs.Tracer) int {
	spec, u, g, err := explainUnit(base, key)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitUsage
	}
	loads, algoSeed := u.Inputs(g.N(), spec.Scale)
	res, err := core.RunUnit(spec, u, g, loads, algoSeed, tracer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitFailedUnits
	}
	w := bufio.NewWriter(os.Stdout)
	err = printExplain(w, spec, u, g, res)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitFailedUnits
	}
	return 0
}

// printExplain writes the unit's report: the spectral quantities the
// paper's bounds are stated in (the exact expansion and the whole Laplacian
// spectrum too when n ≤ graph.MaxExactExpansionN), the run's summary
// against its bound, and its Φ trajectory as round,phi CSV. Below two
// nodes λ₂ is undefined, so the spectral block is that one line, and the
// run — zero rounds, as its sweep cell records it — is still reported.
func printExplain(w io.Writer, spec batch.Spec, u batch.Unit, g *graph.G, res core.Result) error {
	fmt.Fprintf(w, "unit         : %s\n", u.Key())
	fmt.Fprintf(w, "graph        : %s\n", g)
	fmt.Fprintf(w, "connected    : %v\n", g.IsConnected())
	fmt.Fprintf(w, "diameter     : %d\n", graph.Diameter(g))
	if g.N() < 2 {
		fmt.Fprintln(w, "λ₂           : undefined (n < 2)")
	} else if err := printSpectra(w, spec, g); err != nil {
		return err
	}

	fmt.Fprintf(w, "algorithm    : %s (%s)\n", res.Algorithm, res.Mode)
	fmt.Fprintf(w, "workload     : %s, scale %.4g\n", u.WorkloadName, spec.Scale)
	fmt.Fprintf(w, "Φ            : %.6g → %.6g (ε target %g)\n", res.PhiStart, res.PhiEnd, spec.Epsilon)
	fmt.Fprintf(w, "rounds       : %d (converged: %v)\n", res.Rounds, res.Converged)
	if res.Reason == core.ReasonDisconnected {
		fmt.Fprintln(w, "stopped      : disconnected (the paper's bounds need a connected graph; no rounds run)")
	}
	if res.Bound > 0 {
		fmt.Fprintf(w, "paper bound  : %.1f rounds (%s) — measured/bound = %.3f\n",
			res.Bound, res.BoundName, float64(res.Rounds)/res.Bound)
	}
	if u.Scenario != "" {
		fmt.Fprintf(w, "scenario     : peak Φ %.6g, steady RMS %.6g, rebalanced in %d rounds\n",
			res.PeakPhi, res.SteadyRMS, res.RebalanceRounds)
	}

	fmt.Fprintln(w, "\nround,phi")
	for t, phi := range res.Trace {
		fmt.Fprintf(w, "%d,%s\n", t, strconv.FormatFloat(phi, 'g', -1, 64))
	}
	return nil
}

// printSpectra writes the spectral block of a graph with n ≥ 2.
func printSpectra(w io.Writer, spec batch.Spec, g *graph.G) error {
	rep, err := spectral.Analyze(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "λ₂           : %.8g (%s)\n", rep.Lambda2, rep.Method)
	if cf, ok := g.ClosedForm(); ok {
		fmt.Fprintf(w, "λ₂ closed    : %.8g (Δ = %.2g)\n", cf.Lambda2, math.Abs(cf.Lambda2-rep.Lambda2))
	}
	fmt.Fprintf(w, "λ_max        : %.8g\n", rep.LambdaMax)
	fmt.Fprintf(w, "γ (α=1/(δ+1)): %.8g  (eigen gap µ = %.6g)\n", rep.Gamma, 1-rep.Gamma)
	fmt.Fprintf(w, "expansion    : Cheeger bounds [%.6g, %.6g]\n", rep.ExpansionLo, rep.ExpansionHi)
	if rep.Lambda2 > 0 {
		fmt.Fprintf(w, "Theorem 4    : T(ε=%g) = %.1f rounds\n", spec.Epsilon, diffusion.ContinuousBound(g, rep.Lambda2, spec.Epsilon))
		fmt.Fprintf(w, "Theorem 6    : residual threshold Φ* = %.6g\n", diffusion.DiscreteThreshold(g, rep.Lambda2))
	}
	if g.N() <= graph.MaxExactExpansionN {
		fmt.Fprintf(w, "expansion ex.: %.6g\n", graph.EdgeExpansion(g))
		vals, err := spectral.LaplacianSpectrum(g)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "spectrum     :")
		for i, v := range vals {
			fmt.Fprintf(w, "  λ_%-3d = %.8g\n", i+1, v)
		}
	}
	return nil
}
