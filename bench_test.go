// Package repro's root benchmark suite: one testing.B target per experiment
// that `lbbench -list` names (each regenerates its table in quick mode), plus
// micro-benchmarks of the primitives that dominate the harness' runtime
// (round steppers, eigensolvers, sequentialization).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one paper table at full size instead:
//
//	go run ./cmd/lbbench -exp E3
package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/dimexchange"
	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/randpair"
	"repro/internal/sequential"
	"repro/internal/spectral"
	"repro/internal/workload"
)

// benchExperiment runs one experiment table per iteration in quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := runner(experiments.Options{Seed: int64(i + 1), Quick: true})
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1SequentialDrop(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2ConcurrencyGap(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3ContinuousConvergence(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4DiscreteConvergence(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5DynamicContinuous(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6DynamicDiscrete(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7PartnerDegree(b *testing.B)           { benchExperiment(b, "E7") }
func BenchmarkE8PotentialIdentity(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9RandomPartners(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10RandomPartnersDiscrete(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11VsDimensionExchange(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12VsFirstSecondOrder(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13LocalDivergence(b *testing.B)        { benchExperiment(b, "E13") }
func BenchmarkE14BallsBins(b *testing.B)              { benchExperiment(b, "E14") }
func BenchmarkE15FlowOptimality(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16CommunicationCost(b *testing.B)      { benchExperiment(b, "E16") }
func BenchmarkE17ResidualScaling(b *testing.B)        { benchExperiment(b, "E17") }
func BenchmarkE18ContractionRate(b *testing.B)        { benchExperiment(b, "E18") }
func BenchmarkE19Interconnects(b *testing.B)          { benchExperiment(b, "E19") }
func BenchmarkA1DiffusionFactor(b *testing.B)         { benchExperiment(b, "A1") }
func BenchmarkA2ActivationOrder(b *testing.B)         { benchExperiment(b, "A2") }
func BenchmarkA3Rounding(b *testing.B)                { benchExperiment(b, "A3") }
func BenchmarkA4OPSComparison(b *testing.B)           { benchExperiment(b, "A4") }
func BenchmarkA5SyncVsAsync(b *testing.B)             { benchExperiment(b, "A5") }
func BenchmarkA6Heterogeneous(b *testing.B)           { benchExperiment(b, "A6") }
func BenchmarkA7PsiExact(b *testing.B)                { benchExperiment(b, "A7") }
func BenchmarkA8MatchingSchedule(b *testing.B)        { benchExperiment(b, "A8") }

// --- batch grid engine ---

// benchGrid measures one full sweep of the batch engine at the given pool
// width; the serial/parallel pair quantifies the engine's speedup.
func benchGrid(b *testing.B, workers int) {
	b.Helper()
	spec := batch.Spec{
		Topologies: []string{"cycle", "torus", "hypercube"},
		Algorithms: []string{"diffusion", "dimexchange", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Seeds:      []int64{1, 2},
		N:          32,
		Workers:    workers,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.GridRun(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() > 0 {
			b.Fatalf("%d grid units failed", rep.Failed())
		}
	}
}

func BenchmarkBalanceGridSerial(b *testing.B)   { benchGrid(b, 1) }
func BenchmarkBalanceGridParallel(b *testing.B) { benchGrid(b, 0) }

// --- primitive micro-benchmarks ---

func benchGraph() *graph.G { return graph.Torus(32, 32) } // 1024 nodes, 2048 edges

func BenchmarkDiffusionStepContinuous(b *testing.B) {
	g := benchGraph()
	init := workload.Continuous(workload.Spike, g.N(), 1e9, nil)
	st := diffusion.New(g, init)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

func BenchmarkDiffusionStepContinuousParallel(b *testing.B) {
	g := benchGraph()
	init := workload.Continuous(workload.Spike, g.N(), 1e9, nil)
	st := diffusion.New(g, init)
	st.Workers = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

// The hypercube pair times Algorithm 1 against first-order diffusion on the
// same serial continuous 2¹⁴-node spike cell: ROADMAP's target is the first
// within 1.5× of the second. The hypercube is regular, so Algorithm 1 runs
// its constant-divisor round body here; BenchmarkDiffusionStepDeBruijn
// times the general body on the same cell.
func BenchmarkDiffusionStepHypercube(b *testing.B) {
	g := graph.Hypercube(14)
	st := diffusion.New(g, workload.Continuous(workload.Spike, g.N(), 1e6*float64(g.N()), nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

// BenchmarkDiffusionStepHypercube14 times one serial continuous Algorithm 1
// round of the e2ebench cell workload: the 2¹⁴-node hypercube, whose 2m
// CSR targets (0.9 MB) outgrow the 1024-node torus's L1-resident ones,
// started from uniform noise plus a spike of 1000·n. Every 93 rounds, the
// length of such a cell to ε = 1e-6, the loads restart, so every timed
// round is one a cell runs.
func BenchmarkDiffusionStepHypercube14(b *testing.B) {
	const cellRounds = 93
	g := graph.Hypercube(14)
	rng := rand.New(rand.NewSource(1))
	start := make([]float64, g.N())
	for i := range start {
		start[i] = rng.Float64()
	}
	start[rng.Intn(g.N())] += 1000 * float64(g.N())
	st := diffusion.New(g, start)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%cellRounds == 0 {
			copy(st.Values(), start)
		}
		st.Step()
	}
}

func BenchmarkFirstOrderStepHypercube(b *testing.B) {
	g := graph.Hypercube(14)
	st := diffusion.NewFirstOrder(g, workload.Continuous(workload.Spike, g.N(), 1e6*float64(g.N()), nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

func BenchmarkDiffusionStepDeBruijn(b *testing.B) {
	g := graph.DeBruijn(14)
	st := diffusion.New(g, workload.Continuous(workload.Spike, g.N(), 1e6*float64(g.N()), nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

// BenchmarkGraphBuild times building the e2ebench cell and churn
// workloads' base graphs through graph.Builder: the edge generation, the
// sort of the packed keys and the CSR placement.
func BenchmarkGraphBuild(b *testing.B) {
	b.Run("hypercube14", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			graph.Hypercube(14)
		}
	})
	b.Run("random-regular4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			graph.RandomRegular(4096, 4, rand.New(rand.NewSource(1)))
		}
	})
}

// BenchmarkRandomSubgraphsNext times one churn draw: the random subgraph a
// §5 dynamic run swaps in every round, on the e2ebench churn workload's base
// graph (random 4-regular, n = 4096) keeping 90% of the edges.
func BenchmarkRandomSubgraphsNext(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := &dynamic.RandomSubgraphs{Base: graph.RandomRegular(4096, 4, rng), KeepProb: 0.9, RNG: rng}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.Next(i)
	}
}

func BenchmarkDiffusionStepDiscrete(b *testing.B) {
	g := benchGraph()
	init := workload.Discrete(workload.Spike, g.N(), 1_000_000_000, nil)
	st := diffusion.New(g, init)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

func BenchmarkDimExchangeStep(b *testing.B) {
	g := benchGraph()
	rng := rand.New(rand.NewSource(1))
	init := workload.Continuous(workload.Spike, g.N(), 1e9, nil)
	st := dimexchange.New(g, init, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

func BenchmarkRandPairStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	init := workload.Continuous(workload.Spike, 1024, 1e9, nil)
	st := randpair.New(init, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

func BenchmarkSequentializeRound(b *testing.B) {
	g := benchGraph()
	rng := rand.New(rand.NewSource(1))
	l := workload.Continuous(workload.Uniform, g.N(), 1e6, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequential.Sequentialize(g, l, sequential.IncreasingWeight, rng)
	}
}

func BenchmarkLambda2Dense(b *testing.B) {
	g := graph.Torus(12, 12) // 144 nodes: dense Householder+QL path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.LaplacianSpectrum(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLambda2InversePower(b *testing.B) {
	g := graph.Torus(32, 32) // 1024 nodes: CG inverse-power path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.Lambda2InversePower(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomMatching(b *testing.B) {
	g := benchGraph()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dimexchange.RandomMatching(g, rng)
	}
}
