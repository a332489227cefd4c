package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// roundWorkerCounts are the worker counts every stepper must be
// byte-identical across: serial, even, odd-and-larger-than-most-chunks,
// eight, and whatever this machine has.
func roundWorkerCounts() []int {
	return []int{1, 2, 7, 8, runtime.NumCPU()}
}

// algorithmModes enumerates every supported algorithm×mode combination —
// the full stepper surface the byte-identity contract covers.
func algorithmModes() []struct {
	Algo Algorithm
	Mode Mode
} {
	var out []struct {
		Algo Algorithm
		Mode Mode
	}
	for _, a := range []Algorithm{Diffusion, DimensionExchange, RandomPartners, FirstOrder, SecondOrder, RoundRobinExchange} {
		for _, m := range []Mode{Continuous, Discrete} {
			if (a == FirstOrder || a == SecondOrder) && m == Discrete {
				continue
			}
			out = append(out, struct {
				Algo Algorithm
				Mode Mode
			}{a, m})
		}
	}
	return out
}

// loadBits fingerprints the stepper's live load state at bit level.
func loadBits(t *testing.T, sys System, mode Mode) []uint64 {
	t.Helper()
	if mode == Discrete {
		tok := sys.(Stepper[int64]).Values()
		out := make([]uint64, len(tok))
		for i, x := range tok {
			out[i] = uint64(x)
		}
		return out
	}
	v := sys.(Stepper[float64]).Values()
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestRoundWorkersByteIdentity is the core property of the hybrid
// parallelism design: for every algorithm×mode, stepping the system under
// any round-level worker count produces bit-identical load state to the
// serial run, round by round. Not "close" — identical: the parallel paths
// must execute the same floating-point operations in the same order.
func TestRoundWorkersByteIdentity(t *testing.T) {
	g := graph.Torus(8, 8)
	counts := roundWorkerCounts()
	const rounds = 50
	for _, am := range algorithmModes() {
		t.Run(fmt.Sprintf("%s-%s", am.Algo, modeName(am.Mode)), func(t *testing.T) {
			var ref [][]uint64 // per-round bits of the serial run
			for _, w := range counts {
				sys, err := newSystem(Config{
					Graph:     g,
					Algorithm: am.Algo,
					Mode:      am.Mode,
					Loads:     SpikeLoads(g.N(), 1e6*float64(g.N())),
					Seed:      7,
					Workers:   w,
				})
				if err != nil {
					t.Fatal(err)
				}
				var trace [][]uint64
				for r := 0; r < rounds; r++ {
					sys.Step()
					bits := loadBits(t, sys, am.Mode)
					trace = append(trace, append([]uint64(nil), bits...))
				}
				if ref == nil {
					ref = trace
					continue
				}
				for r := range ref {
					for i := range ref[r] {
						if ref[r][i] != trace[r][i] {
							t.Fatalf("workers=%d: round %d node %d: load bits %016x != serial %016x",
								w, r, i, trace[r][i], ref[r][i])
						}
					}
				}
			}
		})
	}
}

// TestRoundWorkersScenarioByteIdentity extends the contract to dynamic
// scenarios: mid-run graph swaps (edge churn rebuilds the stepper on a
// fresh subgraph most rounds) and adversarial arrivals must also be
// invariant under the round worker count — the swap path rebuilds steppers
// through the same Workers-threading constructor path as the first build.
func TestRoundWorkersScenarioByteIdentity(t *testing.T) {
	g := graph.Hypercube(5)
	scenarios := []string{"edge-churn:0.3", "adversarial-respike:4:0.5", "periodic-failures:3:2"}
	for _, scn := range scenarios {
		spec, err := scenario.Parse(scn)
		if err != nil {
			t.Fatal(err)
		}
		for _, am := range algorithmModes() {
			t.Run(fmt.Sprintf("%s/%s-%s", scn, am.Algo, modeName(am.Mode)), func(t *testing.T) {
				var ref Result
				var have bool
				for _, w := range roundWorkerCounts() {
					res, err := Balance(Config{
						Graph:     g,
						Algorithm: am.Algo,
						Mode:      am.Mode,
						Loads:     SpikeLoads(g.N(), 1e6*float64(g.N())),
						Epsilon:   1e-3,
						MaxRounds: 60,
						Seed:      3,
						Workers:   w,
						Scenario:  spec,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !have {
						ref, have = res, true
						continue
					}
					if len(res.Trace) != len(ref.Trace) {
						t.Fatalf("workers=%d: trace length %d != serial %d", w, len(res.Trace), len(ref.Trace))
					}
					for r := range ref.Trace {
						if math.Float64bits(res.Trace[r]) != math.Float64bits(ref.Trace[r]) {
							t.Fatalf("workers=%d: round %d: Φ bits differ from serial (%.17g != %.17g)",
								w, r, res.Trace[r], ref.Trace[r])
						}
					}
					if res.Rounds != ref.Rounds || res.Converged != ref.Converged {
						t.Fatalf("workers=%d: outcome (%d rounds, converged=%v) != serial (%d, %v)",
							w, res.Rounds, res.Converged, ref.Rounds, ref.Converged)
					}
				}
			})
		}
	}
}

// TestGridReportRoundWorkersByteIdentity mirrors the engine's unit-level
// w1-vs-w8 determinism check one level down: an entire grid sweep —
// including dynamic-scenario units — serializes to byte-identical JSON
// whether the steppers inside ran serial or fanned out over 7 round
// workers (and regardless of how the two levels are combined, auto included).
func TestGridReportRoundWorkersByteIdentity(t *testing.T) {
	spec := batch.Spec{
		Topologies: []string{"cycle", "torus", "hypercube"},
		Algorithms: []string{"diffusion", "dimexchange", "randpair", "roundrobin"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike"},
		Scenarios:  []string{"static", "edge-churn:0.2"},
		N:          32,
		Seeds:      []int64{1, 2},
		Epsilon:    1e-2,
		MaxRounds:  80,
	}
	var ref []byte
	for _, combo := range []struct{ w, rw int }{{1, 1}, {1, 7}, {2, 3}, {2, -1}} {
		spec.Workers, spec.RoundWorkers = combo.w, combo.rw
		rep, err := GridRun(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() > 0 {
			t.Fatalf("workers=%v: %d units failed", combo, rep.Failed())
		}
		data, err := json.Marshal(rep.Cells)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
			continue
		}
		if string(data) != string(ref) {
			t.Fatalf("workers=%+v: grid report differs from the serial sweep", combo)
		}
	}
}

func modeName(m Mode) string {
	if m == Discrete {
		return "discrete"
	}
	return "continuous"
}
