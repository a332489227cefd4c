// External test package so the tests can drive the engine exactly the way
// its real callers (core, the CLIs) do.
package batch_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/graph"
)

// okSpec is a small three-dimensional grid used across the tests.
func okSpec() batch.Spec {
	return batch.Spec{
		Topologies: []string{"cycle", "torus", "hypercube"},
		Algorithms: []string{"diffusion", "dimexchange", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Seeds:      []int64{1, 2},
		N:          16,
	}
}

// fakeRun is a deterministic RunFunc standing in for core.Balance: the
// outcome is a pure function of the unit identity, the generated loads and
// the derived algorithm seed, so any scheduling nondeterminism shows up as
// a report diff.
func fakeRun(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
	var sum float64
	for _, v := range loads {
		sum += v
	}
	rounds := int(algoSeed&0xff) + len(u.Topology) + g.N()
	return batch.Outcome{
		Rounds:    rounds,
		Converged: true,
		PhiStart:  sum,
		PhiEnd:    sum / 1000,
		Bound:     float64(rounds) * 2,
		BoundName: "fake",
	}, nil
}

func TestExpandExhaustiveAndDuplicateFree(t *testing.T) {
	spec := okSpec()
	units, err := batch.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Topologies) * len(spec.Algorithms) * len(spec.Modes) * len(spec.Workloads) * len(spec.Seeds)
	if len(units) != want {
		t.Fatalf("expanded %d units, want %d", len(units), want)
	}
	seen := map[string]bool{}
	for i, u := range units {
		if u.Index != i {
			t.Fatalf("unit %d has Index %d", i, u.Index)
		}
		key := u.Key()
		if seen[key] {
			t.Fatalf("duplicate unit %s", key)
		}
		seen[key] = true
	}
	// Every requested combination must appear.
	for _, topo := range spec.Topologies {
		for _, alg := range spec.Algorithms {
			for _, mode := range spec.Modes {
				for _, wl := range spec.Workloads {
					for _, seed := range spec.Seeds {
						key := fmt.Sprintf("%s/%s/%s/%s/s%d", topo, alg, mode, wl, seed)
						if !seen[key] {
							t.Fatalf("combination %s missing from expansion", key)
						}
					}
				}
			}
		}
	}
}

func TestExpandRejectsDuplicatesAndUnknowns(t *testing.T) {
	cases := []func(*batch.Spec){
		func(s *batch.Spec) { s.Topologies = []string{"cycle", "cycle"} },
		func(s *batch.Spec) { s.Algorithms = []string{"diffusion", " Diffusion "} },
		func(s *batch.Spec) { s.Seeds = []int64{3, 3} },
		func(s *batch.Spec) { s.Workloads = []string{"spike", "nosuchload"} },
		func(s *batch.Spec) { s.Modes = []string{"continuous", "quantum"} },
		func(s *batch.Spec) { s.Topologies = nil },
	}
	for i, mutate := range cases {
		spec := okSpec()
		mutate(&spec)
		if _, err := batch.Expand(spec); err == nil {
			t.Fatalf("case %d: expansion accepted an invalid spec", i)
		}
	}
}

func TestRunByteIdenticalAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) (csv, jsn []byte) {
		spec := okSpec()
		spec.Workers = workers
		rep, err := batch.Resume(context.Background(), spec, fakeRun, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var c, j bytes.Buffer
		if err := rep.RenderCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := rep.RenderJSON(&j); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), j.Bytes()
	}
	c1, j1 := render(1)
	for _, w := range []int{2, 8} {
		cN, jN := render(w)
		if !bytes.Equal(c1, cN) {
			t.Fatalf("CSV differs between workers=1 and workers=%d", w)
		}
		if !bytes.Equal(j1, jN) {
			t.Fatalf("JSON differs between workers=1 and workers=%d", w)
		}
	}
	if len(c1) == 0 || len(j1) == 0 {
		t.Fatal("empty report output")
	}
}

func TestFailedAndPanickingUnitsDoNotWedgeThePool(t *testing.T) {
	spec := okSpec()
	spec.Workers = 4
	var calls atomic.Int64
	rep, err := batch.Resume(context.Background(), spec, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		switch u.Index {
		case 3:
			return batch.Outcome{}, errors.New("synthetic failure")
		case 7:
			panic("synthetic panic")
		}
		return fakeRun(u, g, loads, algoSeed)
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(calls.Load()); got != len(rep.Cells) {
		t.Fatalf("pool ran %d units, want all %d", got, len(rep.Cells))
	}
	if rep.Failed() != 2 {
		t.Fatalf("Failed() = %d, want 2", rep.Failed())
	}
	if !strings.Contains(rep.Cells[3].Err, "synthetic failure") {
		t.Fatalf("cell 3 error = %q", rep.Cells[3].Err)
	}
	if !strings.Contains(rep.Cells[7].Err, "synthetic panic") {
		t.Fatalf("cell 7 error = %q", rep.Cells[7].Err)
	}
	// The failed cells keep their identity, and the healthy ones their data.
	if rep.Cells[7].Key() == rep.Cells[3].Key() || rep.Cells[7].Topology == "" {
		t.Fatalf("failed cell lost its unit identity: %+v", rep.Cells[7].Unit)
	}
	for i, c := range rep.Cells {
		if i == 3 || i == 7 {
			continue
		}
		if c.Err != "" || !c.Converged {
			t.Fatalf("healthy cell %d corrupted: %+v", i, c)
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep, err := batch.Resume(ctx, okSpec(), func(batch.Unit, *graph.G, []float64, int64) (batch.Outcome, error) {
		time.Sleep(time.Second)
		return batch.Outcome{}, nil
	}, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must still return its partial report")
	}
	if rep.Failed() != len(rep.Cells) {
		t.Fatalf("pre-cancelled run completed %d units", len(rep.Cells)-rep.Failed())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v — pool wedged", elapsed)
	}
}

func TestRunContextCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := okSpec()
	spec.Workers = 1 // serial in-order execution makes the cut deterministic
	rep, err := batch.Resume(ctx, spec, func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		if u.Index == 4 {
			cancel()
		}
		return fakeRun(u, g, loads, algoSeed)
	}, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, c := range rep.Cells {
		if i <= 4 && c.Err != "" {
			t.Fatalf("unit %d ran before the cancel but has error %q", i, c.Err)
		}
		if i > 4 && c.Err == "" {
			t.Fatalf("unit %d ran after the cancel", i)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := okSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*batch.Spec)
		want   string
	}{
		{"empty topologies", func(s *batch.Spec) { s.Topologies = nil }, "no topology"},
		{"empty algorithms", func(s *batch.Spec) { s.Algorithms = []string{} }, "no algorithm"},
		{"empty workloads", func(s *batch.Spec) { s.Workloads = nil }, "no workload"},
		{"blank entry", func(s *batch.Spec) { s.Modes = []string{"continuous", "  "} }, "empty mode"},
		{"duplicate seeds", func(s *batch.Spec) { s.Seeds = []int64{1, 2, 1} }, "duplicate seed"},
		{"duplicate topology", func(s *batch.Spec) { s.Topologies = []string{"cycle", " CYCLE "} }, "duplicate topology"},
		{"NaN scale", func(s *batch.Spec) { s.Scale = math.NaN() }, "scale"},
		{"infinite scale", func(s *batch.Spec) { s.Scale = math.Inf(1) }, "scale"},
		{"negative infinite scale", func(s *batch.Spec) { s.Scale = math.Inf(-1) }, "scale"},
		{"NaN epsilon", func(s *batch.Spec) { s.Epsilon = math.NaN() }, "epsilon"},
		{"negative infinite epsilon", func(s *batch.Spec) { s.Epsilon = math.Inf(-1) }, "epsilon"},
		{"negative epsilon", func(s *batch.Spec) { s.Epsilon = -1 }, "epsilon"},
		{"epsilon one", func(s *batch.Spec) { s.Epsilon = 1 }, "epsilon"},
	}
	for _, tc := range cases {
		spec := okSpec()
		tc.mutate(&spec)
		err := spec.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted the spec", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestAggregatesAcrossSeeds(t *testing.T) {
	spec := okSpec()
	rep, err := batch.Resume(context.Background(), spec, fakeRun, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAggs := len(spec.Topologies) * len(spec.Algorithms) * len(spec.Modes) * len(spec.Workloads)
	if len(rep.Aggregates) != wantAggs {
		t.Fatalf("%d aggregates, want %d", len(rep.Aggregates), wantAggs)
	}
	for _, a := range rep.Aggregates {
		if a.Runs != len(spec.Seeds) {
			t.Fatalf("aggregate %s/%s runs %d, want %d", a.Topology, a.Algorithm, a.Runs, len(spec.Seeds))
		}
		if a.Converged != a.Runs || a.Failed != 0 {
			t.Fatalf("aggregate counts off: %+v", a)
		}
		if a.MeanRounds <= 0 {
			t.Fatalf("aggregate mean rounds %v", a.MeanRounds)
		}
	}
}
