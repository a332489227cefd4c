package diffusion

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func TestFirstOrderTokensConserve(t *testing.T) {
	g := graph.Torus(4, 4)
	init := workload.Discrete(workload.Spike, g.N(), 1_000_000, nil)
	st := NewFirstOrder(g, init)
	before := load.Sum(st.Values())
	for k := 0; k < 200; k++ {
		st.Step()
	}
	if load.Sum(st.Values()) != before {
		t.Fatal("tokens not conserved")
	}
}

func TestFirstOrderTokensReachFixedPoint(t *testing.T) {
	g := graph.Cycle(16)
	init := workload.Discrete(workload.Spike, g.N(), 160_000, nil)
	st := NewFirstOrder(g, init)
	for k := 0; k < 50000 && !st.FixedPoint(); k++ {
		st.Step()
	}
	if !st.FixedPoint() {
		t.Fatal("no fixed point within 50000 rounds")
	}
	// At the fixed point every edge difference is below 1/α = δ+1.
	bound := int64(g.MaxDegree() + 1)
	for _, e := range g.Edges() {
		diff := st.Values()[e.U] - st.Values()[e.V]
		if diff < 0 {
			diff = -diff
		}
		if diff >= bound*2 {
			t.Fatalf("edge %v difference %d at fixed point (α⁻¹ = %d)", e, diff, bound)
		}
	}
}

func TestFirstOrderTokenResidualWithinMGSShape(t *testing.T) {
	// The [15] guarantee: residual potential O(δ²n²) (ε = 1 shape). Run to
	// fixed point and check the measured residual sits below the shape.
	for _, g := range []*graph.G{graph.Cycle(16), graph.Torus(4, 4), graph.Hypercube(4)} {
		init := workload.Discrete(workload.Spike, g.N(), 10_000_000, nil)
		st := NewFirstOrder(g, init)
		for k := 0; k < 100000 && !st.FixedPoint(); k++ {
			st.Step()
		}
		if phi := st.Potential(); phi > MGSResidualShape(g) {
			t.Fatalf("%s: residual %v above [15] shape %v", g.Name(), phi, MGSResidualShape(g))
		}
	}
}

func TestFixedPointDetector(t *testing.T) {
	g := graph.Path(4)
	if !New(g, []int64{0, 1, 2, 3}).FixedPoint() {
		t.Fatal("ramp must be a fixed point of Algorithm 1")
	}
	if New(g, []int64{100, 0, 0, 0}).FixedPoint() {
		t.Fatal("spike is not a fixed point")
	}
	if New(g, []float64{0, 1, 2, 3}).FixedPoint() {
		t.Fatal("an unbalanced float64 ramp still moves load")
	}
	if !New(g, []float64{2, 2, 2, 2}).FixedPoint() {
		t.Fatal("balanced loads must be a fixed point")
	}
}

func TestPaperResidualBeatsMGSShapeOnSuite(t *testing.T) {
	// The §3 remark: Theorem 6's threshold 64δ³n/λ₂ is linear in n while
	// [15]'s is quadratic. On hypercubes (λ₂ = 2) the formulas cross at
	// exactly 32·d = 2^d, i.e. d = 8; past that the paper's threshold is
	// strictly smaller.
	for _, d := range []int{9, 10, 12} {
		g := graph.Hypercube(d)
		lambda2 := 2.0 // closed form
		paper := DiscreteThreshold(g, lambda2)
		mgs := MGSResidualShape(g)
		if paper >= mgs {
			t.Fatalf("Q%d: paper threshold %v not below [15] shape %v", d, paper, mgs)
		}
	}
	_ = spectral.MustLambda2 // spectral used in other tests of this package
}
