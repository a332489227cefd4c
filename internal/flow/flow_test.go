package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestOptimalIsBalancing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.G{graph.Cycle(10), graph.Torus(4, 4), graph.Hypercube(4), graph.Star(9)} {
		l := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 100, rng))
		f, err := Optimal(g, l)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if !isBalancing(f, l, 1e-7) {
			t.Fatalf("%s: optimal flow does not balance", g.Name())
		}
	}
}

func TestOptimalPathTwoNodes(t *testing.T) {
	// Two nodes, loads {10, 0}: the only balancing flow routes 5 across.
	g := graph.Path(2)
	f, err := Optimal(g, matrix.Vector{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Values[0]-5) > 1e-9 {
		t.Fatalf("flow = %v, want 5", f.Values[0])
	}
}

func TestOptimalCycleSymmetricSpike(t *testing.T) {
	// Spike on a cycle: by symmetry the two directions around the ring
	// carry equal flow at the two edges incident to the spike.
	g := graph.Cycle(6)
	l := matrix.Vector{60, 0, 0, 0, 0, 0}
	f, err := Optimal(g, l)
	if err != nil {
		t.Fatal(err)
	}
	// Edges (0,1) and (0,5) must carry equal magnitude out of node 0.
	var out01, out05 float64
	for k, e := range g.Edges() {
		if e.U == 0 && e.V == 1 {
			out01 = f.Values[k]
		}
		if e.U == 0 && e.V == 5 {
			out05 = f.Values[k]
		}
	}
	if math.Abs(out01-out05) > 1e-9 {
		t.Fatalf("asymmetric ring flow: %v vs %v", out01, out05)
	}
}

func TestOptimalMinimalAmongBalancing(t *testing.T) {
	// Optimality: perturbing the optimal flow by any circulation must not
	// reduce ‖f‖₂. Use the cycle's fundamental circulation.
	g := graph.Cycle(8)
	rng := rand.New(rand.NewSource(2))
	l := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 50, rng))
	f, err := Optimal(g, l)
	if err != nil {
		t.Fatal(err)
	}
	base := f.L2()
	for _, epsVal := range []float64{0.5, -0.5, 2, -2} {
		perturbed := NewEdgeFlow(g)
		copy(perturbed.Values, f.Values)
		// A circulation on the cycle: +ε around the ring. Edge (i, i+1) is
		// oriented U→V with U < V except the wrap edge (0, n−1), which is
		// canonical (0, n−1) but points "backwards" along the ring.
		for k, e := range g.Edges() {
			if e.U == 0 && e.V == g.N()-1 {
				perturbed.Values[k] -= epsVal
			} else {
				perturbed.Values[k] += epsVal
			}
		}
		if !isBalancing(perturbed, l, 1e-7) {
			t.Fatal("circulation must preserve divergence")
		}
		if perturbed.L2() < base-1e-9 {
			t.Fatalf("found a smaller balancing flow: %v < %v", perturbed.L2(), base)
		}
	}
}

func TestDivergenceZeroFlow(t *testing.T) {
	g := graph.Torus(3, 3)
	f := NewEdgeFlow(g)
	for _, d := range divergence(f) {
		if d != 0 {
			t.Fatal("zero flow must have zero divergence")
		}
	}
}

func TestNormsAndSub(t *testing.T) {
	g := graph.Path(3) // edges (0,1), (1,2)
	f := NewEdgeFlow(g)
	f.Add(0, 3)
	f.Add(1, -4)
	if f.L1() != 7 || f.MaxEdge() != 4 {
		t.Fatalf("L1=%v MaxEdge=%v", f.L1(), f.MaxEdge())
	}
	if math.Abs(f.L2()-5) > 1e-12 {
		t.Fatalf("L2=%v", f.L2())
	}
	d, err := f.Sub(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.L2() != 0 {
		t.Fatal("f − f must be zero")
	}
}

func TestSubDifferentGraphs(t *testing.T) {
	if _, err := NewEdgeFlow(graph.Path(3)).Sub(NewEdgeFlow(graph.Path(3))); err == nil {
		t.Fatal("different graph instances must be rejected")
	}
}

func TestAccumulatorRecordsDirections(t *testing.T) {
	g := graph.Path(3)
	a := NewAccumulator(g)
	if err := a.Record(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Record(1, 0, 0.5); err != nil { // reverse direction
		t.Fatal(err)
	}
	if math.Abs(a.Flow.Values[0]-1.5) > 1e-12 {
		t.Fatalf("net flow %v, want 1.5", a.Flow.Values[0])
	}
	if err := a.Record(0, 2, 1); err == nil {
		t.Fatal("non-edge must be rejected")
	}
}

// The [7] theorem as an integration test: the continuous Algorithm 1's
// cumulative flow converges to the ℓ₂-minimal balancing flow.
func TestDiffusionRoutesOptimalFlow(t *testing.T) {
	for _, g := range []*graph.G{graph.Cycle(12), graph.Torus(4, 4), graph.Hypercube(4)} {
		l := matrix.Vector(workload.Continuous(workload.Spike, g.N(), 1e6, nil))
		opt, err := Optimal(g, l)
		if err != nil {
			t.Fatal(err)
		}
		acc := NewAccumulator(g)
		cur := l.Clone()
		for round := 0; round < 20000; round++ {
			flows := diffusion.RoundFlows(g, cur)
			if len(flows) == 0 {
				break
			}
			for _, fl := range flows {
				if err := acc.Record(fl.Edge.U, fl.Edge.V, fl.Amount); err != nil {
					t.Fatal(err)
				}
				cur[fl.Edge.U] -= fl.Amount
				cur[fl.Edge.V] += fl.Amount
			}
			// Stop once essentially balanced.
			if maxDev(cur) < 1e-9 {
				break
			}
		}
		diff, err := acc.Flow.Sub(opt)
		if err != nil {
			t.Fatal(err)
		}
		if rel := diff.L2() / (1 + opt.L2()); rel > 1e-6 {
			t.Fatalf("%s: realized flow deviates from optimal by %v (rel)", g.Name(), rel)
		}
	}
}

// Property: Optimal's divergence identity holds on random connected graphs.
func TestOptimalDivergenceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(12)
		g := graph.ErdosRenyi(n, 0.6, r)
		if !g.IsConnected() {
			return true
		}
		l := matrix.Vector(workload.Continuous(workload.Uniform, n, 100, r))
		fl, err := Optimal(g, l)
		if err != nil {
			return false
		}
		return isBalancing(fl, l, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func maxDev(v matrix.Vector) float64 {
	mean := v.Mean()
	var m float64
	for _, x := range v {
		if d := math.Abs(x - mean); d > m {
			m = d
		}
	}
	return m
}

// divergence returns the node-wise divergence of f: out-flow minus
// in-flow at every node. For a balancing flow of load vector ℓ this equals
// ℓ − ℓ̄·1.
func divergence(f *EdgeFlow) matrix.Vector {
	div := make(matrix.Vector, f.G.N())
	for k, e := range f.G.Edges() {
		div[e.U] += f.Values[k]
		div[e.V] -= f.Values[k]
	}
	return div
}

// isBalancing reports whether f's divergence matches the deviation of l
// within tol — i.e. routing f balances l exactly.
func isBalancing(f *EdgeFlow, l matrix.Vector, tol float64) bool {
	div := divergence(f)
	mean := l.Mean()
	for i := range div {
		if math.Abs(div[i]-(l[i]-mean)) > tol {
			return false
		}
	}
	return true
}
