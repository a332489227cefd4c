package diffusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func TestEdgeWeightRule(t *testing.T) {
	g := graph.Star(5) // centre degree 4, leaves degree 1
	// Edge (0,1): max degree 4, diff 8 → 8/(4·4) = 0.5.
	if got := EdgeWeight(g, 0, 1, 10, 2); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("weight = %v, want 0.5", got)
	}
	// Symmetric in load order.
	if EdgeWeight(g, 0, 1, 2, 10) != EdgeWeight(g, 0, 1, 10, 2) {
		t.Fatal("weight must be symmetric in loads")
	}
}

func TestContinuousStepConserves(t *testing.T) {
	g := graph.Cycle(8)
	init := workload.Continuous(workload.Uniform, 8, 100, rand.New(rand.NewSource(1)))
	st := New(g, init)
	before := load.Sum(st.Values())
	for i := 0; i < 50; i++ {
		st.Step()
	}
	if math.Abs(load.Sum(st.Values())-before) > 1e-8*math.Abs(before) {
		t.Fatalf("total drifted: %v → %v", before, load.Sum(st.Values()))
	}
}

func TestContinuousPotentialMonotone(t *testing.T) {
	g := graph.Torus(4, 4)
	init := workload.Continuous(workload.Spike, 16, 1000, nil)
	st := New(g, init)
	prev := st.Potential()
	for i := 0; i < 100; i++ {
		st.Step()
		cur := st.Potential()
		if cur > prev+1e-9*(1+prev) {
			t.Fatalf("round %d: Φ rose %v → %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestContinuousMatchesPaperDiffusionMatrix(t *testing.T) {
	// One Algorithm 1 round must equal applying the paper's diffusion
	// matrix, since the rule is symmetric per edge.
	g := graph.Petersen()
	rng := rand.New(rand.NewSource(2))
	init := workload.Continuous(workload.Uniform, g.N(), 50, rng)
	st := New(g, init)
	st.Step()

	m := spectral.PaperDiffusionMatrix(g)
	ms := NewMatrixStepper(m, init)
	ms.Step()
	if !matrix.Vector(st.Values()).ApproxEqual(ms.Values(), 1e-10) {
		t.Fatal("sparse step disagrees with matrix step")
	}
}

func TestContinuousParallelMatchesSerial(t *testing.T) {
	g := graph.Torus(6, 6)
	rng := rand.New(rand.NewSource(3))
	init := workload.Continuous(workload.Uniform, g.N(), 100, rng)
	serial := New(g, init)
	par := New(g, init)
	par.Workers = 8
	for i := 0; i < 20; i++ {
		serial.Step()
		par.Step()
	}
	if !matrix.Vector(serial.Values()).ApproxEqual(par.Values(), 0) {
		t.Fatal("parallel executor must be bitwise identical to serial")
	}
}

func TestTheorem4BoundHolds(t *testing.T) {
	// Continuous Algorithm 1 must reach εΦ⁰ within T = 4δ·ln(1/ε)/λ₂.
	const eps = 1e-3
	for _, g := range []*graph.G{
		graph.Cycle(16),
		graph.Torus(4, 4),
		graph.Hypercube(4),
		graph.Complete(12),
		graph.Path(12),
		graph.Star(12),
	} {
		lambda2 := spectral.MustLambda2(g)
		bound := int(math.Ceil(ContinuousBound(g, lambda2, eps)))
		init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
		st := New(g, init)
		phi0 := st.Potential()
		rounds := 0
		for ; rounds <= bound && st.Potential() > eps*phi0; rounds++ {
			st.Step()
		}
		if st.Potential() > eps*phi0 {
			t.Fatalf("%s: Φ after %d (bound) rounds is %v > εΦ⁰ = %v",
				g.Name(), bound, st.Potential(), eps*phi0)
		}
	}
}

func TestDiscreteStepConservesTokens(t *testing.T) {
	g := graph.Torus(4, 4)
	rng := rand.New(rand.NewSource(4))
	init := workload.Discrete(workload.Uniform, g.N(), 100000, rng)
	st := New(g, init)
	before := load.Sum(st.Values())
	for i := 0; i < 100; i++ {
		st.Step()
	}
	if load.Sum(st.Values()) != before {
		t.Fatalf("tokens not conserved: %d → %d", before, load.Sum(st.Values()))
	}
}

func TestDiscreteNoNegativeLoads(t *testing.T) {
	g := graph.Star(10)
	init := workload.Discrete(workload.Spike, g.N(), 1000, nil)
	st := New(g, init)
	for i := 0; i < 200; i++ {
		st.Step()
		for node, v := range st.Values() {
			if v < 0 {
				t.Fatalf("round %d: node %d went negative: %d", i, node, v)
			}
		}
	}
}

func TestDiscreteParallelMatchesSerial(t *testing.T) {
	g := graph.Hypercube(5)
	rng := rand.New(rand.NewSource(5))
	init := workload.Discrete(workload.PowerLaw, g.N(), 500000, rng)
	serial := New(g, init)
	par := New(g, init)
	par.Workers = 4
	for i := 0; i < 30; i++ {
		serial.Step()
		par.Step()
	}
	for i, v := range serial.Values() {
		if par.Values()[i] != v {
			t.Fatal("parallel discrete executor must match serial exactly")
		}
	}
}

func TestTheorem6DiscreteReachesThreshold(t *testing.T) {
	// Discrete Algorithm 1 must push Φ below 64δ³n/λ₂ within the Theorem 6
	// bound (we allow the bound exactly; the theorem is an upper bound).
	for _, g := range []*graph.G{
		graph.Cycle(16),
		graph.Torus(4, 4),
		graph.Hypercube(4),
	} {
		lambda2 := spectral.MustLambda2(g)
		init := workload.Discrete(workload.Spike, g.N(), 10_000_000, nil)
		st := New(g, init)
		phi0 := st.Potential()
		thr := DiscreteThreshold(g, lambda2)
		bound := int(math.Ceil(DiscreteBound(g, lambda2, phi0)))
		rounds := 0
		for ; rounds <= bound && st.Potential() > thr; rounds++ {
			st.Step()
		}
		if st.Potential() > thr {
			t.Fatalf("%s: Φ=%v still above threshold %v after bound %d rounds",
				g.Name(), st.Potential(), thr, bound)
		}
	}
}

func TestDiscreteLineRampIsStable(t *testing.T) {
	// The paper's introductory example: on the path with ℓᵢ = i, no pair
	// differs by enough to move a token, so the state is a fixed point.
	n := 10
	g := graph.Path(n)
	init := make([]int64, n)
	for i := range init {
		init[i] = int64(i)
	}
	st := New(g, init)
	st.Step()
	for i, v := range st.Values() {
		if v != int64(i) {
			t.Fatalf("ramp moved: node %d = %d", i, v)
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	g := graph.Cycle(8)
	l2 := spectral.MustLambda2(g)
	if b := ContinuousBound(g, l2, 0.5); b <= 0 {
		t.Fatalf("continuous bound %v", b)
	}
	if thr := DiscreteThreshold(g, l2); thr <= 0 {
		t.Fatalf("threshold %v", thr)
	}
	// Below-threshold start needs 0 rounds.
	if b := DiscreteBound(g, l2, 1); b != 0 {
		t.Fatalf("below-threshold bound %v, want 0", b)
	}
}

func TestRoundFlowsContinuousAntisymmetry(t *testing.T) {
	g := graph.Torus(3, 3)
	rng := rand.New(rand.NewSource(6))
	l := workload.Continuous(workload.Uniform, g.N(), 10, rng)
	flows := RoundFlows(g, l)
	for _, f := range flows {
		// Flow direction must go from heavier to lighter.
		hi, lo := f.Edge.U, f.Edge.V
		amt := f.Amount
		if amt < 0 {
			hi, lo = lo, hi
			amt = -amt
		}
		if l[hi] < l[lo] {
			t.Fatalf("flow runs uphill on edge %v", f.Edge)
		}
		if amt <= 0 {
			t.Fatal("zero flows must be omitted")
		}
	}
}

func TestRoundFlowsDiscreteFloor(t *testing.T) {
	g := graph.Path(2)
	flows := RoundFlows(g, []int64{10, 0})
	// w = 10/(4·1) = 2.5 → 2 tokens.
	if len(flows) != 1 || flows[0].Amount != 2 {
		t.Fatalf("flows = %+v", flows)
	}
	// Sub-threshold difference moves nothing.
	if got := RoundFlows(g, []int64{3, 0}); len(got) != 0 {
		t.Fatalf("expected no flow, got %+v", got)
	}
}

func TestNewSteppersValidateLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(graph.Cycle(4), []float64{1})
}

// Property: one continuous round never increases Φ, for random graphs and
// random loads (Lemma 2 as a property test).
func TestContinuousDropProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(16)
		g := graph.ErdosRenyi(n, 0.5, r)
		init := workload.Continuous(workload.Uniform, n, 100, r)
		st := New(g, init)
		phi0 := st.Potential()
		st.Step()
		return st.Potential() <= phi0+1e-9*(1+phi0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the continuous round drop satisfies the Lemma 2 lower bound
// (1/4δ)·Σ(ℓᵢ−ℓⱼ)².
func TestLemma2LowerBoundProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(12)
		g := graph.ErdosRenyi(n, 0.6, r)
		if g.MaxDegree() == 0 {
			return true
		}
		init := workload.Continuous(workload.Uniform, n, 50, r)
		st := New(g, init)
		var rhs float64
		for _, e := range g.Edges() {
			d := init[e.U] - init[e.V]
			rhs += d * d
		}
		rhs /= 4 * float64(g.MaxDegree())
		phi0 := st.Potential()
		st.Step()
		drop := phi0 - st.Potential()
		return drop >= rhs-1e-9*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: discrete rounds conserve tokens on random graphs.
func TestDiscreteConservationProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 3 + r.Intn(20)
		g := graph.ErdosRenyi(n, 0.4, r)
		init := workload.Discrete(workload.Uniform, n, int64(1000+r.Intn(100000)), r)
		st := New(g, init)
		before := load.Sum(st.Values())
		for k := 0; k < 5; k++ {
			st.Step()
		}
		return load.Sum(st.Values()) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// refContinuousRound is the abs-and-branch form of one continuous
// Algorithm 1 round, the oracle for the branch-free Stepper[float64].Step: on
// each edge the heavier endpoint sends |ℓᵢ−ℓⱼ|/(4·max(dᵢ,dⱼ)) to the
// lighter one. It walks the CSR rows in the stepper's order, so the two
// must agree bit for bit.
func refContinuousRound(g *graph.G, cur []float64) []float64 {
	off, tgt := g.CSR()
	next := make([]float64, len(cur))
	for i, li := range cur {
		acc := li
		row := tgt[off[i]:off[i+1]]
		for _, j := range row {
			lj := cur[j]
			if li == lj {
				continue
			}
			d := len(row)
			if dj := int(off[j+1] - off[j]); dj > d {
				d = dj
			}
			w := math.Abs(li-lj) / (4 * float64(d))
			if li > lj {
				acc -= w
			} else {
				acc += w
			}
		}
		next[i] = acc
	}
	return next
}

// refDiscreteRound is the abs-and-branch oracle for Stepper[int64].Step: the
// heavier endpoint sends ⌊|ℓᵢ−ℓⱼ|/(4·max(dᵢ,dⱼ))⌋ tokens.
func refDiscreteRound(g *graph.G, cur []int64) []int64 {
	off, tgt := g.CSR()
	next := make([]int64, len(cur))
	for i, li := range cur {
		acc := li
		row := tgt[off[i]:off[i+1]]
		for _, j := range row {
			lj := cur[j]
			if li == lj {
				continue
			}
			d := len(row)
			if dj := int(off[j+1] - off[j]); dj > d {
				d = dj
			}
			w := int64(math.Abs(float64(li)-float64(lj)) / (4 * float64(d)))
			if li > lj {
				acc -= w
			} else {
				acc += w
			}
		}
		next[i] = acc
	}
	return next
}

// checkRoundMatchesReference compares the steppers' live state with the
// oracle's, node by node: Float64bits for loads, so a flipped zero sign
// shows, and exact equality for tokens.
func checkRoundMatchesReference(t *testing.T, round int, c *Stepper[float64], want []float64, d *Stepper[int64], wantTok []int64) {
	t.Helper()
	if c != nil {
		for i, v := range c.Values() {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("continuous round %d node %d: %v (%#x), reference %v (%#x)",
					round, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for i, v := range d.Values() {
		if v != wantTok[i] {
			t.Fatalf("discrete round %d node %d: %d tokens, reference %d", round, i, v, wantTok[i])
		}
	}
}

// TestRoundMatchesReference pins both branch-free Algorithm 1 round bodies
// to the abs-and-branch oracle for 200 rounds, serial and round-parallel.
// The regular rows take Step's constant-divisor body: the hypercubes (δ = 6
// and the odd δ = 5), the torus, cycle, complete graph, Petersen graph
// (4δ = 12, a divisor that rounds) and a random 3-regular graph. The
// irregular rows take the general body: on the star every row but the
// centre's takes its divisor from the neighbour's degree, de Bruijn's
// degrees (2 to 4) vary from edge to edge, and the hypercube with one edge
// dropped is the churn shape, a regular graph made irregular. Each row
// asserts which body it takes. A spike over zeros keeps many neighbours
// exactly equal, so the ℓᵢ == ℓⱼ skip is exercised; uniform noise
// exercises both signs on every row.
func TestRoundMatchesReference(t *testing.T) {
	const rounds = 200
	h6 := graph.Hypercube(6)
	cut := make([]bool, h6.M()) // keeps every edge but the first
	for k := 1; k < len(cut); k++ {
		cut[k] = true
	}
	for _, c := range []struct {
		g       *graph.G
		regular bool
	}{
		{h6, true},
		{graph.Hypercube(5), true},
		{graph.Torus(8, 8), true},
		{graph.Cycle(7), true},
		{graph.Complete(9), true},
		{graph.Petersen(), true},
		{graph.RandomRegular(64, 3, rand.New(rand.NewSource(5))), true},
		{graph.Star(33), false},
		{graph.DeBruijn(6), false},
		{h6.Subgraph("hypercube(6)-e", cut), false},
	} {
		g := c.g
		if g.IsRegular() != c.regular {
			t.Fatalf("%s: IsRegular() = %v, want %v", g, g.IsRegular(), c.regular)
		}
		n := g.N()
		rng := rand.New(rand.NewSource(7))
		starts := []struct {
			name   string
			loads  []float64
			tokens []int64
		}{
			{"spike", workload.Continuous(workload.Spike, n, 1e6*float64(n), nil), workload.Discrete(workload.Spike, n, 1e6*int64(n), nil)},
			{"uniform", workload.Continuous(workload.Uniform, n, 1e6, rng), workload.Discrete(workload.Uniform, n, 1e6*int64(n), rng)},
		}
		for _, start := range starts {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/w%d", g.Name(), start.name, workers), func(t *testing.T) {
					c, d := New(g, start.loads), New(g, start.tokens)
					c.Workers, d.Workers = workers, workers
					want, wantTok := start.loads, start.tokens
					for r := 1; r <= rounds; r++ {
						c.Step()
						d.Step()
						want, wantTok = refContinuousRound(g, want), refDiscreteRound(g, wantTok)
						checkRoundMatchesReference(t, r, c, want, d, wantTok)
					}
				})
			}
		}
	}
}
