package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/matrix"
)

const eigTol = 1e-8

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := matrix.NewDenseFrom([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, _, err := EigenSym(a, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > eigTol {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a, _ := matrix.NewDenseFrom([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > eigTol || math.Abs(vals[1]-3) > eigTol {
		t.Fatalf("vals = %v", vals)
	}
	// Check A·v = λ·v for both pairs.
	for k := 0; k < 2; k++ {
		v := matrix.Vector{vecs.At(0, k), vecs.At(1, k)}
		av, _ := a.MulVec(v)
		for i := range av {
			if math.Abs(av[i]-vals[k]*v[i]) > eigTol {
				t.Fatalf("eigenpair %d: Av=%v λv=%v", k, av, v.Clone().Scale(vals[k]))
			}
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a, _ := matrix.NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigenSym(a, false); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestEigenSymEmptyAndSingleton(t *testing.T) {
	vals, err := EigenvaluesSym(matrix.NewDense(0, 0))
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty: vals=%v err=%v", vals, err)
	}
	one, _ := matrix.NewDenseFrom([][]float64{{7}})
	vals, err = EigenvaluesSym(one)
	if err != nil || len(vals) != 1 || math.Abs(vals[0]-7) > eigTol {
		t.Fatalf("singleton: vals=%v err=%v", vals, err)
	}
}

func TestEigenSymMatchesPathSpectrum(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 17} {
		g := graph.Path(n)
		vals, err := EigenvaluesSym(g.Laplacian())
		if err != nil {
			t.Fatal(err)
		}
		want := graph.PathSpectrum(n)
		for i := range want {
			if math.Abs(vals[i]-want[i]) > eigTol {
				t.Fatalf("path(%d) eigenvalue %d: got %v want %v", n, i, vals[i], want[i])
			}
		}
	}
}

func TestEigenSymMatchesCycleSpectrum(t *testing.T) {
	for _, n := range []int{3, 4, 7, 12} {
		g := graph.Cycle(n)
		vals, err := EigenvaluesSym(g.Laplacian())
		if err != nil {
			t.Fatal(err)
		}
		want := graph.CycleSpectrum(n)
		for i := range want {
			if math.Abs(vals[i]-want[i]) > eigTol {
				t.Fatalf("cycle(%d) eigenvalue %d: got %v want %v", n, i, vals[i], want[i])
			}
		}
	}
}

func TestEigenSymMatchesHypercubeSpectrum(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		g := graph.Hypercube(d)
		vals, err := EigenvaluesSym(g.Laplacian())
		if err != nil {
			t.Fatal(err)
		}
		want := graph.HypercubeSpectrum(d)
		for i := range want {
			if math.Abs(vals[i]-want[i]) > eigTol {
				t.Fatalf("hypercube(%d) eigenvalue %d: got %v want %v", d, i, vals[i], want[i])
			}
		}
	}
}

func TestJacobiMatchesQL(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(12)
		a := randomSymmetric(rng, n)
		ql, err := EigenvaluesSym(a)
		if err != nil {
			t.Fatal(err)
		}
		jac, err := JacobiEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ql {
			if math.Abs(ql[i]-jac[i]) > 1e-7*(1+math.Abs(ql[i])) {
				t.Fatalf("trial %d eigenvalue %d: QL %v vs Jacobi %v", trial, i, ql[i], jac[i])
			}
		}
	}
}

func TestLambda2ClosedForms(t *testing.T) {
	cases := []struct {
		g    *graph.G
		want float64
	}{
		{graph.Path(10), graph.PathLambda2(10)},
		{graph.Cycle(10), graph.CycleLambda2(10)},
		{graph.Complete(9), graph.CompleteLambda2(9)},
		{graph.Star(9), graph.StarLambda2(9)},
		{graph.Hypercube(4), 2},
		{graph.Torus(4, 5), graph.TorusLambda2(4, 5)},
		{graph.Grid(3, 6), graph.GridLambda2(3, 6)},
		{graph.CompleteBipartite(3, 5), 3},
		{graph.Petersen(), 2},
	}
	for _, c := range cases {
		got, err := Lambda2(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name(), err)
		}
		if math.Abs(got-c.want) > 1e-7 {
			t.Fatalf("%s: λ₂ = %v, want %v", c.g.Name(), got, c.want)
		}
	}
}

func TestLambda2Disconnected(t *testing.T) {
	b := graph.NewBuilder("two-edges", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustFinish()
	got, err := Lambda2(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("disconnected λ₂ = %v, want 0", got)
	}
}

func TestLambda2TooSmall(t *testing.T) {
	b := graph.NewBuilder("single", 1)
	if _, err := Lambda2(b.MustFinish()); err == nil {
		t.Fatal("expected error for n=1")
	}
}

func TestLambda2AboveDenseCutoffMatchesClosedForm(t *testing.T) {
	// Above the dense cutoff; compare against the closed form.
	n := 600
	got, err := Lambda2(graph.Cycle(n))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.CycleLambda2(n)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("cycle(%d): λ₂ = %v, want %v", n, got, want)
	}
}

func TestLaplacianApplyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Torus(5, 5)
	l := g.Laplacian()
	x := make(matrix.Vector, g.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, _ := l.MulVec(x)
	got := make(matrix.Vector, g.N())
	LaplacianApply(g, got, x)
	if !got.ApproxEqual(want, 1e-10) {
		t.Fatal("sparse Laplacian apply disagrees with dense")
	}
}

func TestDiffusionMatrixProperties(t *testing.T) {
	for _, g := range []*graph.G{graph.Cycle(8), graph.Hypercube(3), graph.Star(6)} {
		m := DiffusionMatrix(g)
		if !m.IsSymmetric(1e-12) {
			t.Fatalf("%s: diffusion matrix not symmetric", g.Name())
		}
		for i, s := range m.RowSums() {
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("%s: row %d sums to %v", g.Name(), i, s)
			}
		}
		// All entries nonneg (α = 1/(δ+1) keeps diagonals ≥ 1/(δ+1) > 0).
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if m.At(i, j) < -1e-15 {
					t.Fatalf("%s: negative entry m[%d][%d] = %v", g.Name(), i, j, m.At(i, j))
				}
			}
		}
	}
}

func TestPaperDiffusionMatrixProperties(t *testing.T) {
	for _, g := range []*graph.G{graph.Path(7), graph.Torus(3, 4), graph.Star(9)} {
		m := PaperDiffusionMatrix(g)
		if !m.IsSymmetric(1e-12) {
			t.Fatalf("%s: paper diffusion matrix not symmetric", g.Name())
		}
		for i, s := range m.RowSums() {
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("%s: row %d sums to %v", g.Name(), i, s)
			}
		}
		// Diagonal ≥ 1 − d/(4·d) = 3/4 > 0: the rule is strongly lazy.
		for i := 0; i < g.N(); i++ {
			if m.At(i, i) < 0.75-1e-12 {
				t.Fatalf("%s: diagonal m[%d][%d] = %v < 3/4", g.Name(), i, i, m.At(i, i))
			}
		}
	}
}

func TestGammaCompleteGraph(t *testing.T) {
	// K_n with α = 1/n: M = (1/n)·J, eigenvalues {1, 0, …}; γ = 0.
	g := graph.Complete(6)
	gamma, err := Gamma(DiffusionMatrix(g))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gamma) > 1e-9 {
		t.Fatalf("γ(K₆) = %v, want 0", gamma)
	}
}

func TestGammaCycleClosedForm(t *testing.T) {
	// Cycle with α = 1/3: eigenvalues 1 − (2/3)(1−cos(2πk/n)).
	n := 12
	g := graph.Cycle(n)
	gamma, err := Gamma(DiffusionMatrix(g))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (2.0/3.0)*(1-math.Cos(2*math.Pi/float64(n)))
	if math.Abs(gamma-want) > 1e-9 {
		t.Fatalf("γ = %v, want %v", gamma, want)
	}
}

func TestEigenGap(t *testing.T) {
	g := graph.Complete(5)
	mu, err := EigenGap(DiffusionMatrix(g))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-1) > 1e-9 {
		t.Fatalf("µ(K₅) = %v, want 1", mu)
	}
}

func TestAnalyzeReport(t *testing.T) {
	g := graph.Torus(4, 4)
	r, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 16 || r.Delta != 4 {
		t.Fatalf("report basics wrong: %+v", r)
	}
	if math.Abs(r.Lambda2-graph.TorusLambda2(4, 4)) > 1e-7 {
		t.Fatalf("λ₂ = %v", r.Lambda2)
	}
	if !r.Exact || math.IsNaN(r.Gamma) {
		t.Fatalf("dense path should fill γ: %+v", r)
	}
	if r.ExpansionLo > r.ExpansionHi {
		t.Fatal("Cheeger bounds inverted")
	}
}

// Property: eigenvalue sum equals trace for random symmetric matrices.
func TestEigenvalueSumEqualsTraceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(10)
		a := randomSymmetric(r, n)
		vals, err := EigenvaluesSym(a)
		if err != nil {
			return false
		}
		var sum, tr float64
		for i := 0; i < n; i++ {
			sum += vals[i]
			tr += a.At(i, i)
		}
		return math.Abs(sum-tr) < 1e-7*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Laplacian eigenvalues are nonnegative with smallest ≈ 0.
func TestLaplacianPSDProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 3 + r.Intn(10)
		g := graph.ErdosRenyi(n, 0.5, r)
		vals, err := EigenvaluesSym(g.Laplacian())
		if err != nil {
			return false
		}
		if math.Abs(vals[0]) > 1e-8 {
			return false
		}
		for _, v := range vals {
			if v < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomSymmetric(rng *rand.Rand, n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}
