package spectral

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topoparse"
)

// registryGraphs builds every topoparse topology at a small size, so the
// closed-form-vs-dense properties sweep the whole registry rather than a
// hand-picked list that silently goes stale when a family is added.
func registryGraphs(t *testing.T, n int) map[string]*graph.G {
	t.Helper()
	out := make(map[string]*graph.G, len(topoparse.Names()))
	for _, name := range topoparse.Names() {
		g, err := topoparse.Build(name, n, 1)
		if err != nil {
			t.Fatalf("build %s(%d): %v", name, n, err)
		}
		out[name] = g
	}
	return out
}

// TestClosedFormLambda2MatchesDense is the dispatch-safety property: for
// every registry topology whose constructor recorded a closed form, the
// recorded λ₂ must match the dense Laplacian spectrum to 1e-9. A wrong
// formula fails here before it can poison every large-n solve.
func TestClosedFormLambda2MatchesDense(t *testing.T) {
	covered := 0
	for name, g := range registryGraphs(t, 24) {
		cf, ok := g.ClosedForm()
		if !ok {
			continue
		}
		l2 := cf.Lambda2
		covered++
		vals, err := LaplacianSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense spectrum: %v", name, err)
		}
		if diff := math.Abs(l2 - vals[1]); diff > 1e-9 {
			t.Errorf("%s (%s): closed-form λ₂ = %.15g, dense = %.15g (diff %.2g)", name, g.Name(), l2, vals[1], diff)
		}
	}
	// The structured families (path, cycle, grid, torus, hypercube,
	// complete, star, petersen at least) must all take the closed form —
	// fewer means the fast path quietly stopped firing.
	if covered < 8 {
		t.Fatalf("only %d registry topologies hit the closed form, want ≥ 8", covered)
	}
}

// TestClosedFormRecorded covers every family constructor at a few sizes,
// edge cases included: each recorded λ₂ and λ_max is bit-identical to the
// family's formula helpers and, for n ≤ 64, matches the dense spectrum.
func TestClosedFormRecorded(t *testing.T) {
	type tc struct {
		g             *graph.G
		lambda2, lmax float64
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 8, 33} {
		cases = append(cases,
			tc{graph.Path(n), graph.PathLambda2(n), graph.PathLambdaMax(n)},
			tc{graph.Complete(n), graph.CompleteLambda2(n), graph.CompleteLambdaMax(n)},
			tc{graph.Star(n), graph.StarLambda2(n), graph.StarLambdaMax(n)})
	}
	for _, n := range []int{3, 4, 7, 64} {
		cases = append(cases, tc{graph.Cycle(n), graph.CycleLambda2(n), graph.CycleLambdaMax(n)})
	}
	for _, d := range []int{0, 1, 2, 5, 6} {
		cases = append(cases, tc{graph.Hypercube(d), graph.HypercubeLambda2(d), graph.HypercubeLambdaMax(d)})
	}
	for _, rc := range [][2]int{{1, 1}, {1, 5}, {2, 2}, {3, 7}, {8, 8}} {
		r, c := rc[0], rc[1]
		cases = append(cases, tc{graph.Grid(r, c), graph.GridLambda2(r, c), graph.GridLambdaMax(r, c)})
	}
	for _, rc := range [][2]int{{3, 3}, {3, 5}, {4, 6}, {8, 8}} {
		r, c := rc[0], rc[1]
		cases = append(cases, tc{graph.Torus(r, c), graph.TorusLambda2(r, c), graph.TorusLambdaMax(r, c)})
	}
	for _, ab := range [][2]int{{1, 1}, {1, 4}, {2, 7}, {5, 3}} {
		a, b := ab[0], ab[1]
		cases = append(cases, tc{graph.CompleteBipartite(a, b), graph.CompleteBipartiteLambda2(a, b), graph.CompleteBipartiteLambdaMax(a, b)})
	}
	cases = append(cases, tc{graph.Petersen(), graph.PetersenLambda2(), graph.PetersenLambdaMax()})

	for _, c := range cases {
		g := c.g
		cf, ok := g.ClosedForm()
		if !ok {
			t.Fatalf("%s: no closed form recorded", g.Name())
		}
		if cf.Lambda2 != c.lambda2 || cf.LambdaMax != c.lmax {
			t.Fatalf("%s: recorded (λ₂, λ_max) = (%v, %v), helpers give (%v, %v)", g.Name(), cf.Lambda2, cf.LambdaMax, c.lambda2, c.lmax)
		}
		if g.N() > 64 {
			continue
		}
		vals, err := LaplacianSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense spectrum: %v", g.Name(), err)
		}
		if g.N() >= 2 && math.Abs(cf.Lambda2-vals[1]) > 1e-9 {
			t.Errorf("%s: recorded λ₂ = %.15g, dense = %.15g", g.Name(), cf.Lambda2, vals[1])
		}
		if math.Abs(cf.LambdaMax-vals[len(vals)-1]) > 1e-9 {
			t.Errorf("%s: recorded λ_max = %.15g, dense = %.15g", g.Name(), cf.LambdaMax, vals[len(vals)-1])
		}
	}
}

// TestMislabeledGraphTakesNumericPath: a paw graph (a triangle with one
// pendant edge) built as "cycle(4)" has the 4-cycle's node and edge counts,
// but its Laplacian spectrum is 0, 1, 3, 4, so λ₂ = 1, not the cycle's 2.
// A graph's name must not pick its solver.
func TestMislabeledGraphTakesNumericPath(t *testing.T) {
	b := graph.NewBuilder("cycle(4)", 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	got, err := Lambda2(b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("paw graph named cycle(4): λ₂ = %v, want 1", got)
	}
}

// TestClosedFormLambdaMaxMatchesDense is the same property for the top of
// the spectrum, which the closed-form γ depends on just as much as λ₂.
func TestClosedFormLambdaMaxMatchesDense(t *testing.T) {
	covered := 0
	for name, g := range registryGraphs(t, 24) {
		cf, ok := g.ClosedForm()
		if !ok {
			continue
		}
		lmax := cf.LambdaMax
		covered++
		vals, err := LaplacianSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense spectrum: %v", name, err)
		}
		if diff := math.Abs(lmax - vals[len(vals)-1]); diff > 1e-9 {
			t.Errorf("%s (%s): closed-form λ_max = %.15g, dense = %.15g (diff %.2g)", name, g.Name(), lmax, vals[len(vals)-1], diff)
		}
	}
	if covered < 8 {
		t.Fatalf("only %d registry topologies hit the λ_max closed form, want ≥ 8", covered)
	}
}

// TestGammaOfMatchesDenseEverywhere checks the dispatched γ — closed form
// where recognized, dense elsewhere — against the direct dense eigensolve
// of the materialized diffusion matrix for every registry topology.
func TestGammaOfMatchesDenseEverywhere(t *testing.T) {
	for name, g := range registryGraphs(t, 24) {
		got, err := GammaOf(g)
		if err != nil {
			t.Fatalf("%s: GammaOf: %v", name, err)
		}
		want, err := Gamma(DiffusionMatrix(g))
		if err != nil {
			t.Fatalf("%s: dense γ: %v", name, err)
		}
		if diff := math.Abs(got - want); diff > 1e-9 {
			t.Errorf("%s (%s): GammaOf = %.15g, dense γ = %.15g (diff %.2g)", name, g.Name(), got, want, diff)
		}
	}
}

// TestPaperGammaOfMatchesDenseEverywhere is the same for the paper's
// diffusion matrix with edge weights 1/(4·max(dᵢ,dⱼ)), whose closed form
// only applies when that weight is uniform — the dispatch must detect
// exactly when it is.
func TestPaperGammaOfMatchesDenseEverywhere(t *testing.T) {
	for name, g := range registryGraphs(t, 24) {
		got, err := PaperGammaOf(g)
		if err != nil {
			t.Fatalf("%s: PaperGammaOf: %v", name, err)
		}
		want, err := Gamma(PaperDiffusionMatrix(g))
		if err != nil {
			t.Fatalf("%s: dense paper γ: %v", name, err)
		}
		if diff := math.Abs(got - want); diff > 1e-9 {
			t.Errorf("%s (%s): PaperGammaOf = %.15g, dense = %.15g (diff %.2g)", name, g.Name(), got, want, diff)
		}
	}
}

// TestLanczosMatchesDenseOnUnstructuredGraphs validates the implicit solver
// on the graphs it will actually serve at scale: de Bruijn and seeded
// random-regular graphs, which have no closed form. Both ends of the
// spectrum must agree with the dense solve.
func TestLanczosMatchesDenseOnUnstructuredGraphs(t *testing.T) {
	cases := []*graph.G{
		graph.DeBruijn(5),
		graph.DeBruijn(7),
		graph.RandomRegular(50, 4, rand.New(rand.NewSource(1))),
		graph.RandomRegular(120, 4, rand.New(rand.NewSource(2))),
	}
	for _, g := range cases {
		vals, err := LaplacianSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense spectrum: %v", g.Name(), err)
		}
		l2, lmax, ok, err := LaplacianExtremal(g)
		if err != nil {
			t.Fatalf("%s: Lanczos: %v", g.Name(), err)
		}
		if !ok {
			t.Fatalf("%s: Lanczos did not converge", g.Name())
		}
		if diff := math.Abs(l2 - vals[1]); diff > 1e-8 {
			t.Errorf("%s: Lanczos λ₂ = %.15g, dense = %.15g (diff %.2g)", g.Name(), l2, vals[1], diff)
		}
		if diff := math.Abs(lmax - vals[len(vals)-1]); diff > 1e-8 {
			t.Errorf("%s: Lanczos λ_max = %.15g, dense = %.15g (diff %.2g)", g.Name(), lmax, vals[len(vals)-1], diff)
		}
	}
}

// TestSolveCountersTrackDispatch pins the path each graph class takes:
// recognized families take the closed form at any size, unrecognized small
// graphs take the dense solver, and unrecognized graphs beyond denseCutoff
// take Lanczos — with the counters recording each.
func TestSolveCountersTrackDispatch(t *testing.T) {
	resetSolveCounts()
	if _, err := Lambda2(graph.Hypercube(12)); err != nil { // n=4096 > denseCutoff, still closed form
		t.Fatal(err)
	}
	if s := SolveStats(); s.ClosedForm != 1 || s.Dense != 0 || s.Lanczos != 0 {
		t.Fatalf("hypercube(12): counters %+v, want exactly one closed-form solve", s)
	}

	resetSolveCounts()
	if _, err := Lambda2(graph.DeBruijn(5)); err != nil { // n=32 ≤ denseCutoff
		t.Fatal(err)
	}
	if s := SolveStats(); s.Dense != 1 || s.ClosedForm != 0 {
		t.Fatalf("debruijn(5): counters %+v, want exactly one dense solve", s)
	}

	resetSolveCounts()
	if _, err := Lambda2(graph.DeBruijn(10)); err != nil { // n=1024 > denseCutoff, no closed form
		t.Fatal(err)
	}
	if s := SolveStats(); s.Dense != 0 || s.ClosedForm != 0 || s.Lanczos+s.InversePower != 1 {
		t.Fatalf("debruijn(10): counters %+v, want one iterative solve and no dense", s)
	}
}

// TestAnalyzeNamesSolvePaths: the report names the solve that produced λ₂
// from the Laplacian record itself, so a disconnected graph, which needs
// no solve for λ₂, is named as such rather than by the counters.
func TestAnalyzeNamesSolvePaths(t *testing.T) {
	twoTriangles := graph.NewBuilder("two triangles", 6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		twoTriangles.AddEdge(e[0], e[1])
	}
	for _, c := range []struct {
		g    *graph.G
		want string
	}{
		{graph.Hypercube(12), PathClosedForm},
		{graph.DeBruijn(5), PathDense},
		{graph.DeBruijn(9), PathLanczos},
		{twoTriangles.MustFinish(), PathDisconnected},
	} {
		r, err := Analyze(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name(), err)
		}
		if r.Method != c.want {
			t.Errorf("%s: Method = %q, want %q", c.g.Name(), r.Method, c.want)
		}
		if c.want == PathDisconnected && (r.Lambda2 != 0 || math.Abs(r.LambdaMax-3) > 1e-12 || r.Gamma != 1) {
			t.Errorf("two triangles: λ₂ = %v, λ_max = %v, γ = %v; want 0, 3, 1", r.Lambda2, r.LambdaMax, r.Gamma)
		}
	}
}

// TestPaperEdgeScale: the scale is 1/(4δ) exactly when every edge's paper
// weight 1/(4·max(dᵢ,dⱼ)) is that one value, which the test checks edge by
// edge, and 0 otherwise.
func TestPaperEdgeScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		g       *graph.G
		uniform bool
	}{
		{graph.Path(2), true},
		{graph.Path(9), true},
		{graph.Star(7), true},
		{graph.CompleteBipartite(2, 5), true},
		{graph.CompleteBipartite(3, 3), true},
		{graph.Grid(1, 5), true}, // a path
		{graph.Grid(2, 2), true}, // a 4-cycle
		{graph.Grid(3, 4), false},
		{graph.Grid(8, 8), false},
		{graph.RandomRegular(50, 4, rng), true},
		{graph.Path(1), false},
		{graph.NewBuilder("edgeless", 5).MustFinish(), false},
		{graph.BinaryTree(4), true}, // every edge touches a degree-3 node
		{graph.DeBruijn(5), false},
		{graph.Barbell(8), false},
	} {
		g, want := c.g, 0.0
		weights := map[float64]bool{}
		for _, e := range g.Edges() {
			weights[1/(4*float64(max(g.Degree(e.U), g.Degree(e.V))))] = true
		}
		if (len(weights) == 1) != c.uniform {
			t.Fatalf("%s: %d distinct paper weights, but the case says uniform = %v", g.Name(), len(weights), c.uniform)
		}
		if c.uniform {
			want = 1 / (4 * float64(g.MaxDegree()))
		}
		if got := PaperEdgeScale(g); got != want {
			t.Errorf("%s: PaperEdgeScale = %v, want %v", g.Name(), got, want)
		}
	}
}

// resetSolveCounts zeroes the solve-path counters, so a test can assert on
// the delta of a single computation.
func resetSolveCounts() {
	solveClosedForm.Store(0)
	solveDense.Store(0)
	solveLanczos.Store(0)
	solveInversePower.Store(0)
}
