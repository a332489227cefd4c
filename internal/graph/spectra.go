package graph

import (
	"math"
)

// Closed-form Laplacian spectra for the standard topology families. These
// serve two purposes: they are the ground truth against which the numeric
// eigensolvers in internal/spectral are tested, and they let the experiment
// harness evaluate the paper's bounds exactly on large instances without an
// O(n³) eigendecomposition.

// PathLambda2 returns λ₂ of the path on n nodes: 2(1 − cos(π/n)).
// Laplacian eigenvalues of the path are 2(1 − cos(kπ/n)), k = 0..n−1.
func PathLambda2(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * (1 - math.Cos(math.Pi/float64(n)))
}

// CycleLambda2 returns λ₂ of the cycle on n nodes: 2(1 − cos(2π/n)).
// Laplacian eigenvalues of the cycle are 2(1 − cos(2kπ/n)), k = 0..n−1.
func CycleLambda2(n int) float64 {
	if n < 3 {
		return 0
	}
	return 2 * (1 - math.Cos(2*math.Pi/float64(n)))
}

// CompleteLambda2 returns λ₂ of K_n, which is n (with multiplicity n−1).
func CompleteLambda2(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n)
}

// StarLambda2 returns λ₂ of the star K_{1,n−1}, which is 1 for n ≥ 3
// (spectrum {0, 1^(n−2), n}).
func StarLambda2(n int) float64 {
	switch {
	case n < 2:
		return 0
	case n == 2:
		return 2
	default:
		return 1
	}
}

// HypercubeLambda2 returns λ₂ of the d-dimensional hypercube, which is 2
// (Laplacian spectrum {2k·(d choose k multiplicity)}, k = 0..d).
func HypercubeLambda2(d int) float64 {
	if d < 1 {
		return 0
	}
	return 2
}

// TorusLambda2 returns λ₂ of the rows×cols torus. The torus is the
// Cartesian product of two cycles, so its Laplacian spectrum is the sumset
// of the two cycle spectra; the smallest nonzero value is
// 2(1 − cos(2π/max(rows, cols))).
func TorusLambda2(rows, cols int) float64 {
	m := rows
	if cols > m {
		m = cols
	}
	return CycleLambda2(m)
}

// GridLambda2 returns λ₂ of the rows×cols mesh (Cartesian product of two
// paths): 2(1 − cos(π/max(rows, cols))).
func GridLambda2(rows, cols int) float64 {
	m := rows
	if cols > m {
		m = cols
	}
	return PathLambda2(m)
}

// CompleteBipartiteLambda2 returns λ₂ of K_{a,b} with a ≤ b, which is
// min(a, b) (spectrum {0, a^(b−1), b^(a−1), a+b}).
func CompleteBipartiteLambda2(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if a < 1 {
		return 0
	}
	return float64(a)
}

// PetersenLambda2 returns λ₂ of the Petersen graph: 2.
func PetersenLambda2() float64 { return 2 }

// PathSpectrum returns all n Laplacian eigenvalues of the path, ascending.
// Test-only: TestSpectrumLengthsAndOrder, TestEigenSymMatchesPathSpectrum.
func PathSpectrum(n int) []float64 {
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		out[k] = 2 * (1 - math.Cos(float64(k)*math.Pi/float64(n)))
	}
	return out
}

// CycleSpectrum returns all n Laplacian eigenvalues of the cycle, ascending.
// Test-only: TestSpectrumLengthsAndOrder, TestEigenSymMatchesCycleSpectrum.
func CycleSpectrum(n int) []float64 {
	vals := make([]float64, n)
	for k := 0; k < n; k++ {
		vals[k] = 2 * (1 - math.Cos(2*math.Pi*float64(k)/float64(n)))
	}
	// Values come out unsorted (cos is not monotone over the index range).
	sortFloat64s(vals)
	return vals
}

// HypercubeSpectrum returns all 2^d Laplacian eigenvalues of the hypercube,
// ascending: eigenvalue 2k with multiplicity C(d, k).
// Test-only: TestSpectrumLengthsAndOrder, TestEigenSymMatchesHypercubeSpectrum.
func HypercubeSpectrum(d int) []float64 {
	n := 1 << uint(d)
	out := make([]float64, 0, n)
	choose := 1
	for k := 0; k <= d; k++ {
		for c := 0; c < choose; c++ {
			out = append(out, float64(2*k))
		}
		choose = choose * (d - k) / (k + 1)
	}
	return out
}

// PathLambdaMax returns the largest Laplacian eigenvalue of the path:
// 2(1 + cos(π/n)), the k = n−1 entry of the path spectrum.
func PathLambdaMax(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * (1 + math.Cos(math.Pi/float64(n)))
}

// CycleLambdaMax returns the largest Laplacian eigenvalue of the cycle: 4
// for even n (the alternating eigenvector), 2(1 + cos(π/n)) for odd n.
func CycleLambdaMax(n int) float64 {
	if n < 3 {
		return 0
	}
	if n%2 == 0 {
		return 4
	}
	return 2 * (1 + math.Cos(math.Pi/float64(n)))
}

// CompleteLambdaMax returns the largest Laplacian eigenvalue of K_n: n.
func CompleteLambdaMax(n int) float64 { return CompleteLambda2(n) }

// StarLambdaMax returns the largest Laplacian eigenvalue of K_{1,n−1}: n
// (spectrum {0, 1^(n−2), n}).
func StarLambdaMax(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n)
}

// HypercubeLambdaMax returns the largest Laplacian eigenvalue of the
// d-dimensional hypercube: 2d.
func HypercubeLambdaMax(d int) float64 {
	if d < 1 {
		return 0
	}
	return float64(2 * d)
}

// TorusLambdaMax returns the largest Laplacian eigenvalue of the rows×cols
// torus: the Cartesian-product sumset peaks at the sum of the two cycle
// maxima.
func TorusLambdaMax(rows, cols int) float64 {
	return CycleLambdaMax(rows) + CycleLambdaMax(cols)
}

// GridLambdaMax returns the largest Laplacian eigenvalue of the rows×cols
// mesh: the sum of the two path maxima.
func GridLambdaMax(rows, cols int) float64 {
	return PathLambdaMax(rows) + PathLambdaMax(cols)
}

// CompleteBipartiteLambdaMax returns the largest Laplacian eigenvalue of
// K_{a,b}: a+b.
func CompleteBipartiteLambdaMax(a, b int) float64 {
	if a < 1 || b < 1 {
		return 0
	}
	return float64(a + b)
}

// PetersenLambdaMax returns the largest Laplacian eigenvalue of the Petersen
// graph: 5 (spectrum {0, 2⁵, 5⁴}).
func PetersenLambdaMax() float64 { return 5 }

// family identifies one closed-form topology family instance parsed from a
// graph's name and verified against its actual node and edge counts.
type family struct {
	kind string // "path", "cycle", "complete", "star", "hypercube", "torus", "grid", "K", "petersen"
	a, b int
}

// knownFamily parses g's name against the constructor naming scheme and
// cross-checks the node and edge counts the named family implies. The
// structural check is what makes name-based dispatch safe: a churned
// subgraph, or any hand-built graph wearing a registry name, has a
// different edge count and falls through to the numeric solvers.
func knownFamily(g *G) (family, bool) {
	var a, b int
	var f family
	var wantN, wantM int
	switch {
	case scan1(g.Name(), "path(%d)", &a) && a >= 1:
		f, wantN, wantM = family{kind: "path", a: a}, a, a-1
	case scan1(g.Name(), "cycle(%d)", &a) && a >= 3:
		f, wantN, wantM = family{kind: "cycle", a: a}, a, a
	case scan1(g.Name(), "complete(%d)", &a) && a >= 1:
		f, wantN, wantM = family{kind: "complete", a: a}, a, a*(a-1)/2
	case scan1(g.Name(), "star(%d)", &a) && a >= 1:
		f, wantN, wantM = family{kind: "star", a: a}, a, a-1
	case scan1(g.Name(), "hypercube(%d)", &a) && a >= 0 && a <= 30:
		f, wantN, wantM = family{kind: "hypercube", a: a}, 1<<uint(a), a*(1<<uint(a))/2
	case scan2(g.Name(), "torus(%dx%d)", &a, &b) && a >= 3 && b >= 3:
		f, wantN, wantM = family{kind: "torus", a: a, b: b}, a*b, 2*a*b
	case scan2(g.Name(), "grid(%dx%d)", &a, &b) && a >= 1 && b >= 1:
		f, wantN, wantM = family{kind: "grid", a: a, b: b}, a*b, a*(b-1)+b*(a-1)
	case scan2(g.Name(), "K(%d,%d)", &a, &b) && a >= 1 && b >= 1:
		f, wantN, wantM = family{kind: "K", a: a, b: b}, a+b, a*b
	case g.Name() == "petersen":
		f, wantN, wantM = family{kind: "petersen"}, 10, 15
	default:
		return family{}, false
	}
	if g.N() != wantN || g.M() != wantM {
		return family{}, false
	}
	return f, true
}

// KnownLambda2 returns the closed-form λ₂ for graphs produced by the
// constructors in this package, matching on Name() and verifying the node
// and edge counts. ok is false for families without a closed form (random
// graphs, trees, barbells, …) and for graphs whose structure does not match
// their name.
func KnownLambda2(g *G) (lambda2 float64, ok bool) {
	f, ok := knownFamily(g)
	if !ok {
		return 0, false
	}
	switch f.kind {
	case "path":
		return PathLambda2(f.a), true
	case "cycle":
		return CycleLambda2(f.a), true
	case "complete":
		return CompleteLambda2(f.a), true
	case "star":
		return StarLambda2(f.a), true
	case "hypercube":
		return HypercubeLambda2(f.a), true
	case "torus":
		return TorusLambda2(f.a, f.b), true
	case "grid":
		return GridLambda2(f.a, f.b), true
	case "K":
		return CompleteBipartiteLambda2(f.a, f.b), true
	case "petersen":
		return PetersenLambda2(), true
	}
	return 0, false
}

// KnownLambdaMax returns the closed-form largest Laplacian eigenvalue for
// the same families KnownLambda2 covers. Together the two let the spectral
// layer evaluate γ of the uniform diffusion matrix M = I − L/(δ+1) without
// any decomposition: γ = max(|1 − αλ₂|, |1 − αλ_max|).
func KnownLambdaMax(g *G) (lambdaMax float64, ok bool) {
	f, ok := knownFamily(g)
	if !ok {
		return 0, false
	}
	switch f.kind {
	case "path":
		return PathLambdaMax(f.a), true
	case "cycle":
		return CycleLambdaMax(f.a), true
	case "complete":
		return CompleteLambdaMax(f.a), true
	case "star":
		return StarLambdaMax(f.a), true
	case "hypercube":
		return HypercubeLambdaMax(f.a), true
	case "torus":
		return TorusLambdaMax(f.a, f.b), true
	case "grid":
		return GridLambdaMax(f.a, f.b), true
	case "K":
		return CompleteBipartiteLambdaMax(f.a, f.b), true
	case "petersen":
		return PetersenLambdaMax(), true
	}
	return 0, false
}

// KnownPaperEdgeScale returns c when the paper's diffusion matrix of g is
// exactly M_P = I − c·L — that is, when 1/(4·max(dᵢ,dⱼ)) takes the same
// value c on every edge. That holds for every regular family and for the
// irregular families whose edges all see the same maximum endpoint degree
// (path, star, complete bipartite); it fails for the mesh, whose corner,
// border and interior edges mix scales. With λ₂ and λ_max known, γ_P =
// max(|1 − cλ₂|, |1 − cλ_max|) in closed form.
func KnownPaperEdgeScale(g *G) (c float64, ok bool) {
	f, ok := knownFamily(g)
	if !ok || g.M() == 0 {
		return 0, false
	}
	switch f.kind {
	case "path":
		if f.a == 2 {
			return 1.0 / 4, true
		}
		return 1.0 / 8, true
	case "cycle":
		return 1.0 / 8, true
	case "complete":
		return 1 / (4 * float64(f.a-1)), true
	case "star":
		return 1 / (4 * float64(f.a-1)), true
	case "hypercube":
		return 1 / (4 * float64(f.a)), true
	case "torus":
		return 1.0 / 16, true
	case "K":
		m := f.a
		if f.b > m {
			m = f.b
		}
		return 1 / (4 * float64(m)), true
	case "petersen":
		return 1.0 / 12, true
	}
	return 0, false
}

func sortFloat64s(v []float64) {
	// insertion sort is fine here; spectra helpers are not hot paths and the
	// stdlib sort would pull in an interface allocation per call site.
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

func scan1(s, format string, a *int) bool {
	var got int
	n, err := sscanfStrict(s, format, &got)
	if err != nil || n != 1 {
		return false
	}
	*a = got
	return true
}

func scan2(s, format string, a, b *int) bool {
	var g1, g2 int
	n, err := sscanfStrict(s, format, &g1, &g2)
	if err != nil || n != 2 {
		return false
	}
	*a, *b = g1, g2
	return true
}
