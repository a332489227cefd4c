package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path (line) graph on n nodes: 0−1−2−…−(n−1).
// The paper's introduction uses the line with load ℓᵢ = i as the canonical
// example of a discrete instance that no local rule can balance further.
func Path(n int) *G {
	b := NewBuilder(fmt.Sprintf("path(%d)", n), n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustFinish().withClosedForm(PathLambda2(n), PathLambdaMax(n))
}

// Cycle returns the cycle (ring) on n nodes. Requires n ≥ 3.
func Cycle(n int) *G {
	if n < 3 {
		panic("graph: cycle needs n >= 3")
	}
	b := NewBuilder(fmt.Sprintf("cycle(%d)", n), n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.MustFinish().withClosedForm(CycleLambda2(n), CycleLambdaMax(n))
}

// Complete returns the complete graph K_n.
func Complete(n int) *G {
	b := NewBuilder(fmt.Sprintf("complete(%d)", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.MustFinish().withClosedForm(CompleteLambda2(n), CompleteLambdaMax(n))
}

// Star returns the star K_{1,n−1} with node 0 as the centre.
func Star(n int) *G {
	b := NewBuilder(fmt.Sprintf("star(%d)", n), n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.MustFinish().withClosedForm(StarLambda2(n), StarLambdaMax(n))
}

// CompleteBipartite returns K_{a,b} with parts {0..a−1} and {a..a+b−1}.
// Test-only: TestCompleteBipartite, TestKnownLambda2Matching,
// TestClosedFormRecorded and TestLambda2ClosedForms.
func CompleteBipartite(a, b int) *G {
	bld := NewBuilder(fmt.Sprintf("K(%d,%d)", a, b), a+b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(i, a+j)
		}
	}
	g := bld.MustFinish()
	if a < 1 || b < 1 {
		return g
	}
	return g.withClosedForm(CompleteBipartiteLambda2(a, b), CompleteBipartiteLambdaMax(a, b))
}

// Grid returns the rows×cols 2-D mesh (no wraparound).
func Grid(rows, cols int) *G {
	b := NewBuilder(fmt.Sprintf("grid(%dx%d)", rows, cols), rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g := b.MustFinish()
	if rows < 1 || cols < 1 {
		return g
	}
	return g.withClosedForm(GridLambda2(rows, cols), GridLambdaMax(rows, cols))
}

// Torus returns the rows×cols 2-D torus (mesh with wraparound). Both
// dimensions must be ≥ 3 so the graph stays simple.
func Torus(rows, cols int) *G {
	if rows < 3 || cols < 3 {
		panic("graph: torus needs both dimensions >= 3")
	}
	b := NewBuilder(fmt.Sprintf("torus(%dx%d)", rows, cols), rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.MustFinish().withClosedForm(TorusLambda2(rows, cols), TorusLambdaMax(rows, cols))
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes. Nodes are
// adjacent iff their indices differ in exactly one bit.
func Hypercube(d int) *G {
	if d < 0 || d > 24 {
		panic("graph: hypercube dimension out of range")
	}
	n := 1 << uint(d)
	b := NewBuilder(fmt.Sprintf("hypercube(%d)", d), n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << uint(bit))
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustFinish().withClosedForm(HypercubeLambda2(d), HypercubeLambdaMax(d))
}

// DeBruijn returns the undirected de Bruijn graph on 2^d nodes: node u is
// connected to (2u mod n) and (2u+1 mod n), ignoring orientation and
// dropping the self loops that arise at 0 and n−1. This is the standard
// constant-degree test topology in [16].
func DeBruijn(d int) *G {
	if d < 1 || d > 24 {
		panic("graph: de Bruijn dimension out of range")
	}
	n := 1 << uint(d)
	b := NewBuilder(fmt.Sprintf("debruijn(%d)", d), n)
	for u := 0; u < n; u++ {
		for _, v := range []int{(2 * u) % n, (2*u + 1) % n} {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustFinish()
}

// BinaryTree returns the complete binary tree with the given number of
// levels (a tree with 2^levels − 1 nodes, node 0 the root, children of i at
// 2i+1 and 2i+2).
func BinaryTree(levels int) *G {
	if levels < 1 || levels > 24 {
		panic("graph: binary tree levels out of range")
	}
	n := (1 << uint(levels)) - 1
	b := NewBuilder(fmt.Sprintf("bintree(%d)", levels), n)
	for i := 0; i < n; i++ {
		if l := 2*i + 1; l < n {
			b.AddEdge(i, l)
		}
		if r := 2*i + 2; r < n {
			b.AddEdge(i, r)
		}
	}
	return b.MustFinish()
}

// Petersen returns the Petersen graph (n=10, 3-regular), a small
// vertex-transitive graph with known spectrum {3, 1⁵, −2⁴}; Laplacian
// spectrum {0, 2⁵, 5⁴}, so λ₂ = 2. Useful as an exact test fixture.
func Petersen() *G {
	b := NewBuilder("petersen", 10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)     // outer pentagon
		b.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.AddEdge(i, 5+i)         // spokes
	}
	return b.MustFinish().withClosedForm(PetersenLambda2(), PetersenLambdaMax())
}

// Barbell returns two K_k cliques joined by a single bridge edge. Its λ₂ is
// tiny (Θ(1/k²) scale), making it a worst case for diffusion; used in the
// convergence experiments to exercise the slow end of the λ₂ spectrum.
func Barbell(k int) *G {
	if k < 2 {
		panic("graph: barbell needs k >= 2")
	}
	b := NewBuilder(fmt.Sprintf("barbell(%d)", k), 2*k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
			b.AddEdge(k+i, k+j)
		}
	}
	b.AddEdge(k-1, k)
	return b.MustFinish()
}

// Lollipop returns a K_k clique with a path of plen extra nodes attached.
func Lollipop(k, plen int) *G {
	if k < 2 || plen < 1 {
		panic("graph: lollipop needs k >= 2, plen >= 1")
	}
	b := NewBuilder(fmt.Sprintf("lollipop(%d,%d)", k, plen), k+plen)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := 0; i < plen; i++ {
		b.AddEdge(k+i-1, k+i)
	}
	return b.MustFinish()
}

// RandomRegular returns a random d-regular simple graph on n nodes via the
// pairing (configuration) model with restarts. n·d must be even and d < n.
// The returned graph is a good expander with high probability, which makes
// it the stand-in for the "degree-d expander" topologies of [16].
func RandomRegular(n, d int, rng *rand.Rand) *G {
	if d < 1 || d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("graph: invalid random regular parameters n=%d d=%d", n, d))
	}
	// A 4-regular pairing is simple with probability ≈ e^(−15/4), so most
	// builds take dozens of attempts; each one refills the same half-edge
	// list and clears the same edge set. The list is refilled in full before
	// every shuffle, so the RNG stream, and the graph, are those of a fresh
	// list.
	stubs := make([]int, n*d)
	seen := make(map[Edge]struct{}, n*d/2)
	for attempt := 0; ; attempt++ {
		if attempt > 1000 {
			panic("graph: random regular pairing failed to produce a simple graph")
		}
		// Half-edge list: node i appears d times.
		for i := range stubs {
			stubs[i] = i / d
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		ok := true
		clear(seen)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			e := Edge{U: u, V: v}.Canonical()
			if _, dup := seen[e]; dup {
				ok = false
				break
			}
			seen[e] = struct{}{}
		}
		if !ok {
			continue
		}
		b := NewBuilder(fmt.Sprintf("random-regular(%d,%d)", n, d), n)
		for e := range seen {
			b.AddEdge(e.U, e.V)
		}
		g := b.MustFinish()
		if g.IsConnected() {
			return g
		}
	}
}

// ErdosRenyi returns G(n, p): each of the n(n−1)/2 possible edges is present
// independently with probability p.
// Test-only: the random-graph *Property tests of six packages.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *G {
	b := NewBuilder(fmt.Sprintf("gnp(%d,%.3f)", n, p), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustFinish()
}
