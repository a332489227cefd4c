package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Torus3D returns the a×b×c 3-D torus (each dimension ≥ 3), the standard
// interconnect of large HPC machines. It is 6-regular.
func Torus3D(a, b, c int) *G {
	if a < 3 || b < 3 || c < 3 {
		panic("graph: 3-D torus needs all dimensions >= 3")
	}
	bld := NewBuilder(fmt.Sprintf("torus3d(%dx%dx%d)", a, b, c), a*b*c)
	id := func(x, y, z int) int { return (x*b+y)*c + z }
	for x := 0; x < a; x++ {
		for y := 0; y < b; y++ {
			for z := 0; z < c; z++ {
				bld.AddEdge(id(x, y, z), id((x+1)%a, y, z))
				bld.AddEdge(id(x, y, z), id(x, (y+1)%b, z))
				bld.AddEdge(id(x, y, z), id(x, y, (z+1)%c))
			}
		}
	}
	return bld.MustFinish()
}

// CubeConnectedCycles returns the cube-connected-cycles network CCC(d):
// each hypercube node is replaced by a cycle of d nodes, node (w, i)
// connecting to (w, i±1) on its cycle and to (w ⊕ 2ⁱ, i) across dimension
// i. 3-regular for d ≥ 3, on d·2^d nodes — the classic bounded-degree
// surrogate for the hypercube.
func CubeConnectedCycles(d int) *G {
	if d < 3 || d > 20 {
		panic("graph: CCC dimension out of range (needs 3..20)")
	}
	n := d * (1 << uint(d))
	b := NewBuilder(fmt.Sprintf("ccc(%d)", d), n)
	id := func(w, i int) int { return w*d + i }
	for w := 0; w < 1<<uint(d); w++ {
		for i := 0; i < d; i++ {
			b.AddEdge(id(w, i), id(w, (i+1)%d)) // cycle edge
			if peer := w ^ (1 << uint(i)); w < peer {
				b.AddEdge(id(w, i), id(peer, i)) // hypercube edge
			}
		}
	}
	return b.MustFinish()
}

// Butterfly returns the d-dimensional wrapped butterfly on d·2^d nodes:
// node (w, i) connects to (w, i+1 mod d) and (w ⊕ 2^((i+1) mod d)·…, i+1).
// Following the standard definition, level i node w has straight and cross
// edges to level (i+1) mod d. 4-regular.
func Butterfly(d int) *G {
	if d < 3 || d > 20 {
		panic("graph: butterfly dimension out of range (needs 3..20)")
	}
	n := d * (1 << uint(d))
	b := NewBuilder(fmt.Sprintf("butterfly(%d)", d), n)
	id := func(w, i int) int { return w*d + i }
	for w := 0; w < 1<<uint(d); w++ {
		for i := 0; i < d; i++ {
			next := (i + 1) % d
			b.AddEdge(id(w, i), id(w, next))                 // straight
			b.AddEdge(id(w, i), id(w^(1<<uint(next)), next)) // cross
		}
	}
	return b.MustFinish()
}

// SmallWorld returns a Watts–Strogatz-style small world: a cycle with k
// extra chords per node candidate, each nearest-neighbour chord rewired to
// a uniformly random endpoint with probability p. Simplicity is enforced
// (rewires that would duplicate an edge or self-loop are skipped).
func SmallWorld(n, k int, p float64, rng *rand.Rand) *G {
	if n < 5 || k < 1 || k >= n/2 {
		panic("graph: small world needs n ≥ 5, 1 ≤ k < n/2")
	}
	type edge struct{ u, v int }
	var edges []edge
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			edges = append(edges, edge{i, (i + j) % n})
		}
	}
	have := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		have[Edge{U: e.u, V: e.v}.Canonical()] = true
	}
	for idx := range edges {
		if rng.Float64() >= p {
			continue
		}
		e := edges[idx]
		for attempt := 0; attempt < 20; attempt++ {
			t := rng.Intn(n)
			if t == e.u {
				continue
			}
			ne := Edge{U: e.u, V: t}.Canonical()
			if have[ne] {
				continue
			}
			delete(have, Edge{U: e.u, V: e.v}.Canonical())
			have[ne] = true
			break
		}
	}
	b := NewBuilder(fmt.Sprintf("smallworld(%d,%d,%.2f)", n, k, p), n)
	for e := range have {
		b.AddEdge(e.U, e.V)
	}
	return b.MustFinish()
}

// RandomGeometric returns a random geometric graph: n nodes placed
// uniformly in the unit square, edges between pairs within distance r.
// The standard model for wireless/sensor topologies.
func RandomGeometric(n int, r float64, rng *rand.Rand) *G {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	b := NewBuilder(fmt.Sprintf("rgg(%d,%.3f)", n, r), n)
	r2 := r * r
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustFinish()
}

// ConnectivityRadius returns the standard threshold radius
// sqrt(ln n/(π·n)) at which a random geometric graph becomes connected
// w.h.p.; callers typically use a small constant multiple of it.
func ConnectivityRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Sqrt(math.Log(float64(n)) / (math.Pi * float64(n)))
}
