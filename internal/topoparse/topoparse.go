// Package topoparse turns command-line topology descriptions into graphs.
// It is shared by the batch engine and every binary that takes a topology
// name, so they all accept the same names, and it is unit-tested here once
// instead of per-binary.
//
// Accepted names (canonical: lowercase, no padding — batch.Spec.Canonical
// spells a typed name this way; n is the requested approximate node count,
// and families with rigid sizes round up):
//
//	path cycle grid torus torus3d hypercube debruijn ccc butterfly complete
//	star tree random-regular petersen barbell lollipop smallworld rgg
package topoparse

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"

	"repro/internal/graph"
)

// topology is one accepted name: its -list description and its
// constructor, which Build calls with n ≥ 1. seed feeds the randomized
// families only.
type topology struct {
	name, desc string
	build      func(n int, seed int64) (*graph.G, error)
}

// topologies is the name table, in display order: the one list of names
// that Build accepts and -list shows.
var topologies = [...]topology{
	{"path", "path (line) graph", func(n int, _ int64) (*graph.G, error) { return graph.Path(n), nil }},
	{"cycle", "ring of n nodes", func(n int, _ int64) (*graph.G, error) {
		if n < 3 {
			return nil, fmt.Errorf("topoparse: cycle needs n ≥ 3, got %d", n)
		}
		return graph.Cycle(n), nil
	}},
	{"grid", "2-D mesh (no wraparound), side ⌈√n⌉", rounded("grid", 1, 2, 4, square, func(s int) *graph.G { return graph.Grid(s, s) })},
	{"torus", "2-D torus (wraparound grid)", rounded("torus", 3, 2, 4, square, func(s int) *graph.G { return graph.Torus(s, s) })},
	{"torus3d", "3-D torus", rounded("torus3d", 3, 3, 6, cube, func(s int) *graph.G { return graph.Torus3D(s, s, s) })},
	{"hypercube", "d-dimensional hypercube, n rounded to 2^d", rounded("hypercube", 0, 0, 63, pow2, graph.Hypercube)}, // degree d < 63
	{"debruijn", "binary de Bruijn graph", rounded("debruijn", 1, 0, 4, pow2, graph.DeBruijn)},
	{"ccc", "cube-connected cycles", rounded("ccc", 3, 0, 3, dTimesPow2, graph.CubeConnectedCycles)},
	{"butterfly", "wrapped butterfly network", rounded("butterfly", 3, 0, 4, dTimesPow2, graph.Butterfly)},
	{"complete", "complete graph (clique)", func(n int, _ int64) (*graph.G, error) { return graph.Complete(n), nil }},
	{"star", "one hub, n−1 leaves", func(n int, _ int64) (*graph.G, error) {
		if n < 2 {
			return nil, fmt.Errorf("topoparse: star needs n ≥ 2, got %d", n)
		}
		return graph.Star(n), nil
	}},
	{"tree", "complete binary tree", rounded("tree", 1, 0, 3, treeSize, graph.BinaryTree)},
	{"random-regular", "random 4-regular graph (seeded)", func(n int, seed int64) (*graph.G, error) {
		d := 4
		if d >= n {
			return nil, fmt.Errorf("topoparse: random-regular needs n > 4, got %d", n)
		}
		if n*d%2 != 0 {
			n++
		}
		return graph.RandomRegular(n, d, rand.New(rand.NewSource(seed))), nil
	}},
	{"petersen", "the Petersen graph (n fixed at 10)", func(int, int64) (*graph.G, error) { return graph.Petersen(), nil }},
	{"barbell", "two cliques joined by one edge", func(n int, _ int64) (*graph.G, error) {
		k := n / 2
		if k < 2 {
			return nil, fmt.Errorf("topoparse: barbell needs n ≥ 4, got %d", n)
		}
		return graph.Barbell(k), nil
	}},
	{"lollipop", "clique with a path tail", func(n int, _ int64) (*graph.G, error) {
		k := n * 2 / 3
		if k < 2 || n-k < 1 {
			return nil, fmt.Errorf("topoparse: lollipop needs n ≥ 4, got %d", n)
		}
		return graph.Lollipop(k, n-k), nil
	}},
	{"smallworld", "Watts–Strogatz small world (seeded)", func(n int, seed int64) (*graph.G, error) {
		if n < 6 { // k = 2 neighbours a side needs k < n/2
			return nil, fmt.Errorf("topoparse: smallworld needs n ≥ 6, got %d", n)
		}
		return graph.SmallWorld(n, 2, 0.1, rand.New(rand.NewSource(seed))), nil
	}},
	{"rgg", "random geometric graph above the connectivity radius (seeded)", func(n int, seed int64) (*graph.G, error) {
		if n < 2 {
			return nil, fmt.Errorf("topoparse: rgg needs n ≥ 2, got %d", n)
		}
		r := 2 * graph.ConnectivityRadius(n)
		return graph.RandomGeometric(n, r, rand.New(rand.NewSource(seed))), nil
	}},
}

// Names lists the accepted topology names in display order.
func Names() []string {
	out := make([]string, len(topologies))
	for i, t := range topologies {
		out[i] = t.name
	}
	return out
}

// Descriptions returns each accepted name and a one-line description, in
// display order — the -list surface.
func Descriptions() [][2]string {
	out := make([][2]string, len(topologies))
	for i, t := range topologies {
		out[i] = [2]string{t.name, t.desc}
	}
	return out
}

// Build constructs the named topology at (approximately) n nodes. name must
// be canonical, as Names lists it. Families indexed by a side/dimension
// round n up to the next valid size. seed feeds the randomized families
// only.
func Build(name string, n int, seed int64) (*graph.G, error) {
	if n < 1 {
		return nil, fmt.Errorf("topoparse: n must be positive, got %d", n)
	}
	for _, t := range topologies {
		if t.name == name {
			return t.build(n, seed)
		}
	}
	return nil, fmt.Errorf("topoparse: unknown topology %q (accepted: %s)", name, strings.Join(Names(), " "))
}

// rounded is the constructor of a family indexed by a side or dimension k:
// it builds build(k) at the least k whose family has ≥ n nodes (roundUp).
// The search starts at lo, or at max(lo, root(n, dim)) when the family's
// size is k^dim.
func rounded(family string, lo, dim, degree int, size func(k int) (int, bool), build func(k int) *graph.G) func(int, int64) (*graph.G, error) {
	return func(n int, _ int64) (*graph.G, error) {
		from := lo
		if dim > 0 {
			from = max(lo, root(n, dim))
		}
		k, err := roundUp(family, n, from, degree, size)
		if err != nil {
			return nil, err
		}
		return build(k), nil
	}
}

// roundUp returns the least k ≥ from whose family has size(k) ≥ n nodes;
// from must not exceed that k. size grows with k and reports false once it
// overflows int. roundUp returns an error when the family outgrows int
// before reaching n, counting size(k)·degree too: degree bounds the family's
// node degrees, so the product bounds the adjacency entries the builder
// stores. Unchecked, a shift wraps and the search never ends.
func roundUp(family string, n, from, degree int, size func(k int) (int, bool)) (int, error) {
	for k := from; ; k++ {
		s, ok := size(k)
		if _, fits := mul(s, degree, ok); !fits {
			return 0, fmt.Errorf("topoparse: %s at n=%d overflows int", family, n)
		}
		if s >= n {
			return k, nil
		}
	}
}

// root returns a start for the search of the least s with s^k ≥ n: one
// below the floating-point k-th root, so it never overshoots the answer.
func root(n, k int) int { return int(math.Pow(float64(n), 1/float64(k))) - 1 }

// mul returns a·b for a, b ≥ 0 and whether it fits in an int, given that a
// did (ok).
func mul(a, b int, ok bool) (int, bool) {
	if !ok || (a > 0 && b > math.MaxInt/a) {
		return 0, false
	}
	return a * b, true
}

func square(s int) (int, bool) { return mul(s, s, true) }

func cube(s int) (int, bool) {
	s2, ok := square(s)
	return mul(s2, s, ok)
}

func pow2(d int) (int, bool) { return 1 << d, d < bits.UintSize-1 }

// treeSize is the node count of a complete binary tree of l levels.
func treeSize(l int) (int, bool) {
	p, ok := pow2(l)
	return p - 1, ok
}

func dTimesPow2(d int) (int, bool) {
	p, ok := pow2(d)
	return mul(d, p, ok)
}
