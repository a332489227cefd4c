// Package topoparse turns command-line topology descriptions into graphs.
// It is shared by the batch engine and every binary that takes a topology
// name, so they all accept the same names, and it is unit-tested here once
// instead of per-binary.
//
// Accepted forms (n is the requested approximate node count; families with
// rigid sizes round up):
//
//	path cycle|ring grid|mesh torus hypercube debruijn complete star tree
//	random-regular petersen barbell lollipop
package topoparse

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/graph"
)

// topologies is the name table: each accepted name, in display order, and
// its one-line -list description.
var topologies = [...][2]string{
	{"path", "path (line) graph"},
	{"cycle", "ring of n nodes"},
	{"grid", "2-D mesh (no wraparound), side ⌈√n⌉"},
	{"torus", "2-D torus (wraparound grid)"},
	{"torus3d", "3-D torus"},
	{"hypercube", "d-dimensional hypercube, n rounded to 2^d"},
	{"debruijn", "binary de Bruijn graph"},
	{"ccc", "cube-connected cycles"},
	{"butterfly", "wrapped butterfly network"},
	{"complete", "complete graph (clique)"},
	{"star", "one hub, n−1 leaves"},
	{"tree", "complete binary tree"},
	{"random-regular", "random 4-regular graph (seeded)"},
	{"petersen", "the Petersen graph (n fixed at 10)"},
	{"barbell", "two cliques joined by one edge"},
	{"lollipop", "clique with a path tail"},
	{"smallworld", "Watts–Strogatz small world (seeded)"},
	{"rgg", "random geometric graph above the connectivity radius (seeded)"},
}

// Names lists the accepted topology names in display order.
func Names() []string {
	out := make([]string, len(topologies))
	for i, t := range topologies {
		out[i] = t[0]
	}
	return out
}

// Descriptions returns each accepted name and a one-line description, in
// display order — the -list surface.
func Descriptions() [][2]string { return slices.Clone(topologies[:]) }

// Build constructs the named topology at (approximately) n nodes. Families
// indexed by a side/dimension round n up to the next valid size. seed feeds
// the randomized families only.
func Build(name string, n int, seed int64) (*graph.G, error) {
	if n < 1 {
		return nil, fmt.Errorf("topoparse: n must be positive, got %d", n)
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "path", "line":
		return graph.Path(n), nil
	case "cycle", "ring":
		if n < 3 {
			return nil, fmt.Errorf("topoparse: cycle needs n ≥ 3, got %d", n)
		}
		return graph.Cycle(n), nil
	case "grid", "mesh":
		side, err := roundUp("grid", n, max(1, root(n, 2)), 4, square)
		if err != nil {
			return nil, err
		}
		return graph.Grid(side, side), nil
	case "torus":
		side, err := roundUp("torus", n, max(3, root(n, 2)), 4, square)
		if err != nil {
			return nil, err
		}
		return graph.Torus(side, side), nil
	case "hypercube":
		d, err := roundUp("hypercube", n, 0, 63, pow2) // degree d < 63
		if err != nil {
			return nil, err
		}
		return graph.Hypercube(d), nil
	case "debruijn":
		d, err := roundUp("debruijn", n, 1, 4, pow2)
		if err != nil {
			return nil, err
		}
		return graph.DeBruijn(d), nil
	case "complete", "clique":
		return graph.Complete(n), nil
	case "star":
		if n < 2 {
			return nil, fmt.Errorf("topoparse: star needs n ≥ 2, got %d", n)
		}
		return graph.Star(n), nil
	case "tree", "bintree":
		levels, err := roundUp("tree", n, 1, 3, func(l int) (int, bool) {
			p, ok := pow2(l)
			return p - 1, ok
		})
		if err != nil {
			return nil, err
		}
		return graph.BinaryTree(levels), nil
	case "random-regular", "regular":
		d := 4
		if d >= n {
			return nil, fmt.Errorf("topoparse: random-regular needs n > 4, got %d", n)
		}
		if n*d%2 != 0 {
			n++
		}
		return graph.RandomRegular(n, d, rand.New(rand.NewSource(seed))), nil
	case "petersen":
		return graph.Petersen(), nil
	case "torus3d":
		side, err := roundUp("torus3d", n, max(3, root(n, 3)), 6, func(s int) (int, bool) {
			s2, ok := square(s)
			return mul(s2, s, ok)
		})
		if err != nil {
			return nil, err
		}
		return graph.Torus3D(side, side, side), nil
	case "ccc":
		d, err := roundUp("ccc", n, 3, 3, dTimesPow2)
		if err != nil {
			return nil, err
		}
		return graph.CubeConnectedCycles(d), nil
	case "butterfly":
		d, err := roundUp("butterfly", n, 3, 4, dTimesPow2)
		if err != nil {
			return nil, err
		}
		return graph.Butterfly(d), nil
	case "smallworld":
		if n < 6 { // k = 2 neighbours a side needs k < n/2
			return nil, fmt.Errorf("topoparse: smallworld needs n ≥ 6, got %d", n)
		}
		return graph.SmallWorld(n, 2, 0.1, rand.New(rand.NewSource(seed))), nil
	case "rgg":
		if n < 2 {
			return nil, fmt.Errorf("topoparse: rgg needs n ≥ 2, got %d", n)
		}
		r := 2 * graph.ConnectivityRadius(n)
		return graph.RandomGeometric(n, r, rand.New(rand.NewSource(seed))), nil
	case "barbell":
		k := n / 2
		if k < 2 {
			return nil, fmt.Errorf("topoparse: barbell needs n ≥ 4, got %d", n)
		}
		return graph.Barbell(k), nil
	case "lollipop":
		k := n * 2 / 3
		if k < 2 || n-k < 1 {
			return nil, fmt.Errorf("topoparse: lollipop needs n ≥ 4, got %d", n)
		}
		return graph.Lollipop(k, n-k), nil
	default:
		return nil, fmt.Errorf("topoparse: unknown topology %q (accepted: %s)", name, strings.Join(Names(), " "))
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

func pow2(d int) (int, bool) { return 1 << d, d < bits.UintSize-1 }

func dTimesPow2(d int) (int, bool) {
	p, ok := pow2(d)
	return mul(d, p, ok)
}
