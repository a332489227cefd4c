// Package graph provides the immutable undirected graphs on which the load
// balancing algorithms run, together with the standard topology families the
// diffusion literature evaluates on (path, cycle, torus, hypercube,
// de Bruijn, expanders, …), their Laplacian/adjacency matrices, and
// structural measures (degree, expansion, connectivity).
//
// Graphs are simple (no self loops, no multi-edges) and immutable once
// built; every algorithm in this repository treats the topology as
// read-only, which is what makes the steppers' goroutine-parallel round
// executors (internal/parallel) safe without locks. A graph stores one
// adjacency, its CSR, with 32-bit neighbour ids, so a graph has at most
// MaxNodes = 2³¹−1 nodes; the sorted edge list that flows, colourings and
// the sequential models index is built on first use (Edges).
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/matrix"
)

// Edge is an undirected edge between two node indices with U < V.
type Edge struct {
	U, V int
}

// Canonical returns the edge with endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// G is an immutable simple undirected graph with nodes 0..n−1, n ≤ MaxNodes.
//
// A graph's one resident adjacency is a flat CSR (compressed sparse row)
// layout — a single int offsets array and a single int32 targets array,
// the stream every round reads in full — plus, when a family constructor
// built it, that family's ClosedForm spectra. There are no per-node
// neighbour slices: Neighbors(i) is a view of CSR row i and Degree(i) is
// the row's length. The CSR layout is what the per-round stepper hot
// loops, the Lanczos operators and the matchers scan: one contiguous
// stream instead of n pointer-chased slices, which keeps a million-node
// round cache-friendly. See CSR for the layout contract.
// The sorted edge list is built from the CSR on the first Edges call, so
// only graphs whose callers read it hold it.
type G struct {
	name string
	n    int

	csrOff []int   // len n+1; node i's neighbours at csrTgt[csrOff[i]:csrOff[i+1]]
	csrTgt []int32 // len 2m; ascending within each node's range

	closed *ClosedForm // nil unless a family constructor recorded one

	edgesOnce sync.Once
	edges     []Edge // canonical, sorted lexicographically; nil until Edges

	fpOnce sync.Once
	fp     uint64

	connOnce  sync.Once
	connected bool
}

// Builder accumulates edges and produces an immutable G. Self loops and
// out-of-range endpoints are rejected at Finish time; duplicate AddEdge
// calls for the same undirected edge collapse to one edge.
//
// Edges are kept as packed (u,v) keys in an append-only slice and
// sort+deduplicated once in Finish — O(m log m) with one allocation, rather
// than the hash-map-per-edge cost that dominated million-edge builds.
type Builder struct {
	name   string
	n      int
	packed []uint64 // canonical edges as U<<32|V
	err    error
}

// MaxNodes is the largest node count a graph can have: the CSR stores
// neighbour ids as int32, and Builder packs an edge's endpoints into one
// 64-bit key.
const MaxNodes = math.MaxInt32

// NewBuilder starts a builder for a graph with n nodes. A negative n or one
// above MaxNodes is a sticky error that Finish reports.
func NewBuilder(name string, n int) *Builder {
	b := &Builder{name: name, n: n}
	switch {
	case n < 0:
		b.err = errors.New("graph: negative node count")
	case n > MaxNodes:
		b.err = fmt.Errorf("graph: %d nodes exceed the limit of %d", n, MaxNodes)
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Errors (out-of-range
// endpoints, self loops) are sticky and reported by Finish.
func (b *Builder) AddEdge(u, v int) {
	if b.err != nil {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range n=%d", u, v, b.n)
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self loop at node %d", u)
		return
	}
	if u > v {
		u, v = v, u
	}
	b.packed = append(b.packed, uint64(u)<<32|uint64(v))
}

// Finish validates and freezes the graph. The sorted, compacted keys place
// the CSR directly.
func (b *Builder) Finish() (*G, error) {
	if b.err != nil {
		return nil, b.err
	}
	slices.Sort(b.packed)
	b.packed = slices.Compact(b.packed)
	off, tgt := make([]int, b.n+1), make([]int32, 2*len(b.packed))
	for _, p := range b.packed {
		off[p>>32+1]++
		off[uint32(p)+1]++
	}
	startRows(off)
	for _, p := range b.packed {
		place(off, tgt, int32(p>>32), int32(uint32(p)))
	}
	return sealCSR(b.name, b.n, off, tgt), nil
}

// startRows turns the degree counts in off[1:] into row starts.
//
// Finish and Subgraph build a CSR in two passes over a sorted canonical
// edge list: degree counts into off[i+1], startRows, then a place pass
// that uses off[i] as row i's cursor (leaving it at the row's end, so
// sealCSR shifts it back). Placing in sorted order puts each node's smaller
// neighbours (from edges where it is V, ascending by U) before its larger
// ones (from its own U block, ascending by V), so every row comes out
// ascending without a per-node sort.
func startRows(off []int) {
	sum := 0
	for i := range off {
		sum += off[i]
		off[i] = sum
	}
}

// place writes edge {u, v} into both endpoints' rows at their cursors.
func place(off []int, tgt []int32, u, v int32) {
	tgt[off[u]] = v
	off[u]++
	tgt[off[v]] = u
	off[v]++
}

// sealCSR restores the row starts from the placement cursors and freezes
// the graph.
func sealCSR(name string, n int, off []int, tgt []int32) *G {
	copy(off[1:], off[:n])
	off[0] = 0
	return &G{name: name, n: n, csrOff: off, csrTgt: tgt}
}

// MustFinish is Finish that panics on error; used by the topology
// constructors whose edge sets are correct by construction.
func (b *Builder) MustFinish() *G {
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the human-readable topology name, e.g. "torus(8x8)". It is
// for display only: nothing is derived from it.
func (g *G) Name() string { return g.name }

// N returns the number of nodes.
func (g *G) N() int { return g.n }

// M returns the number of edges.
func (g *G) M() int { return g.csrOff[g.n] / 2 }

// Edges returns the canonical edge list, sorted lexicographically: the
// CSR's upper triangle (row i, neighbours j > i). The first call builds it
// and the graph keeps it; callers must not mutate it.
func (g *G) Edges() []Edge {
	g.edgesOnce.Do(func() {
		edges := make([]Edge, 0, g.M())
		for u := 0; u < g.n; u++ {
			for _, v := range g.Neighbors(u) {
				if int(v) > u {
					edges = append(edges, Edge{U: u, V: int(v)})
				}
			}
		}
		g.edges = edges
	})
	return g.edges
}

// Neighbors returns the sorted neighbour ids of node i, as int32 like the
// CSR targets: CSR row i, capped so an append cannot run into row i+1.
// Callers must not mutate it.
func (g *G) Neighbors(i int) []int32 {
	return g.csrTgt[g.csrOff[i]:g.csrOff[i+1]:g.csrOff[i+1]]
}

// CSR returns the flat compressed-sparse-row adjacency view: node i's
// neighbours are targets[offsets[i]:offsets[i+1]], ascending, and
// offsets[i+1]−offsets[i] equals Degree(i). Both slices are shared with the
// graph and must not be mutated.
//
// Layout contract (steppers depend on every clause):
//   - targets holds neighbour ids as int32, half the bytes of int, since
//     every round streams the whole array; N() ≤ MaxNodes (2³¹−1) makes
//     every id fit. Offsets stay int, so 2·M() has no limit of its own;
//   - offsets has length N()+1 with offsets[0] = 0 and offsets[N()] = 2·M();
//   - each row lists the same neighbours, in the same ascending order, as
//     Neighbors(i) — a loop converted from Neighbors to CSR therefore
//     replays the exact serial IEEE operation chain and stays bit-identical;
//   - Neighbors(i) is a capped view of targets[offsets[i]:offsets[i+1]], not
//     a copy.
func (g *G) CSR() (offsets []int, targets []int32) { return g.csrOff, g.csrTgt }

// Degree returns the degree of node i.
func (g *G) Degree(i int) int { return g.csrOff[i+1] - g.csrOff[i] }

// MaxDegree returns δ = maxᵢ deg(i); 0 for the empty graph.
func (g *G) MaxDegree() int {
	delta := 0
	for i := 0; i < g.n; i++ {
		delta = max(delta, g.Degree(i))
	}
	return delta
}

// IsRegular reports whether every node has degree δ = MaxDegree(): the
// handshake sum 2·M() reaches N()·δ only then. The empty and edgeless
// graphs are 0-regular. Algorithm 1 keys its constant-divisor round body
// on it (diffusion.Stepper.Step).
func (g *G) IsRegular() bool { return 2*g.M() == g.N()*g.MaxDegree() }

// Fingerprint returns a stable 64-bit structural hash of the graph: its
// name, node count (8 bytes, little-endian) and full edge set (U and V as
// 4 bytes each), FNV-1a-hashed in Edges() order straight off the CSR
// without building the list. Two graphs with the same fingerprint
// are interchangeable for caching purposes — internal/speccache keys its
// memoized spectral quantities (λ₂, γ, optimal flows) on it, so randomized
// families with colliding names but different edge sets never share an
// entry. Computed lazily, exactly once, and safe for concurrent use (G is
// immutable after Finish).
func (g *G) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		h := uint64(fnvOffset)
		for i := 0; i < len(g.name); i++ {
			h = (h ^ uint64(g.name[i])) * fnvPrime
		}
		h = fnvWord(h, uint64(g.n))
		for u := 0; u < g.n; u++ {
			for _, v := range g.Neighbors(u) {
				if int(v) > u {
					h = fnvWord(h, uint64(uint32(u))|uint64(uint32(v))<<32)
				}
			}
		}
		g.fp = h
	})
	return g.fp
}

// FNV-1a, 64-bit (hash/fnv's New64a), folded in place: the hash is a
// serial chain of multiplies, and calling Write through the hash.Hash64
// interface per edge, or staging edges in a buffer, puts the CSR walk on
// that chain instead of beside it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds the eight little-endian bytes of x into the FNV-1a state h.
func fnvWord(h, x uint64) uint64 {
	for k := 0; k < 8; k++ {
		h = (h ^ x&0xff) * fnvPrime
		x >>= 8
	}
	return h
}

// HasEdge reports whether {u, v} is an edge.
// Test-only: graph, topoparse and dimexchange (isMatching) tests.
func (g *G) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	_, found := slices.BinarySearch(g.Neighbors(u), int32(v))
	return found
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single node are connected by convention. A graph whose family
// constructor recorded a closed-form λ₂ > 0 is connected (λ₂ > 0 exactly
// when it is) and needs no search; any other graph, including a family
// member whose closed-form λ₂ is 0 or rounds to it, is searched once. Like
// Fingerprint, the answer is computed once and is safe for concurrent use.
func (g *G) IsConnected() bool {
	g.connOnce.Do(func() {
		g.connected = g.closed != nil && g.closed.Lambda2 > 0 || g.searchConnected()
	})
	return g.connected
}

// searchConnected decides connectivity by one depth-first search from
// node 0.
func (g *G) searchConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	// Each node is pushed at most once, when first seen: the stack never
	// outgrows n.
	stack := make([]int32, 1, g.n)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Neighbors(int(u)) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// Laplacian returns the n×n Laplacian L = D − A, where D is the diagonal
// degree matrix. L is symmetric positive semidefinite; its second-smallest
// eigenvalue λ₂ (the algebraic connectivity) drives every convergence bound
// in the paper.
func (g *G) Laplacian() *matrix.Dense {
	l := matrix.NewDense(g.n, g.n)
	for i := 0; i < g.n; i++ {
		l.Set(i, i, float64(g.Degree(i)))
		for _, j := range g.Neighbors(i) {
			l.Set(i, int(j), -1)
		}
	}
	return l
}

// Subgraph returns the graph on the same node set containing only the edges
// whose entry in keep is true: keep[k] decides Edges()[k], and its length
// must be M(). Subgraph builds the base's edge list if it has none and
// does not retain keep, so a caller drawing a subgraph every round (the
// dynamic-network generators) fills one mask and reuses it. One pass counts
// the kept degrees; a second places the kept edges, already canonical and
// sorted, straight into the new CSR. No edge list is built for the
// subgraph.
func (g *G) Subgraph(name string, keep []bool) *G {
	edges := g.Edges()
	if len(keep) != len(edges) {
		panic(fmt.Sprintf("graph: Subgraph mask of %d entries for %d edges", len(keep), len(edges)))
	}
	keep = keep[:len(edges)] // lets the compiler drop keep's bounds checks
	off := make([]int, g.n+1)
	m := 0
	for k, e := range edges {
		if keep[k] {
			off[e.U+1]++
			off[e.V+1]++
			m++
		}
	}
	tgt := make([]int32, 2*m)
	startRows(off)
	for k, e := range edges {
		if keep[k] {
			place(off, tgt, int32(e.U), int32(e.V))
		}
	}
	return sealCSR(name, g.n, off, tgt)
}

// String implements fmt.Stringer.
func (g *G) String() string {
	return fmt.Sprintf("%s{n=%d m=%d δ=%d}", g.name, g.n, g.M(), g.MaxDegree())
}
