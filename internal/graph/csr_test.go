package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCSRLayoutContract verifies every clause of the CSR accessor's
// documented contract on a spread of topologies, including the one the
// steppers' bit-identity depends on: each CSR row replays Neighbors(i)
// element-for-element, in the same order.
func TestCSRLayoutContract(t *testing.T) {
	cases := []*G{
		Path(2),
		Cycle(9),
		Torus(5, 7),
		Hypercube(6),
		DeBruijn(6),
		Complete(12),
		Star(15),
		RandomRegular(40, 4, rand.New(rand.NewSource(3))),
		ErdosRenyi(30, 0.2, rand.New(rand.NewSource(5))), // irregular degrees
	}
	for _, g := range cases {
		off, tgt := g.CSR()
		if len(off) != g.N()+1 {
			t.Fatalf("%s: len(offsets) = %d, want N()+1 = %d", g.Name(), len(off), g.N()+1)
		}
		if off[0] != 0 || int(off[g.N()]) != 2*g.M() {
			t.Fatalf("%s: offsets span [%d, %d], want [0, %d]", g.Name(), off[0], off[g.N()], 2*g.M())
		}
		if len(tgt) != 2*g.M() {
			t.Fatalf("%s: len(targets) = %d, want 2·M() = %d", g.Name(), len(tgt), 2*g.M())
		}
		for i := 0; i < g.N(); i++ {
			row := tgt[off[i]:off[i+1]]
			nbrs := g.Neighbors(i)
			if len(row) != len(nbrs) || len(row) != g.Degree(i) {
				t.Fatalf("%s: node %d row length %d, Neighbors %d, Degree %d", g.Name(), i, len(row), len(nbrs), g.Degree(i))
			}
			for k, v := range row {
				if v != nbrs[k] {
					t.Fatalf("%s: node %d position %d: CSR %d, Neighbors %d", g.Name(), i, k, v, nbrs[k])
				}
				if k > 0 && row[k-1] >= v {
					t.Fatalf("%s: node %d row not strictly ascending at position %d", g.Name(), i, k)
				}
			}
			if len(row) > 0 && &row[0] != &nbrs[0] {
				t.Fatalf("%s: node %d Neighbors does not alias the CSR targets backing", g.Name(), i)
			}
		}
	}
}

// TestCSRSingletonAndEdgeless covers the degenerate shapes: isolated nodes
// get empty rows, not missing ones.
func TestCSRSingletonAndEdgeless(t *testing.T) {
	b := NewBuilder("edgeless", 4)
	g := b.MustFinish()
	off, tgt := g.CSR()
	if len(off) != 5 || len(tgt) != 0 {
		t.Fatalf("edgeless: offsets %v, targets len %d", off, len(tgt))
	}
	for i := 0; i < 4; i++ {
		if off[i] != 0 {
			t.Fatalf("edgeless: offset[%d] = %d, want 0", i, off[i])
		}
	}
}

// TestSubgraphMatchesBuilder: Subgraph cuts the kept edges straight from
// the base's sorted edge list, and must build the same graph a Builder
// does from those edges: edge list, both CSR arrays, degrees, regularity
// and fingerprint. Every Neighbors row is capped at its length.
func TestSubgraphMatchesBuilder(t *testing.T) {
	bases := []*G{
		Hypercube(5),
		Torus(6, 7),
		RandomRegular(50, 3, rand.New(rand.NewSource(11))),
		Star(17),
		DeBruijn(5),
	}
	rules := []struct {
		name string
		keep func() func(Edge) bool
	}{
		{"all", func() func(Edge) bool { return func(Edge) bool { return true } }},
		{"none", func() func(Edge) bool { return func(Edge) bool { return false } }},
		{"coin", func() func(Edge) bool {
			rng := rand.New(rand.NewSource(5))
			return func(Edge) bool { return rng.Float64() < 0.5 }
		}},
		{"drop-node-0", func() func(Edge) bool { return func(e Edge) bool { return e.U != 0 } }},
	}
	for _, base := range bases {
		for _, r := range rules {
			name := base.Name() + "/" + r.name
			sub := base.Subgraph(name, KeepIf(base, r.keep()))
			keep := r.keep()
			b := NewBuilder(name, base.N())
			for _, e := range base.Edges() {
				if keep(e) {
					b.AddEdge(e.U, e.V)
				}
			}
			want := b.MustFinish()

			if !slices.Equal(sub.Edges(), want.Edges()) {
				t.Fatalf("%s: edges differ from the Builder's", name)
			}
			subOff, subTgt := sub.CSR()
			wantOff, wantTgt := want.CSR()
			if !slices.Equal(subOff, wantOff) || !slices.Equal(subTgt, wantTgt) {
				t.Fatalf("%s: CSR differs from the Builder's", name)
			}
			for i := 0; i < sub.N(); i++ {
				if sub.Degree(i) != want.Degree(i) {
					t.Fatalf("%s: node %d degree %d, Builder %d", name, i, sub.Degree(i), want.Degree(i))
				}
				if nb := sub.Neighbors(i); cap(nb) != len(nb) {
					t.Fatalf("%s: node %d Neighbors len %d cap %d", name, i, len(nb), cap(nb))
				}
			}
			if sub.MaxDegree() != want.MaxDegree() || sub.IsRegular() != want.IsRegular() {
				t.Fatalf("%s: δ %d regular %v, Builder δ %d regular %v", name,
					sub.MaxDegree(), sub.IsRegular(), want.MaxDegree(), want.IsRegular())
			}
			if sub.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s: fingerprint differs from the Builder's", name)
			}
		}
	}
}
