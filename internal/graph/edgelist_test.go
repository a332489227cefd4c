package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/topoparse"
)

// pinnedGraphs are the graphs TestEdgesPinned covers, by key: every
// topoparse topology at n = 64 and 512 (seed 1), a Builder fed duplicate and
// reversed edges, and Subgraph outputs (no edges, one node cut off, a churn
// draw).
func pinnedGraphs(t *testing.T) map[string]*graph.G {
	out := map[string]*graph.G{}
	for _, n := range []int{64, 512} {
		for _, name := range topoparse.Names() {
			g, err := topoparse.Build(name, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/%d", name, n)] = g
		}
	}
	b := graph.NewBuilder("dups", 7)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 5}, {5, 2}, {2, 5}, {6, 3}, {3, 4}, {0, 5}, {4, 3}, {1, 2}, {6, 0}} {
		b.AddEdge(e[0], e[1])
	}
	out["builder/dups"] = b.MustFinish()
	rr, err := topoparse.Build("random-regular", 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	coin := rand.New(rand.NewSource(7))
	h6, t88 := graph.Hypercube(6), graph.Torus(8, 8)
	for _, s := range []*graph.G{
		h6.Subgraph("hypercube-none", make([]bool, h6.M())),
		t88.Subgraph("torus-drop0", graph.KeepIf(t88, func(e graph.Edge) bool { return e.U != 0 })),
		rr.Subgraph("rr-churn", graph.KeepIf(rr, func(graph.Edge) bool { return coin.Float64() >= 0.1 })),
	} {
		out["subgraph/"+s.Name()] = s
	}
	return out
}

// TestEdgesPinned: the edge list a graph builds from its CSR on demand is
// canonical, sorted and duplicate-free, M() counts it, and Fingerprint —
// which hashes the CSR without building the list — still gives the values
// recorded when every graph kept its list resident. speccache names its disk
// spill files by fingerprint (spec-%016x.json), so a moved hash would orphan
// every spilled record.
func TestEdgesPinned(t *testing.T) {
	pinned := []struct {
		key string
		m   int
		fp  uint64
	}{
		{"path/64", 63, 0xc05ef3b90d549444},
		{"cycle/64", 64, 0x4a5157ea33607b80},
		{"grid/64", 112, 0xbd1eebf8f03cfba8},
		{"torus/64", 128, 0xda0526b2c3c05411},
		{"torus3d/64", 192, 0x292ae5a7b1bdf590},
		{"hypercube/64", 192, 0x4f9a89dfb1cc9c9d},
		{"debruijn/64", 125, 0xb4597dab48cd75d6},
		{"ccc/64", 96, 0xcb8367325b529cf7},
		{"butterfly/64", 128, 0x71abe639fa799b9b},
		{"complete/64", 2016, 0xcc833110ee5d75b7},
		{"star/64", 63, 0x58eae1887f762dd0},
		{"tree/64", 126, 0xbafc54fa84173636},
		{"random-regular/64", 128, 0x4f940ffbec902b22},
		{"petersen/64", 15, 0x4eeba93146159ac6},
		{"barbell/64", 993, 0x88d4d78b10d0f19c},
		{"lollipop/64", 883, 0x6f0b44913c2ae7a8},
		{"smallworld/64", 128, 0x57cd56b0537d5331},
		{"rgg/64", 447, 0x444ceea322607b5d},
		{"path/512", 511, 0x2418ad517c435d7f},
		{"cycle/512", 512, 0x58a91365cfa22cc2},
		{"grid/512", 1012, 0xcb9fce321d8b5795},
		{"torus/512", 1058, 0x058699395c98f000},
		{"torus3d/512", 1536, 0x1ea17a0822319332},
		{"hypercube/512", 2304, 0x6ce530510b77b7e4},
		{"debruijn/512", 1021, 0xf11fbbf592a09988},
		{"ccc/512", 1344, 0x9d0ddcd97ce737cd},
		{"butterfly/512", 1792, 0x9dfe772c82866291},
		{"complete/512", 130816, 0xfa64e7ea616844b7},
		{"star/512", 511, 0xe9219d900117a516},
		{"tree/512", 1022, 0x89b8a24f8bd3e766},
		{"random-regular/512", 1024, 0xe4340b5d19542c50},
		{"petersen/512", 15, 0x4eeba93146159ac6},
		{"barbell/512", 65281, 0x3bc0c9a9f8d42e17},
		{"lollipop/512", 58141, 0x2a36d4963f05576f},
		{"smallworld/512", 1024, 0xd9af064f253dd32c},
		{"rgg/512", 5751, 0xa03e97f29f57905a},
		{"builder/dups", 7, 0x3329d80c31cc883c},
		{"subgraph/hypercube-none", 0, 0xaa5c08cbfb20b13d},
		{"subgraph/torus-drop0", 124, 0xa34f04899b20296a},
		{"subgraph/rr-churn", 924, 0x659fca05cd0f869f},
	}
	graphs := pinnedGraphs(t)
	if len(graphs) != len(pinned) {
		t.Fatalf("%d graphs, %d pins", len(graphs), len(pinned))
	}
	for _, p := range pinned {
		g := graphs[p.key]
		if g == nil {
			t.Fatalf("%s: no such graph", p.key)
		}
		if fp := g.Fingerprint(); fp != p.fp {
			t.Errorf("%s: fingerprint %#016x, pinned %#016x", p.key, fp, p.fp)
		}
		if graph.EdgeListBuilt(g) {
			t.Errorf("%s: Fingerprint built the edge list", p.key)
		}
		edges := g.Edges()
		if g.M() != p.m || len(edges) != p.m {
			t.Errorf("%s: M() = %d, len(Edges()) = %d, pinned %d", p.key, g.M(), len(edges), p.m)
		}
		for k, e := range edges {
			if e.U < 0 || e.U >= e.V || e.V >= g.N() {
				t.Fatalf("%s: edge %d = %v is not canonical", p.key, k, e)
			}
			if k > 0 {
				if prev := edges[k-1]; prev.U > e.U || prev.U == e.U && prev.V >= e.V {
					t.Fatalf("%s: edges %d and %d (%v, %v) are not strictly ascending", p.key, k-1, k, prev, e)
				}
			}
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("%s: edge %v is not in the CSR", p.key, e)
			}
		}
		if !graph.EdgeListBuilt(g) || len(edges) > 0 && &g.Edges()[0] != &edges[0] {
			t.Errorf("%s: a second Edges call did not return the kept list", p.key)
		}
	}
}

// TestCellsBuildNoEdgeList: a static hypercube cell run through
// core.Balance, continuous and discrete, never builds the graph's edge
// list, and neither does any subgraph a churn cell draws and runs. (The
// churn base does hold its list: every draw reads it.)
func TestCellsBuildNoEdgeList(t *testing.T) {
	for _, mode := range []core.Mode{core.Continuous, core.Discrete} {
		g, err := topoparse.Build("hypercube", 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Balance(core.Config{
			Graph: g, Algorithm: core.Diffusion, Mode: mode,
			Loads: core.SpikeLoads(g.N(), 1e6), Epsilon: 1e-6, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds == 0 {
			t.Fatalf("%v cell ran no rounds", mode)
		}
		if graph.EdgeListBuilt(g) {
			t.Errorf("%v static hypercube cell built the edge list of %v", mode, g)
		}
	}

	base, err := topoparse.Build("random-regular", 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse("edge-churn:0.1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{
		Graph: base, Algorithm: core.Diffusion, Mode: core.Discrete,
		Loads: core.SpikeLoads(base.N(), 1e6), Scenario: sc, ScenarioSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.New(base, 1e6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var drawn []*graph.G
	for k := 0; k < 64; k++ {
		g := inst.Graph(k)
		if g != base {
			drawn = append(drawn, g)
		}
		if err := s.SwapGraph(g); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if len(drawn) == 0 {
		t.Fatal("the churn scenario drew no subgraph")
	}
	for _, g := range drawn {
		if graph.EdgeListBuilt(g) {
			t.Fatalf("churn cell built the edge list of its drawn subgraph %v", g)
		}
	}
}
