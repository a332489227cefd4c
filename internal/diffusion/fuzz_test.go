package diffusion

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
)

// FuzzEdgeWeightInvariants fuzzes the Algorithm 1 transfer rule: the
// weight is symmetric in its load arguments, nonnegative, and never
// exceeds a quarter of the load difference (the laziness that makes
// Lemma 1 work).
func FuzzEdgeWeightInvariants(f *testing.F) {
	f.Add(10.0, 2.0)
	f.Add(0.0, 0.0)
	f.Add(1e9, -1e9)
	f.Fuzz(func(t *testing.T, li, lj float64) {
		if math.IsNaN(li) || math.IsNaN(lj) || math.Abs(li) > 1e15 || math.Abs(lj) > 1e15 {
			t.Skip()
		}
		g := graph.Star(6) // degrees 5 and 1: max(dᵢ,dⱼ) = 5 on every edge
		w := EdgeWeight(g, 0, 1, li, lj)
		if w != EdgeWeight(g, 0, 1, lj, li) {
			t.Fatal("weight must be symmetric in loads")
		}
		if w < 0 {
			t.Fatalf("negative weight %v", w)
		}
		if diff := math.Abs(li - lj); w > diff/4+1e-12*diff {
			t.Fatalf("weight %v exceeds diff/4 = %v", w, diff/4)
		}
	})
}

// FuzzDiscreteRoundConserves fuzzes token conservation of one discrete
// Algorithm 1 round on a fixed small torus with arbitrary token placement.
func FuzzDiscreteRoundConserves(f *testing.F) {
	f.Add(int64(1000), int64(0), int64(7), int64(500))
	f.Add(int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(1)<<40, int64(3), int64(9), int64(1)<<39)
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		for _, v := range []int64{a, b, c, d} {
			if v < 0 || v > int64(1)<<45 {
				t.Skip()
			}
		}
		g := graph.Torus(3, 3)
		tokens := []int64{a, b, c, d, a % 97, b % 89, c % 83, d % 79, (a + b) % 71}
		st := New(g, tokens)
		var before int64
		for _, v := range tokens {
			before += v
		}
		for k := 0; k < 5; k++ {
			st.Step()
		}
		if load.Sum(st.Values()) != before {
			t.Fatalf("tokens not conserved: %d → %d", before, load.Sum(st.Values()))
		}
		for node, v := range st.Values() {
			if v < 0 {
				t.Fatalf("node %d negative: %d", node, v)
			}
		}
	})
}

// FuzzRoundMatchesReference fuzzes one branch-free Algorithm 1 round
// against the abs-and-branch oracle on Star(6), which takes Step's general
// body, and on Torus(3,3) and the Petersen graph, which take its regular
// body: 4δ = 16 on the torus is a power of two, so only the Petersen
// graph's 4δ = 12 makes the regular body divide by a constant that rounds.
// Each 8-byte word of the input is one node's state, read as float64 bits
// for the continuous round and as an int64 token count for the discrete
// one (missing words are zero). Load vectors holding a NaN skip the
// continuous check: the two forms may disagree on a NaN's sign bit, and no
// stepper is ever given a NaN load.
func FuzzRoundMatchesReference(f *testing.F) {
	words := func(ws ...uint64) []byte {
		b := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	f.Add(words(math.Float64bits(1e6)))                              // spike over zeros
	f.Add(words(math.Float64bits(math.Copysign(0, -1)), 0, 0, 0, 0)) // −0 among +0
	f.Add(words(math.Float64bits(3.5), math.Float64bits(-2.25), math.Float64bits(1e-310),
		math.Float64bits(math.Inf(1)), math.Float64bits(7), math.Float64bits(7), 1, 1<<63, 42))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range []*graph.G{graph.Star(6), graph.Torus(3, 3), graph.Petersen()} {
			loads, tokens := make([]float64, g.N()), make([]int64, g.N())
			hasNaN := false
			for i := range loads {
				var w uint64
				if len(data) >= 8*(i+1) {
					w = binary.LittleEndian.Uint64(data[8*i:])
				}
				loads[i], tokens[i] = math.Float64frombits(w), int64(w)
				hasNaN = hasNaN || math.IsNaN(loads[i])
			}
			var c *Stepper[float64]
			if !hasNaN {
				c = New(g, loads)
				c.Step()
			}
			d := New(g, tokens)
			d.Step()
			checkRoundMatchesReference(t, 1, c, refContinuousRound(g, loads), d, refDiscreteRound(g, tokens))
		}
	})
}
