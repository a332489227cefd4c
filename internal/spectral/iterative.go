package spectral

import (
	"repro/internal/graph"
	"repro/internal/matrix"
)

// LaplacianApply computes dst ← L·x for the Laplacian of g without
// materializing the dense matrix: (Lx)ᵢ = deg(i)·xᵢ − Σ_{j∼i} xⱼ.
// This is the workhorse of the Lanczos path on large graphs.
func LaplacianApply(g *graph.G, dst, x matrix.Vector) {
	n := g.N()
	if len(dst) != n || len(x) != n {
		panic("spectral: LaplacianApply dimension mismatch")
	}
	off, tgt := g.CSR()
	for i := 0; i < n; i++ {
		row := tgt[off[i]:off[i+1]]
		s := float64(len(row)) * x[i]
		for _, j := range row {
			s -= x[j]
		}
		dst[i] = s
	}
}
