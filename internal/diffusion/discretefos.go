package diffusion

import "repro/internal/graph"

// MGSResidualShape returns the residual-potential shape of [15]'s
// Theorem 4 for comparison tables: δ²·n²/ε² with ε = 1 (the constant the
// paper's §3 remark contrasts against its own 64δ³n/λ₂).
func MGSResidualShape(g *graph.G) float64 {
	d := float64(g.MaxDegree())
	n := float64(g.N())
	return d * d * n * n
}
