package diffusion

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/spectral"
)

// OPS is the Optimal Polynomial Scheme of Diekmann, Frommer and Monien [7],
// the strongest comparator the paper's related-work section cites: using
// the m distinct nonzero Laplacian eigenvalues λ₂ < … < λ_m of the
// topology, round k applies
//
//	Lᵏ = (I − L/λ_{k+1})·Lᵏ⁻¹,
//
// so after exactly m rounds the accumulated polynomial ∏ᵢ(1 − λ/λᵢ)
// annihilates every non-stationary eigencomponent and the load is perfectly
// balanced — finite termination, at the price of global spectral knowledge
// and intermediate states that may overshoot (individual loads can go
// negative mid-run; OPS computes a balancing *flow*, not a process a
// token-based system could execute directly).
type OPS struct {
	G *graph.G

	eigs      []float64 // distinct nonzero Laplacian eigenvalues, ascending
	k         int
	cur, next []float64
}

// NewOPS computes the spectrum of g (dense solve — OPS is only meaningful
// when the full spectrum is available) and prepares the scheme.
func NewOPS(g *graph.G, initial []float64) (*OPS, error) {
	if len(initial) != g.N() {
		return nil, fmt.Errorf("diffusion: OPS initial load length %d for n=%d", len(initial), g.N())
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("diffusion: OPS requires a connected graph")
	}
	vals, err := spectral.LaplacianSpectrum(g)
	if err != nil {
		return nil, fmt.Errorf("diffusion: OPS spectrum: %w", err)
	}
	distinct := distinctNonzero(vals)
	if len(distinct) == 0 {
		return nil, fmt.Errorf("diffusion: OPS found no nonzero eigenvalues (n=%d)", g.N())
	}
	return &OPS{G: g, eigs: stabilizedOrder(distinct), cur: slices.Clone(initial)}, nil
}

// stabilizedOrder picks the order in which the factors (I − L/λᵢ) are
// applied. The end result is order-independent in exact arithmetic, but the
// intermediate partial products are not: applying the factors in ascending
// eigenvalue order lets components near λ_max grow by |1 − λ_max/λ₂| per
// step (≈1600 on path(64)), which destroys the final cancellation in
// floating point. The greedy Leja-style rule below chooses, at each step,
// the factor minimizing the worst partial-product magnitude over the whole
// spectrum, which keeps intermediate growth near the minimum attainable.
func stabilizedOrder(eigs []float64) []float64 {
	m := len(eigs)
	if m <= 2 {
		return eigs
	}
	// prod[j] tracks the current partial product evaluated at spectrum
	// point eigs[j].
	prod := make([]float64, m)
	for j := range prod {
		prod[j] = 1
	}
	used := make([]bool, m)
	order := make([]float64, 0, m)
	for step := 0; step < m; step++ {
		best, bestMax := -1, math.Inf(1)
		for c := 0; c < m; c++ {
			if used[c] {
				continue
			}
			worst := 0.0
			for j := 0; j < m; j++ {
				if used[j] && j != c {
					continue // component already annihilated
				}
				v := math.Abs(prod[j] * (1 - eigs[j]/eigs[c]))
				if v > worst {
					worst = v
				}
			}
			if worst < bestMax {
				bestMax, best = worst, c
			}
		}
		used[best] = true
		order = append(order, eigs[best])
		for j := 0; j < m; j++ {
			prod[j] *= 1 - eigs[j]/eigs[best]
		}
	}
	return order
}

// Rounds returns the number of rounds OPS needs for exact balance: the
// count m of distinct nonzero Laplacian eigenvalues.
func (o *OPS) Rounds() int { return len(o.eigs) }

// Done reports whether all m rounds have been applied.
func (o *OPS) Done() bool { return o.k >= len(o.eigs) }

// Step applies round k's factor (I − L/λ_{k+1}). Further steps after Done
// are no-ops (the balanced vector is a fixed point of every factor).
func (o *OPS) Step() {
	if o.Done() {
		return
	}
	lam := o.eigs[o.k]
	o.k++
	cur := o.cur
	n := o.G.N()
	if o.next == nil {
		o.next = make([]float64, n)
	}
	// next = cur − (1/λ)·L·cur, applied sparsely over the CSR rows.
	off, tgt := o.G.CSR()
	for i := 0; i < n; i++ {
		row := tgt[off[i]:off[i+1]]
		s := float64(len(row)) * cur[i]
		for _, j := range row {
			s -= cur[j]
		}
		o.next[i] = cur[i] - s/lam
	}
	copy(cur, o.next)
}

// Potential returns Φ of the current distribution.
func (o *OPS) Potential() float64 { return load.Potential(o.cur) }

// Values returns the live load vector.
func (o *OPS) Values() []float64 { return o.cur }

// distinctNonzero clusters an ascending eigenvalue list, dropping the zero
// eigenvalue(s) and merging values within a relative tolerance — numeric
// eigensolves split analytically-equal eigenvalues by rounding, and OPS
// must count them once (its finite-termination property depends on it).
func distinctNonzero(vals []float64) []float64 {
	const relTol = 1e-8
	var out []float64
	scale := vals[len(vals)-1]
	if scale <= 0 {
		return nil
	}
	for _, v := range vals {
		if v <= relTol*scale {
			continue // zero eigenvalue (Laplacian kernel)
		}
		if len(out) > 0 && math.Abs(v-out[len(out)-1]) <= relTol*scale {
			continue
		}
		out = append(out, v)
	}
	return out
}
