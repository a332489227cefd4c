// Package hetero implements diffusion load balancing on heterogeneous
// networks after Elsässer, Monien and Preis [9], which the paper's
// related-work section cites as the heterogeneous extension of its model:
// every node i has a speed cᵢ > 0, and the fair ("balanced") state gives
// node i load proportional to its speed, ℓᵢ* = cᵢ·(Σℓ)/(Σc).
//
// The scheme generalizes Algorithm 1 by comparing *normalized* loads
// ℓᵢ/cᵢ: across every edge (i, j) the heavier-per-speed endpoint sends
//
//	w_ij = (ℓᵢ/cᵢ − ℓⱼ/cⱼ) · min(cᵢ, cⱼ) / (4·max(dᵢ, dⱼ))
//
// which reduces exactly to Algorithm 1 when all speeds are 1, conserves
// total load, and strictly decreases the speed-weighted potential
// Φ_c(L) = Σᵢ cᵢ·(ℓᵢ/cᵢ − ω)², ω = Σℓ/Σc.
//
// One type, Stepper[T], runs the scheme over float64 loads and over int64
// tokens. The transfer is always computed in float64 and converted to T,
// which is a no-op for float64 and truncation toward zero for int64; that
// conversion is the only per-type rule.
package hetero

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/load"
)

// Stepper is the heterogeneous diffusion stepper over float64 loads or
// int64 tokens. The token model is the continuous rule with every transfer
// truncated toward zero to whole tokens — the [9]/[11] model of
// indivisible unit-size tokens on heterogeneous nodes. Like the discrete
// Algorithm 1 it cannot reach the exact proportional state; it stalls once
// every edge's fractional transfer is below one token.
type Stepper[T load.Value] struct {
	G      *graph.G
	Speeds []float64

	cur, next []T
}

// New validates the speeds (all > 0 and finite, one per node) and takes
// copies of the speeds and the initial loads or tokens.
func New[T load.Value](g *graph.G, initial []T, speeds []float64) (*Stepper[T], error) {
	if len(initial) != g.N() || len(speeds) != g.N() {
		return nil, fmt.Errorf("hetero: lengths loads=%d speeds=%d for n=%d", len(initial), len(speeds), g.N())
	}
	for i, c := range speeds {
		if !(c > 0) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("hetero: invalid speed %v at node %d", c, i)
		}
	}
	return &Stepper[T]{G: g, Speeds: slices.Clone(speeds), cur: slices.Clone(initial)}, nil
}

// EdgeTransfer returns the signed amount the continuous scheme moves
// across (i, j) for round-start loads li, lj: positive means i sends to j.
func (h *Stepper[T]) EdgeTransfer(i, j int, li, lj float64) float64 {
	ci, cj := h.Speeds[i], h.Speeds[j]
	diff := li/ci - lj/cj
	if diff == 0 {
		return 0
	}
	cmin := ci
	if cj < cmin {
		cmin = cj
	}
	di, dj := h.G.Degree(i), h.G.Degree(j)
	if dj > di {
		di = dj
	}
	return diff * cmin / (4 * float64(di))
}

// transfer is the amount Step moves across (i, j): EdgeTransfer converted
// to T, which is a no-op for float64 and truncation toward zero — whole
// tokens — for int64. Both endpoints compute the same value, so
// conservation is structural.
func (h *Stepper[T]) transfer(i, j int) T {
	return T(h.EdgeTransfer(i, j, float64(h.cur[i]), float64(h.cur[j])))
}

// Step advances one synchronous round. Like Algorithm 1, each node's next
// load is a function of the round-start vector only.
func (h *Stepper[T]) Step() {
	n := h.G.N()
	if h.next == nil {
		h.next = make([]T, n)
	}
	for i := 0; i < n; i++ {
		acc := h.cur[i]
		for _, j := range h.G.Neighbors(i) {
			acc -= h.transfer(i, int(j))
		}
		h.next[i] = acc
	}
	copy(h.cur, h.next)
}

// Values returns the live loads or tokens (not a copy).
func (h *Stepper[T]) Values() []T { return h.cur }

// Omega returns the fair per-speed share ω = Σℓ/Σc.
func (h *Stepper[T]) Omega() float64 {
	var sumC float64
	for _, c := range h.Speeds {
		sumC += c
	}
	return float64(load.Sum(h.cur)) / sumC
}

// Potential returns the speed-weighted potential Φ_c = Σ cᵢ(ℓᵢ/cᵢ − ω)².
func (h *Stepper[T]) Potential() float64 {
	omega := h.Omega()
	var s float64
	for i, c := range h.Speeds {
		d := float64(h.cur[i])/c - omega
		s += c * d * d
	}
	return s
}

// MaxRelativeDeviation returns maxᵢ |ℓᵢ/cᵢ − ω| / ω (0 when ω = 0) — the
// per-speed analogue of the discrepancy.
func (h *Stepper[T]) MaxRelativeDeviation() float64 {
	omega := h.Omega()
	if omega == 0 {
		return 0
	}
	var m float64
	for i, c := range h.Speeds {
		if d := math.Abs(float64(h.cur[i])/c-omega) / omega; d > m {
			m = d
		}
	}
	return m
}
