// Package workload generates initial load distributions for the
// experiments. The diffusion literature evaluates convergence from a small
// set of canonical starting points — a single overloaded node (spike),
// uniformly random loads, adversarial arrangements for specific topologies —
// and every generator here is deterministic given its *rand.Rand, so
// experiment rows are reproducible from a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Kind enumerates the built-in initial distributions.
type Kind int

const (
	// Spike places the entire load on node 0: the worst case for the
	// discrepancy measure and the canonical "token distribution" start.
	Spike Kind = iota
	// Uniform draws each node's load i.i.d. uniform in [0, scale).
	Uniform
	// Bimodal gives half the nodes 0 and half 2·scale/… so the average is
	// scale/2 — a balanced two-cluster start.
	Bimodal
	// Exponential draws i.i.d. Exp(1)·scale loads (heavy-ish tail).
	Exponential
	// PowerLaw draws Pareto(α=1.5) loads capped at 10⁶·scale: a realistic
	// skewed job-size distribution.
	PowerLaw
	// LinearRamp sets ℓᵢ = i·scale/n: the paper's line-graph example in
	// which no neighbouring pair of a path wants to exchange a token.
	LinearRamp
	// Flat sets every node to scale (already balanced; Φ = 0).
	Flat

	// kindCount counts the kinds above. A new Kind constant must be
	// inserted before it (and given a kinds entry), or the registry
	// round-trip test — shared with internal/scenario's — fails: an
	// unregistered generator should fail in tests, not at sweep time.
	kindCount
)

// kinds is Kind's name table, indexed by Kind: the String name, which
// ParseKind accepts, and the one-line -list description.
var kinds = [kindCount][2]string{
	Spike:       {"spike", "entire load on node 0 (the canonical hard start)"},
	Uniform:     {"uniform", "i.i.d. uniform loads in [0, scale)"},
	Bimodal:     {"bimodal", "half the nodes loaded, half empty"},
	Exponential: {"exponential", "i.i.d. Exp(1)·scale loads (heavy-ish tail)"},
	PowerLaw:    {"powerlaw", "Pareto(α=1.5) loads, capped (skewed job sizes)"},
	LinearRamp:  {"ramp", "linear ramp ℓᵢ = i·scale/n (the paper's path example)"},
	Flat:        {"flat", "every node at scale (already balanced, Φ = 0)"},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && k < kindCount {
		return kinds[k][0]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds lists every generator, in the order the harness sweeps them. It
// is derived from the kindCount sentinel, so it cannot drift out of sync
// with the const block.
func AllKinds() []Kind {
	out := make([]Kind, kindCount)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Descriptions returns each kind's name and a one-line description, in
// sweep order — the -list surface.
func Descriptions() [][2]string { return slices.Clone(kinds[:]) }

// ParseKind converts a CLI name (as produced by Kind.String) into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, d := range kinds {
		if d[0] == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown kind %q", s)
}

// Continuous generates an n-node continuous load vector of the given kind.
// scale sets the magnitude (for Spike it is the total load; for the i.i.d.
// kinds the per-node scale). rng may be nil for the deterministic kinds.
func Continuous(kind Kind, n int, scale float64, rng *rand.Rand) []float64 {
	if n < 0 {
		panic("workload: negative n")
	}
	out := make([]float64, n)
	switch kind {
	case Spike:
		if n > 0 {
			out[0] = scale
		}
	case Uniform:
		for i := range out {
			out[i] = rng.Float64() * scale
		}
	case Bimodal:
		for i := range out {
			if i%2 == 0 {
				out[i] = scale
			}
		}
	case Exponential:
		for i := range out {
			out[i] = rng.ExpFloat64() * scale
		}
	case PowerLaw:
		for i := range out {
			// Pareto with α = 1.5, x_min = 1, capped to keep Φ finite-ish.
			u := rng.Float64()
			v := scale * math.Pow(1-u, -1/1.5)
			if max := scale * 1e6; v > max {
				v = max
			}
			out[i] = v
		}
	case LinearRamp:
		for i := range out {
			out[i] = float64(i) * scale / float64(max(n, 1))
		}
	case Flat:
		for i := range out {
			out[i] = scale
		}
	default:
		panic(fmt.Sprintf("workload: unknown kind %v", kind))
	}
	return out
}

// Discrete generates an n-node integer token vector of the given kind with
// approximately `total` tokens in aggregate (exact for Spike and Flat).
func Discrete(kind Kind, n int, total int64, rng *rand.Rand) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	switch kind {
	case Spike:
		out[0] = total
	case Uniform:
		per := 2 * total / int64(n)
		var assigned int64
		for i := range out {
			out[i] = rng.Int63n(per + 1)
			assigned += out[i]
		}
		rebalanceTotal(out, total-assigned, rng)
	case Bimodal:
		per := 2 * total / int64(n)
		var assigned int64
		for i := range out {
			if i%2 == 0 {
				out[i] = per
				assigned += per
			}
		}
		rebalanceTotal(out, total-assigned, rng)
	case Exponential:
		mean := float64(total) / float64(n)
		var assigned int64
		for i := range out {
			out[i] = int64(rng.ExpFloat64() * mean)
			assigned += out[i]
		}
		rebalanceTotal(out, total-assigned, rng)
	case PowerLaw:
		mean := float64(total) / float64(n)
		var assigned int64
		for i := range out {
			u := rng.Float64()
			v := int64(mean * math.Pow(1-u, -1/1.5) / 3)
			if v > total {
				v = total
			}
			out[i] = v
			assigned += v
		}
		rebalanceTotal(out, total-assigned, rng)
	case LinearRamp:
		// ℓᵢ ∝ i, scaled so the sum is close to total; remainder to node 0.
		sumIdx := int64(n) * int64(n-1) / 2
		var assigned int64
		for i := range out {
			if sumIdx > 0 {
				out[i] = total * int64(i) / sumIdx
			}
			assigned += out[i]
		}
		rebalanceTotal(out, total-assigned, rng)
	case Flat:
		per := total / int64(n)
		var assigned int64
		for i := range out {
			out[i] = per
			assigned += per
		}
		rebalanceTotal(out, total-assigned, rng)
	default:
		panic(fmt.Sprintf("workload: unknown kind %v", kind))
	}
	return out
}

// rebalanceTotal distributes a (possibly negative) token delta across the
// vector so the exact total is preserved, never driving a node negative.
func rebalanceTotal(v []int64, delta int64, rng *rand.Rand) {
	n := len(v)
	if n == 0 {
		return
	}
	for delta > 0 {
		i := 0
		if rng != nil {
			i = rng.Intn(n)
		}
		v[i]++
		delta--
	}
	for delta < 0 {
		start := 0
		if rng != nil {
			start = rng.Intn(n)
		}
		moved := false
		for k := 0; k < n; k++ {
			i := (start + k) % n
			if v[i] > 0 {
				v[i]--
				delta++
				moved = true
				break
			}
		}
		if !moved {
			return // nothing left to remove; vector is all zeros
		}
	}
}
