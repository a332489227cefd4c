// Package randpair implements Algorithm 2 of the paper (§6): load balancing
// with randomly chosen balancing partners.
//
// In every round, each node independently picks a partner uniformly at
// random from all n nodes, creating the link multigraph E; then, for every
// link (i, j) with ℓᵢ > ℓⱼ, node i sends (ℓᵢ−ℓⱼ)/(4·max(dᵢ,dⱼ)) (continuous)
// or its floor (discrete), where dᵢ is the number of links incident to i in
// this round's E. The same node can be chosen by many peers, so transfers
// are genuinely concurrent — the situation the paper's proof technique is
// built for.
//
// Both models run on one type, Stepper[T], generic over float64 loads and
// int64 tokens. The only per-type rule is the division in the transfer:
// float division for float64, integer division (the floor of the
// magnitude) for int64.
//
// The analysis quantities are exposed so the experiments can check them
// directly: partner-degree statistics for Lemma 9, the per-round expected
// drop factors 19/20 (Lemma 11) and 39/40 (Lemma 13), and the discrete
// threshold 3200·n (Theorem 14).
package randpair

import (
	"math/rand"
	"slices"

	"repro/internal/load"
	"repro/internal/parallel"
)

// Link is one balancing link of a round; unlike graph.Edge it is not
// canonicalized because (i→j) records who picked whom, and duplicates may
// occur (i picks j while j picks i — two links in the multiset E).
type Link struct {
	From, To int
}

// RoundLinks draws the round's link multiset: node i picks a uniformly
// random partner (possibly itself; self-picks are dropped, matching the
// "choose from all other nodes" reading with negligible distributional
// difference for large n — a self-link would transfer nothing anyway).
func RoundLinks(n int, rng *rand.Rand) []Link {
	return appendRoundLinks(nil, n, rng)
}

// appendRoundLinks is RoundLinks into a reusable buffer. The rng.Intn draw
// sequence is identical regardless of the buffer, so stepper rounds that
// recycle their link scratch replay the exact trajectories of the
// allocate-per-round form.
func appendRoundLinks(links []Link, n int, rng *rand.Rand) []Link {
	links = links[:0]
	for i := 0; i < n; i++ {
		j := rng.Intn(n)
		if j == i {
			continue
		}
		links = append(links, Link{From: i, To: j})
	}
	return links
}

// Degrees returns d(i) — the number of links incident to node i — for the
// given link multiset.
func Degrees(n int, links []Link) []int {
	return fillDegrees(nil, n, links)
}

// fillDegrees is Degrees into a reusable buffer.
func fillDegrees(d []int, n int, links []Link) []int {
	if cap(d) < n {
		d = make([]int, n)
	}
	d = d[:n]
	for i := range d {
		d[i] = 0
	}
	for _, l := range links {
		d[l.From]++
		d[l.To]++
	}
	return d
}

// DiscreteThreshold is the Φ threshold 3200·n of Lemma 13/Theorem 14 below
// which the discrete analysis stops guaranteeing expected progress.
func DiscreteThreshold(n int) float64 { return 3200 * float64(n) }

// ContinuousDropBound is the Lemma 11 per-round expected contraction
// factor: E[Φᵗ⁺¹] ≤ (19/20)·Φᵗ.
const ContinuousDropBound = 19.0 / 20.0

// DiscreteDropBound is the Lemma 13 per-round expected contraction factor
// above the threshold: E[Φᵗ⁺¹] ≤ (39/40)·Φᵗ.
const DiscreteDropBound = 39.0 / 40.0

// Stepper is the Algorithm 2 stepper over float64 loads (the continuous
// model) or int64 tokens (the discrete model).
type Stepper[T load.Value] struct {
	RNG *rand.Rand
	// Workers > 1 fans the transfer application over goroutines. Every
	// transfer is computed from the round-start vector, and each node
	// accumulates its incident transfers in global link order — the exact
	// operation chain of the serial loop — so results are bit-identical
	// for any value.
	Workers int

	// LastLinks / LastDegrees expose the most recent round's structure for
	// the Lemma 9 experiments.
	LastLinks   []Link
	LastDegrees []int

	loads []T
	inc   incidence[T]
	start []T
}

// New creates a stepper over a copy of the initial loads or tokens.
func New[T load.Value](initial []T, rng *rand.Rand) *Stepper[T] {
	return &Stepper[T]{RNG: rng, loads: slices.Clone(initial)}
}

// incidence is the reusable CSR scratch of a round's link multiset: for
// node i, ent[off[i]:off[i+1]] holds the signed transfer amounts of i's
// incident links, in global link order. Per-node accumulation over it
// replays each node's serial mutation chain exactly (x − w ≡ x + (−w) in
// IEEE arithmetic), which is what makes the parallel path bit-identical.
type incidence[T load.Value] struct {
	off    []int
	cursor []int
	ent    []T
}

// build fills the structure from the round's effective links (those
// between unequal round-start loads); each link's transfer lands on both
// endpoints with opposite signs.
func (inc *incidence[T]) build(n int, links []Link, start []T, deg []int) {
	if cap(inc.off) < n+1 {
		inc.off = make([]int, n+1)
		inc.cursor = make([]int, n)
	}
	inc.off = inc.off[:n+1]
	inc.cursor = inc.cursor[:n]
	for i := range inc.cursor {
		inc.cursor[i] = 0
	}
	for _, lk := range links {
		if d := maxDeg(deg, lk); d != 0 && start[lk.From] != start[lk.To] {
			inc.cursor[lk.From]++
			inc.cursor[lk.To]++
		}
	}
	total := 0
	for i := 0; i < n; i++ {
		inc.off[i] = total
		total += inc.cursor[i]
		inc.cursor[i] = inc.off[i]
	}
	inc.off[n] = total
	if cap(inc.ent) < total {
		inc.ent = make([]T, total)
	}
	inc.ent = inc.ent[:total]
	for _, lk := range links {
		i, j := lk.From, lk.To
		d := maxDeg(deg, lk)
		if d == 0 || start[i] == start[j] {
			continue
		}
		w := (start[i] - start[j]) / T(4*d) // as in Step's serial loop
		inc.ent[inc.cursor[i]] = -w
		inc.cursor[i]++
		inc.ent[inc.cursor[j]] = w
		inc.cursor[j]++
	}
}

// maxDeg is max(d(From), d(To)) for a link.
func maxDeg(deg []int, lk Link) int {
	d := deg[lk.From]
	if deg[lk.To] > d {
		d = deg[lk.To]
	}
	return d
}

// Step performs one round: draw links, then apply all transfers computed
// from the round-start loads concurrently — (ℓᵢ−ℓⱼ)/(4·max(dᵢ,dⱼ)) in the
// continuous model, its floor in tokens in the discrete one.
func (s *Stepper[T]) Step() {
	n := len(s.loads)
	// Round scratch (links, degrees, the round-start snapshot) is recycled
	// across rounds; at n = 2²⁰ the per-round garbage would otherwise
	// dominate the actual balancing arithmetic.
	s.LastLinks = appendRoundLinks(s.LastLinks, n, s.RNG)
	links := s.LastLinks
	s.LastDegrees = fillDegrees(s.LastDegrees, n, links)
	deg := s.LastDegrees
	v := s.loads
	if cap(s.start) < n {
		s.start = make([]T, n)
	}
	start := s.start[:n]
	copy(start, v)
	workers := parallel.StepperWorkers(s.Workers)
	if workers == 1 {
		for _, lk := range links {
			i, j := lk.From, lk.To
			d := maxDeg(deg, lk)
			if d == 0 {
				continue
			}
			diff := start[i] - start[j]
			if diff == 0 {
				continue
			}
			// The transfer, signed from i's side, is the only per-type
			// rule: float division for float64, integer division for
			// int64 (truncation toward zero floors the magnitude). Both
			// are sign-symmetric — (−x)/D = −(x/D), exactly — so i
			// subtracting w and j adding it is bit-identical to "the
			// heavier endpoint sends |diff|/D", with no abs and no sign
			// branch: a − w ≡ a + (−w).
			w := diff / T(4*d)
			v[i] -= w
			v[j] += w
		}
		return
	}
	s.inc.build(n, links, start, deg)
	inc := &s.inc
	parallel.For(n, workers, func(i int) {
		acc := start[i]
		for k := inc.off[i]; k < inc.off[i+1]; k++ {
			acc += inc.ent[k]
		}
		v[i] = acc
	})
}

// Potential returns Φ of the current distribution.
func (s *Stepper[T]) Potential() float64 { return load.Potential(s.loads) }

// Values returns the live loads or tokens (not a copy) — the core
// injection hook.
func (s *Stepper[T]) Values() []T { return s.loads }

// PartnerDegreeProbe estimates, by Monte-Carlo over rounds, the Lemma 9
// conditional probability Pr[max(dᵢ,dⱼ) ≤ 5 | (i,j) ∈ E]: the fraction of
// links in the drawn multisets whose endpoint degrees are both ≤ 5.
func PartnerDegreeProbe(n, rounds int, rng *rand.Rand) (prob float64, maxDegSeen int) {
	var ok, total int
	for r := 0; r < rounds; r++ {
		links := RoundLinks(n, rng)
		deg := Degrees(n, links)
		for _, lk := range links {
			d := deg[lk.From]
			if deg[lk.To] > d {
				d = deg[lk.To]
			}
			if d > maxDegSeen {
				maxDegSeen = d
			}
			if d <= 5 {
				ok++
			}
			total++
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(ok) / float64(total), maxDegSeen
}
