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
// The analysis quantities are exposed so the experiments can check them
// directly: partner-degree statistics for Lemma 9, the per-round expected
// drop factors 19/20 (Lemma 11) and 39/40 (Lemma 13), and the discrete
// threshold 3200·n (Theorem 14).
package randpair

import (
	"math"
	"math/rand"

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

// Continuous is the continuous Algorithm 2 stepper.
type Continuous struct {
	Load *load.Continuous
	RNG  *rand.Rand
	// Workers > 1 fans the transfer application over goroutines. Every
	// transfer is computed from the round-start vector, and each node
	// accumulates its incident transfers in global link order — the exact
	// floating-point operation chain of the serial loop — so results are
	// bit-identical for any value.
	Workers int

	// LastLinks / LastDegrees expose the most recent round's structure for
	// the Lemma 9 experiments.
	LastLinks   []Link
	LastDegrees []int

	inc   incidence
	start []float64
}

// incidence is the reusable CSR scratch of a round's link multiset: for
// node i, ent[off[i]:off[i+1]] holds the signed transfer amounts of i's
// incident links, in global link order. Per-node accumulation over it
// replays each node's serial mutation chain exactly (x − w ≡ x + (−w) in
// IEEE arithmetic), which is what makes the parallel path bit-identical.
type incidence struct {
	off    []int
	cursor []int
	ent    []float64
}

// build fills the structure from the round's effective links: f(k) returns
// link k's transfer magnitude (0 to skip) computed from round-start loads;
// the signed entries land on both endpoints.
func (inc *incidence) build(n int, links []Link, start []float64, deg []int, f func(i, j, d int) float64) {
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
		inc.ent = make([]float64, total)
	}
	inc.ent = inc.ent[:total]
	for _, lk := range links {
		i, j := lk.From, lk.To
		d := maxDeg(deg, lk)
		if d == 0 || start[i] == start[j] {
			continue
		}
		w := f(i, j, d)
		// Match the serial loop exactly: the heavier endpoint sends w.
		if start[i] > start[j] {
			w = -w
		}
		inc.ent[inc.cursor[i]] = w
		inc.cursor[i]++
		inc.ent[inc.cursor[j]] = -w
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

// NewContinuous creates a stepper over a copy of the initial loads.
func NewContinuous(initial []float64, rng *rand.Rand) *Continuous {
	return &Continuous{Load: load.NewContinuous(initial), RNG: rng}
}

// Step performs one round: draw links, then apply all transfers computed
// from the round-start loads concurrently.
func (c *Continuous) Step() {
	n := c.Load.N()
	// Round scratch (links, degrees, the round-start snapshot) is recycled
	// across rounds; at n = 2²⁰ the per-round garbage would otherwise
	// dominate the actual balancing arithmetic.
	c.LastLinks = appendRoundLinks(c.LastLinks, n, c.RNG)
	links := c.LastLinks
	c.LastDegrees = fillDegrees(c.LastDegrees, n, links)
	deg := c.LastDegrees
	v := c.Load.Vector()
	if cap(c.start) < n {
		c.start = make([]float64, n)
	}
	start := c.start[:n]
	copy(start, v)
	workers := parallel.StepperWorkers(c.Workers)
	if workers == 1 {
		for _, lk := range links {
			i, j := lk.From, lk.To
			d := deg[i]
			if deg[j] > d {
				d = deg[j]
			}
			if d == 0 {
				continue
			}
			diff := start[i] - start[j]
			if diff == 0 {
				continue
			}
			w := math.Abs(diff) / (4 * float64(d))
			if diff > 0 {
				v[i] -= w
				v[j] += w
			} else {
				v[j] -= w
				v[i] += w
			}
		}
		return
	}
	c.inc.build(n, links, start, deg, func(i, j, d int) float64 {
		return math.Abs(start[i]-start[j]) / (4 * float64(d))
	})
	inc := &c.inc
	parallel.For(n, workers, func(i int) {
		acc := start[i]
		for k := inc.off[i]; k < inc.off[i+1]; k++ {
			acc += inc.ent[k]
		}
		v[i] = acc
	})
}

// Potential returns Φ of the current distribution.
func (c *Continuous) Potential() float64 { return c.Load.Potential() }

// LoadVector returns the live load vector (implements core.ContinuousState).
func (c *Continuous) LoadVector() []float64 { return c.Load.Vector() }

// Discrete is the discrete Algorithm 2 stepper (floor transfers).
type Discrete struct {
	Load *load.Discrete
	RNG  *rand.Rand
	// Workers > 1 fans the transfer application over goroutines; token
	// arithmetic is order-free, so results are identical for any value.
	Workers int

	LastLinks   []Link
	LastDegrees []int

	inc   incidence64
	start []int64
}

// incidence64 is incidence for token transfers (zero-token links become 0
// entries, which integer accumulation ignores).
type incidence64 struct {
	off    []int
	cursor []int
	ent    []int64
}

func (inc *incidence64) build(n int, links []Link, start []int64, deg []int) {
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
		inc.ent = make([]int64, total)
	}
	inc.ent = inc.ent[:total]
	for _, lk := range links {
		i, j := lk.From, lk.To
		d := maxDeg(deg, lk)
		if d == 0 || start[i] == start[j] {
			continue
		}
		diff := start[i] - start[j]
		abs := diff
		if abs < 0 {
			abs = -abs
		}
		t := abs / int64(4*d)
		if diff > 0 {
			t = -t
		}
		inc.ent[inc.cursor[i]] = t
		inc.cursor[i]++
		inc.ent[inc.cursor[j]] = -t
		inc.cursor[j]++
	}
}

// NewDiscrete creates a stepper over a copy of the initial token counts.
func NewDiscrete(initial []int64, rng *rand.Rand) *Discrete {
	return &Discrete{Load: load.NewDiscrete(initial), RNG: rng}
}

// Step performs one round with ⌊(ℓᵢ−ℓⱼ)/(4·max(dᵢ,dⱼ))⌋-token transfers.
func (d *Discrete) Step() {
	n := d.Load.N()
	d.LastLinks = appendRoundLinks(d.LastLinks, n, d.RNG)
	links := d.LastLinks
	d.LastDegrees = fillDegrees(d.LastDegrees, n, links)
	deg := d.LastDegrees
	v := d.Load.Tokens()
	if cap(d.start) < n {
		d.start = make([]int64, n)
	}
	start := d.start[:n]
	copy(start, v)
	workers := parallel.StepperWorkers(d.Workers)
	if workers == 1 {
		for _, lk := range links {
			i, j := lk.From, lk.To
			dd := deg[i]
			if deg[j] > dd {
				dd = deg[j]
			}
			if dd == 0 {
				continue
			}
			diff := start[i] - start[j]
			if diff == 0 {
				continue
			}
			abs := diff
			if abs < 0 {
				abs = -abs
			}
			t := abs / int64(4*dd)
			if t == 0 {
				continue
			}
			if diff > 0 {
				v[i] -= t
				v[j] += t
			} else {
				v[j] -= t
				v[i] += t
			}
		}
		return
	}
	d.inc.build(n, links, start, deg)
	inc := &d.inc
	parallel.For(n, workers, func(i int) {
		acc := start[i]
		for k := inc.off[i]; k < inc.off[i+1]; k++ {
			acc += inc.ent[k]
		}
		v[i] = acc
	})
}

// Potential returns Φ of the current distribution.
func (d *Discrete) Potential() float64 { return d.Load.Potential() }

// LoadTokens returns the live token counts (implements core.DiscreteState).
func (d *Discrete) LoadTokens() []int64 { return d.Load.Tokens() }

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
