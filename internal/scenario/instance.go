package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

// Arrival is one unit of injected load: Amount lands on Node.
type Arrival struct {
	Node   int
	Amount float64
}

// Instance is one seed-fixed realization of a scenario, bound to a single
// run: a deterministic schedule of active graphs and load arrivals. The
// round loop must call Graph(k) and then Arrivals(k, …) exactly once per
// round, for k = 0, 1, 2, … in order — the instance draws from its RNG at
// call time, so out-of-order or repeated calls would change the
// realization. An ArrivalFree instance's Arrivals is always empty and
// draws nothing, so the loop may skip it. Instances are not safe for concurrent use; a grid run
// creates one per unit from the unit's own seed stream.
type Instance struct {
	base     *graph.G
	graphAt  func(k int) *graph.G                   // nil: base every round
	arrivals func(k int, loads []float64) []Arrival // nil: arrival-free
}

// Graph returns the topology active in round k — the base graph whenever
// the scenario leaves topology alone (pointer-compare against the base to
// detect churn cheaply).
func (in *Instance) Graph(k int) *graph.G {
	if in.graphAt == nil {
		return in.base
	}
	return in.graphAt(k)
}

// Arrivals returns the load arriving at the end of round k. loads is the
// post-round load vector, read-only — adversarial scenarios use it to aim.
func (in *Instance) Arrivals(k int, loads []float64) []Arrival {
	if in.arrivals == nil {
		return nil
	}
	return in.arrivals(k, loads)
}

// ArrivalFree reports whether the scenario never injects load, so a run
// that reaches its balance target has nothing left to wait for.
func (in *Instance) ArrivalFree() bool { return in.arrivals == nil }

// meanJobsPerRound is PoissonArrivals' mean job count per round; the rate
// parameter scales the per-job size so the expected injected load per round
// is rate·ref regardless of this constant.
const meanJobsPerRound = 4.0

// New binds the scenario to one run: base is the run's topology, ref the
// reference load magnitude injection sizes are fractions of (callers pass
// the total initial load; anything ≤ 0 falls back to the node count), and
// rng the scenario's private stream — separate from the algorithm's, so
// enabling a scenario never perturbs the algorithm's draws. The static
// instance reads neither ref nor rng, and allocates nothing.
func (s Spec) New(base *graph.G, ref float64, rng *rand.Rand) (Instance, error) {
	if base == nil || base.N() == 0 {
		return Instance{}, fmt.Errorf("scenario: %s needs a non-empty base graph", s)
	}
	if ref <= 0 || math.IsNaN(ref) || math.IsInf(ref, 0) {
		ref = float64(base.N())
	}
	n := base.N()

	switch s.Kind {
	case Static:
		return Instance{base: base}, nil

	case PoissonArrivals:
		job := s.param(0) * ref / meanJobsPerRound
		return Instance{base: base, arrivals: func(int, []float64) []Arrival {
			jobs := poisson(rng, meanJobsPerRound)
			out := make([]Arrival, 0, jobs)
			for i := 0; i < jobs; i++ {
				out = append(out, Arrival{Node: rng.Intn(n), Amount: job})
			}
			return out
		}}, nil

	case Bursty:
		period, amount := int(s.param(0)), s.param(1)*ref
		return Instance{base: base, arrivals: func(k int, _ []float64) []Arrival {
			if (k+1)%period != 0 {
				return nil
			}
			return []Arrival{{Node: rng.Intn(n), Amount: amount}}
		}}, nil

	case AdversarialRespike:
		every, amount := int(s.param(0)), s.param(1)*ref
		return Instance{base: base, arrivals: func(k int, loads []float64) []Arrival {
			if (k+1)%every != 0 {
				return nil
			}
			return []Arrival{{Node: argmax(loads), Amount: amount}}
		}}, nil

	case HotspotDrift:
		amount, period := s.param(0)*ref, int(s.param(1))
		hot := rng.Intn(n)
		return Instance{base: base, arrivals: func(k int, _ []float64) []Arrival {
			if k > 0 && k%period == 0 {
				if nb := base.Neighbors(hot); len(nb) > 0 {
					hot = int(nb[rng.Intn(len(nb))])
				}
			}
			return []Arrival{{Node: hot, Amount: amount}}
		}}, nil

	case EdgeChurn:
		seq := &dynamic.RandomSubgraphs{Base: base, KeepProb: 1 - s.param(0), RNG: rng}
		return Instance{graphAt: seq.Next}, nil

	case PeriodicFailures:
		period := int(s.param(0))
		seq := &dynamic.EdgeFailures{Base: base, FailCount: int(s.param(1)), RNG: rng}
		var cur *graph.G
		return Instance{graphAt: func(k int) *graph.G {
			if cur == nil || k%period == 0 {
				cur = seq.Next(k)
			}
			return cur
		}}, nil

	case Trace:
		events, err := ReadTraceFile(s.Path)
		if err != nil {
			return Instance{}, fmt.Errorf("scenario: %w", err)
		}
		for _, e := range events {
			if e.Node >= n {
				return Instance{}, fmt.Errorf("scenario: trace %s: round %d targets node %d but the graph has %d nodes", s.Path, e.Round, e.Node, n)
			}
		}
		// The cursor rides the in-order round-loop contract documented on
		// Instance: events land exactly at their recorded round, no RNG
		// draws, so replay is deterministic with any rng (including nil).
		cursor := 0
		return Instance{base: base, arrivals: func(k int, _ []float64) []Arrival {
			var out []Arrival
			for cursor < len(events) && events[cursor].Round <= k {
				if events[cursor].Round == k {
					out = append(out, Arrival{Node: events[cursor].Node, Amount: events[cursor].Amount})
				}
				cursor++
			}
			return out
		}}, nil

	default:
		return Instance{}, fmt.Errorf("scenario: unknown kind %v", s.Kind)
	}
}

// poisson draws a Poisson(λ) variate by Knuth's product method — λ here is
// the small per-round job mean, where the method is exact and cheap.
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= rng.Float64()
	}
	return k - 1
}

// argmax returns the index of the largest load, lowest index on ties — a
// deterministic aim for the adversary.
func argmax(loads []float64) int {
	best := 0
	for i, v := range loads {
		if v > loads[best] {
			best = i
		}
	}
	return best
}
