package randpair

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/load"
	"repro/internal/workload"
)

func TestRoundLinksShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 100
	links := RoundLinks(n, rng)
	if len(links) > n {
		t.Fatalf("%d links from %d nodes", len(links), n)
	}
	for _, l := range links {
		if l.From == l.To {
			t.Fatal("self link survived")
		}
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			t.Fatal("link out of range")
		}
	}
}

func TestDegreesCountBothEndpoints(t *testing.T) {
	links := []Link{{0, 1}, {2, 1}}
	d := Degrees(3, links)
	if d[0] != 1 || d[1] != 2 || d[2] != 1 {
		t.Fatalf("degrees %v", d)
	}
}

func TestLemma9ProbabilityExceedsHalf(t *testing.T) {
	// Lemma 9: Pr[max(dᵢ,dⱼ) ≤ 5 | (i,j) ∈ E] > 0.5. Empirically the
	// probability is far higher (≈0.97); test the paper's bound strictly.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{16, 64, 256, 1024} {
		p, _ := PartnerDegreeProbe(n, 200, rng)
		if p <= 0.5 {
			t.Fatalf("n=%d: Pr[max degree ≤ 5 | link] = %v ≤ 0.5", n, p)
		}
	}
}

func TestContinuousConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	init := workload.Continuous(workload.Uniform, 64, 100, rng)
	st := New(init, rng)
	before := load.Sum(st.Values())
	for i := 0; i < 100; i++ {
		st.Step()
	}
	if math.Abs(load.Sum(st.Values())-before) > 1e-7*(1+math.Abs(before)) {
		t.Fatalf("total drifted: %v → %v", before, load.Sum(st.Values()))
	}
}

func TestContinuousLemma11ExpectedDrop(t *testing.T) {
	// Lemma 11: E[Φᵗ⁺¹] ≤ (19/20)Φᵗ. Average the one-round drop factor
	// over many independent rounds from the same start.
	rng := rand.New(rand.NewSource(4))
	n := 128
	init := workload.Continuous(workload.Spike, n, float64(n)*100, nil)
	const trials = 300
	var sum float64
	for k := 0; k < trials; k++ {
		st := New(init, rng)
		phi0 := st.Potential()
		st.Step()
		sum += st.Potential() / phi0
	}
	mean := sum / trials
	if mean > ContinuousDropBound {
		t.Fatalf("mean drop factor %v exceeds 19/20", mean)
	}
}

func TestContinuousConvergesLogarithmically(t *testing.T) {
	// Theorem 12 shape: Φ should hit a tiny fraction of Φ⁰ within O(log Φ⁰)
	// rounds; 400 rounds is far beyond the expected ~40 for this instance.
	rng := rand.New(rand.NewSource(5))
	init := workload.Continuous(workload.Spike, 256, 1e6, nil)
	st := New(init, rng)
	phi0 := st.Potential()
	rounds := 0
	for ; rounds < 400 && st.Potential() > 1e-6*phi0; rounds++ {
		st.Step()
	}
	if st.Potential() > 1e-6*phi0 {
		t.Fatalf("did not reach 1e-6·Φ⁰ in %d rounds", rounds)
	}
}

func TestDiscreteConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init := workload.Discrete(workload.PowerLaw, 100, 1_000_000, rng)
	st := New(init, rng)
	before := load.Sum(st.Values())
	for i := 0; i < 200; i++ {
		st.Step()
	}
	if load.Sum(st.Values()) != before {
		t.Fatal("tokens not conserved")
	}
}

func TestDiscreteNoNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	init := workload.Discrete(workload.Spike, 50, 12345, nil)
	st := New(init, rng)
	for i := 0; i < 300; i++ {
		st.Step()
		for node, v := range st.Values() {
			if v < 0 {
				t.Fatalf("node %d negative at round %d", node, i)
			}
		}
	}
}

func TestDiscreteLemma13DropAboveThreshold(t *testing.T) {
	// Lemma 13: above Φ = 3200n the expected drop factor is ≤ 39/40.
	rng := rand.New(rand.NewSource(8))
	n := 64
	// Spike with Φ⁰ ≈ total²·(1−1/n) >> 3200n.
	init := workload.Discrete(workload.Spike, n, int64(n)*10000, nil)
	const trials = 200
	var sum float64
	count := 0
	for k := 0; k < trials; k++ {
		st := New(init, rng)
		phi0 := st.Potential()
		if phi0 < DiscreteThreshold(n) {
			t.Fatalf("test instance too small: Φ⁰ = %v", phi0)
		}
		st.Step()
		sum += st.Potential() / phi0
		count++
	}
	mean := sum / float64(count)
	if mean > DiscreteDropBound {
		t.Fatalf("mean drop factor %v exceeds 39/40", mean)
	}
}

func TestDiscreteTheorem14ReachesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 128
	init := workload.Discrete(workload.Spike, n, int64(n)*100000, nil)
	st := New(init, rng)
	thr := DiscreteThreshold(n)
	phi0 := st.Potential()
	// Theorem 14 bound with c = 1: T = 240·ln(Φ⁰/3200n).
	bound := int(math.Ceil(240 * math.Log(phi0/thr)))
	rounds := 0
	for ; rounds <= bound && st.Potential() > thr; rounds++ {
		st.Step()
	}
	if st.Potential() > thr {
		t.Fatalf("Φ=%v above threshold %v after %d rounds", st.Potential(), thr, rounds)
	}
}

func TestThresholdValue(t *testing.T) {
	if DiscreteThreshold(10) != 32000 {
		t.Fatalf("threshold = %v", DiscreteThreshold(10))
	}
}

// Property: a continuous step never moves the minimum below its old value
// minus what it could receive… simplified: totals conserved and no NaN.
func TestContinuousStepSanityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(60)
		init := workload.Continuous(workload.Uniform, n, 100, r)
		st := New(init, r)
		before := load.Sum(st.Values())
		st.Step()
		if math.Abs(load.Sum(st.Values())-before) > 1e-7*(1+math.Abs(before)) {
			return false
		}
		for i := 0; i < n; i++ {
			if math.IsNaN(st.Values()[i]) || st.Values()[i] < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: degrees always sum to 2·|links|.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(100)
		links := RoundLinks(n, r)
		d := Degrees(n, links)
		sum := 0
		for _, x := range d {
			sum += x
		}
		return sum == 2*len(links)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
