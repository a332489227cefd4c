package load

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestContinuousBasics(t *testing.T) {
	x := []float64{1, 2, 3}
	if Sum(x) != 6 {
		t.Fatalf("Σ = %v, want 6", Sum(x))
	}
	if got := Potential(x); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Φ = %v, want 2", got)
	}
	if Discrepancy(x) != 2 {
		t.Fatalf("K = %v", Discrepancy(x))
	}
}

func TestContinuousMoveConserves(t *testing.T) {
	x := []float64{5, 0}
	x[0] -= 2.5
	x[1] += 2.5
	if Sum(x) != 5 {
		t.Fatal("move must conserve total")
	}
	if Potential(x) != 0 || Discrepancy(x) != 0 {
		t.Fatal("balanced state must have Φ = K = 0")
	}
}

// Φ is the squared ℓ₂ norm of the error vector e = L − ℓ̄·1.
func TestErrorVectorAndNorm(t *testing.T) {
	x := []float64{0, 4}
	e := []float64{x[0] - 2, x[1] - 2}
	if got, want := math.Sqrt(Potential(x)), math.Hypot(e[0], e[1]); math.Abs(got-want) > 1e-12 {
		t.Fatalf("√Φ = %v, ‖e‖₂ = %v", got, want)
	}
}

func TestDiscreteBasics(t *testing.T) {
	x := []int64{4, 0, 2}
	if Sum(x) != 6 {
		t.Fatalf("Σ = %v, want 6", Sum(x))
	}
	if Discrepancy(x) != 4 {
		t.Fatalf("K = %v", Discrepancy(x))
	}
	if got := Potential(x); math.Abs(got-8) > 1e-12 {
		t.Fatalf("Φ = %v, want 8", got)
	}
}

// Token counts convert to float64 exactly, so Φ of a token vector is
// bit-identical to Φ of its float64 copy.
func TestDiscreteMoveAndConvert(t *testing.T) {
	x := []int64{10, 0, 7, 1 << 40}
	x[0] -= 5
	x[1] += 5
	if Sum(x) != 17+1<<40 {
		t.Fatal("move must conserve total")
	}
	f := make([]float64, len(x))
	for i, v := range x {
		f[i] = float64(v)
	}
	if math.Float64bits(Potential(x)) != math.Float64bits(Potential(f)) {
		t.Fatalf("Φ(tokens) = %v, Φ(float64 copy) = %v", Potential(x), Potential(f))
	}
	if float64(Discrepancy(x)) != Discrepancy(f) {
		t.Fatalf("K(tokens) = %v, K(float64 copy) = %v", Discrepancy(x), Discrepancy(f))
	}
}

func TestEmptyDistributions(t *testing.T) {
	if Sum([]float64(nil)) != 0 || Potential([]float64(nil)) != 0 || Discrepancy([]float64(nil)) != 0 {
		t.Fatal("empty continuous conventions")
	}
	if Sum([]int64(nil)) != 0 || Potential([]int64(nil)) != 0 || Discrepancy([]int64(nil)) != 0 {
		t.Fatal("empty discrete conventions")
	}
}

func TestPotentialAroundCompensated(t *testing.T) {
	// Large offset with small deviations: naive accumulation in float32
	// territory would lose the deviations; compensated must not.
	x := make(matrix.Vector, 1000)
	for i := range x {
		x[i] = 1e9
	}
	x[0] = 1e9 + 1
	x[1] = 1e9 - 1
	got := PotentialAround(x, x.Mean())
	if math.Abs(got-2) > 1e-6 {
		t.Fatalf("Φ = %v, want ≈2", got)
	}
}

// Lemma 10 of the paper: ΣᵢΣⱼ(ℓᵢ−ℓⱼ)² = 2n·Φ(L), with the O(n²) double
// sum as oracle against the O(n) implementation.
func TestLemma10IdentityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(40)
		x := make(matrix.Vector, n)
		for i := range x {
			x[i] = r.Float64() * 100
		}
		fast := PairwiseSquaredSum(x)
		var slow float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := x[i] - x[j]
				slow += d * d
			}
		}
		phi := PotentialAround(x, x.Mean())
		lhsOK := math.Abs(fast-slow) <= 1e-6*(1+slow)
		identityOK := math.Abs(slow-2*float64(n)*phi) <= 1e-6*(1+slow)
		return lhsOK && identityOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Φ is invariant under permutations and shifts the way it should
// be: adding a constant to every load leaves Φ unchanged.
func TestPotentialShiftInvarianceProperty(t *testing.T) {
	f := func(seed uint8, shiftRaw int8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(30)
		shift := float64(shiftRaw)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * 50
		}
		phi := Potential(x)
		for i := range x {
			x[i] += shift
		}
		return math.Abs(Potential(x)-phi) < 1e-7*(1+phi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: moving load from a heavier to a lighter node by no more than
// the difference never increases Φ (the microscopic fact behind Lemma 1).
func TestMoveTowardsBalanceDecreasesPotentialProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * 10
		}
		before := Potential(x)
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			return true
		}
		if x[i] < x[j] {
			i, j = j, i
		}
		amount := (x[i] - x[j]) * r.Float64()
		x[i] -= amount
		x[j] += amount
		return Potential(x) <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Continuous, Discrete} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: %v %v", m, got, err)
		}
	}
	if _, err := ParseMode("tokens"); err == nil {
		t.Fatal("expected error")
	}
}
