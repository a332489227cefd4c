package load

import (
	"math"
	"testing"
)

// FuzzLemma10Identity fuzzes the Lemma 10 identity
// ΣᵢΣⱼ(ℓᵢ−ℓⱼ)² = 2n·Φ(L) on arbitrary 4-node loads plus a derived longer
// vector; beyond the property test this explores adversarial float values.
func FuzzLemma10Identity(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(1e9, -1e9, 1e-9, 0.0)
	f.Add(123.25, 123.25, 123.25, 123.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip()
			}
		}
		x := []float64{a, b, c, d, (a + b) / 2, c - d}
		n := float64(len(x))
		fast := PairwiseSquaredSum(x)
		var direct float64
		for i := range x {
			for j := range x {
				dd := x[i] - x[j]
				direct += dd * dd
			}
		}
		var mean float64
		for _, v := range x {
			mean += v
		}
		mean /= n
		rhs := 2 * n * PotentialAround(x, mean)
		scale := 1 + math.Abs(direct)
		if math.Abs(fast-direct) > 1e-6*scale {
			t.Fatalf("closed form %v vs direct %v", fast, direct)
		}
		if math.Abs(direct-rhs) > 1e-6*scale {
			t.Fatalf("identity broken: ΣΣ=%v, 2nΦ=%v", direct, rhs)
		}
	})
}

// FuzzMoveConservesAndHelps fuzzes the microscopic Lemma 1 fact: moving
// any fraction of the difference downhill conserves total and does not
// raise Φ.
func FuzzMoveConservesAndHelps(f *testing.F) {
	f.Add(10.0, 2.0, 0.5)
	f.Add(1.0, 1.0, 1.0)
	f.Add(100.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, hi, lo, frac float64) {
		if math.IsNaN(hi) || math.IsNaN(lo) || math.IsNaN(frac) ||
			math.Abs(hi) > 1e12 || math.Abs(lo) > 1e12 || frac < 0 || frac > 1 {
			t.Skip()
		}
		if hi < lo {
			hi, lo = lo, hi
		}
		x := []float64{hi, lo, (hi + lo) / 3}
		total := Sum(x)
		phi := Potential(x)
		amount := (hi - lo) * frac
		x[0] -= amount
		x[1] += amount
		if math.Abs(Sum(x)-total) > 1e-6*(1+math.Abs(total)) {
			t.Fatalf("total changed: %v → %v", total, Sum(x))
		}
		if Potential(x) > phi*(1+1e-9)+1e-9 {
			t.Fatalf("Φ rose: %v → %v", phi, Potential(x))
		}
	})
}
