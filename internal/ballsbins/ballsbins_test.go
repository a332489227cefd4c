package ballsbins

import (
	"math/rand"
	"testing"
)

func TestThrowConservesBalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	occ := Throw(1000, 50, rng)
	total := 0
	for _, c := range occ {
		total += c
	}
	if total != 1000 {
		t.Fatalf("total %d", total)
	}
}

func TestMaxLoadAtLeastAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if got := MaxLoad(100, 10, rng); got < 10 {
		t.Fatalf("max load %d below average", got)
	}
}

func TestMaxLoadSingleBin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := MaxLoad(42, 1, rng); got != 42 {
		t.Fatalf("single bin max %d", got)
	}
}

func TestExpectedMaxLoadApproxGrows(t *testing.T) {
	prev := 0.0
	for _, n := range []int{10, 100, 1000, 10000} {
		v := ExpectedMaxLoadApprox(n)
		if v <= prev {
			t.Fatalf("approx not increasing at n=%d", n)
		}
		prev = v
	}
	if ExpectedMaxLoadApprox(2) != 1 {
		t.Fatal("small-n convention")
	}
}

func TestMaxLoadTracksTheory(t *testing.T) {
	// For n balls in n bins the max load concentrates near
	// ln n/ln ln n·(1+o(1)); allow a generous [1, 4]× band around it.
	rng := rand.New(rand.NewSource(4))
	n := 1024
	stats := MaxLoadStats(n, 50, rng)
	var mean float64
	for _, v := range stats {
		mean += v
	}
	mean /= float64(len(stats))
	approx := ExpectedMaxLoadApprox(n)
	if mean < approx || mean > 4*approx {
		t.Fatalf("mean max load %v outside [%v, %v]", mean, approx, 4*approx)
	}
}
