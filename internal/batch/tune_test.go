package batch

import (
	"runtime"
	"testing"
)

func TestTuneWorkers(t *testing.T) {
	cases := []struct {
		name                 string
		units, n, procs      int
		wantUnits, wantRound int
	}{
		// Enough units to fill the machine: all cores go to the unit level,
		// steppers stay serial.
		{"unit-bound", 100, 1 << 16, 8, 8, 1},
		{"exactly-filled", 8, 1 << 16, 8, 8, 1},
		// Fewer units than cores and big graphs: leftover cores fan out
		// inside the steppers.
		{"round-spill", 2, 1 << 16, 8, 2, 4},
		{"uneven-spill", 3, 1 << 16, 8, 3, 2},
		{"single-unit", 1, 1 << 16, 8, 1, 8},
		// Small graphs never get round workers — goroutine overhead beats
		// the loop body below RoundParallelMinN nodes.
		{"too-small", 2, 64, 8, 2, 1},
		{"small-boundary", 2, RoundParallelMinN - 1, 8, 2, 1},
		{"at-boundary", 2, RoundParallelMinN, 8, 2, 4},
		// Degenerate inputs clamp instead of exploding.
		{"no-procs", 4, 1 << 16, 0, 1, 1},
		{"no-units", 0, 1 << 16, 4, 1, 4},
	}
	for _, c := range cases {
		gotU, gotR := TuneWorkers(c.units, c.n, c.procs)
		if gotU != c.wantUnits || gotR != c.wantRound {
			t.Errorf("%s: TuneWorkers(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.name, c.units, c.n, c.procs, gotU, gotR, c.wantUnits, c.wantRound)
		}
	}
}

func TestTuneWorkersNeverOversubscribes(t *testing.T) {
	for units := 1; units <= 20; units++ {
		for procs := 1; procs <= 16; procs++ {
			for _, n := range []int{64, RoundParallelMinN, 1 << 20} {
				u, r := TuneWorkers(units, n, procs)
				if u < 1 || r < 1 {
					t.Fatalf("TuneWorkers(%d, %d, %d) = (%d, %d): degenerate", units, n, procs, u, r)
				}
				if u*r > procs && !(u == 1 && r == 1) {
					t.Fatalf("TuneWorkers(%d, %d, %d) = (%d, %d): %d workers claim %d cores",
						units, n, procs, u, r, u*r, procs)
				}
			}
		}
	}
}

func TestWorkerSplitExplicitWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	spec := Spec{
		Topologies: []string{"torus"},
		Algorithms: []string{"diffusion"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		N:          64,
		Seeds:      []int64{1},
		Workers:    3,
	}

	// Small n: the pool width is honored and the steppers stay serial.
	u, r := spec.WorkerSplit()
	if u != 3 || r != 1 {
		t.Fatalf("n=64 split = (%d, %d), want (3, 1)", u, r)
	}

	// Big n: the pool width is still honored, and the rounds get the
	// cores it leaves over.
	spec.N, spec.Workers = RoundParallelMinN, 2
	if u, r = spec.WorkerSplit(); u != 2 || r != 4 {
		t.Fatalf("n=%d split at GOMAXPROCS 8 = (%d, %d), want (2, 4)", spec.N, u, r)
	}
}

func TestWorkerSplitAutoTunes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	spec := Spec{
		Topologies: []string{"torus"},
		Algorithms: []string{"diffusion"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		N:          64,
		Seeds:      []int64{1, 2, 3},
	}
	// Small n: the tuner refuses round fan-out whatever the unit count.
	if u, r := spec.WorkerSplit(); u != 3 || r != 1 {
		t.Fatalf("n=64 split = (%d, %d), want (3, 1)", u, r)
	}
	// Big n, fewer units than cores: the spare cores go to the rounds.
	spec.N = RoundParallelMinN
	if u, r := spec.WorkerSplit(); u != 3 || r != 2 {
		t.Fatalf("n=%d split at GOMAXPROCS 8 = (%d, %d), want (3, 2)", spec.N, u, r)
	}
}
