package core

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/spectral"
	"repro/internal/topoparse"
	"repro/internal/workload"
)

// TestLargeNSmoke is the million-node check: it steps a 2²⁰-node hypercube
// diffusion cell and solves λ₂ of the 2²⁰-node de Bruijn graph, a topology
// with no closed form, so the solve must take the implicit Lanczos path. It
// fails if the dense eigensolver ran at all (an n×n matrix at n = 2²⁰ is an
// 8 TB allocation; the counter catches a dispatch regression long before an
// OOM would), if the solve was not counted as Lanczos, or if the whole check
// took longer than five minutes, or if the hypercube holds more heap than
// its CSR, 8·(n+1) int offsets plus 2m int32 targets = 8·(n+1) + 8·m bytes
// (92 MB), plus 10%. Its peak is the de
// Bruijn Lanczos basis, about 1.6 GB resident, so it runs only when
// LB_LARGE_N is set: `make large-n-smoke`.
func TestLargeNSmoke(t *testing.T) {
	if os.Getenv("LB_LARGE_N") == "" {
		t.Skip("set LB_LARGE_N=1 to run the million-node check (about 1.6 GB)")
	}
	const n, budget = 1 << 20, 5 * time.Minute
	start := time.Now()
	before := spectral.SolveStats()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc
	g, err := topoparse.Build("hypercube", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := int64(ms.HeapAlloc) - int64(heapBefore)
	csr := int64(8*(g.N()+1) + 8*g.M())
	t.Logf("hypercube n=%d m=%d: HeapAlloc %.1f MB, %.1f MB held by the graph (CSR %.1f MB)",
		g.N(), g.M(), float64(ms.HeapAlloc)/1e6, float64(held)/1e6, float64(csr)/1e6)
	if held > csr+csr/10 {
		t.Errorf("the graph holds %d bytes, more than its CSR's %d + 10%%", held, csr)
	}
	loads := workload.Continuous(workload.Spike, g.N(), 1e6*float64(g.N()), nil)
	sys, err := newSystem(Config{Graph: g, Algorithm: Diffusion, Loads: loads, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 9
	stepStart := time.Now()
	for r := 0; r < rounds; r++ {
		sys.Step()
	}
	t.Logf("hypercube n=%d diffusion: %v/round over %d rounds", g.N(), time.Since(stepStart)/rounds, rounds)

	db, err := topoparse.Build("debruijn", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	mid := spectral.SolveStats()
	solveStart := time.Now()
	l2, err := spectral.Lambda2(db)
	if err != nil {
		t.Fatalf("λ₂(debruijn, n=%d): %v", db.N(), err)
	}
	after := spectral.SolveStats()
	elapsed := time.Since(start)
	t.Logf("λ₂(debruijn, n=%d) = %.6g in %v (total %v)", db.N(), l2, time.Since(solveStart).Round(time.Millisecond), elapsed.Round(time.Millisecond))

	if d := after.Dense - before.Dense; d != 0 {
		t.Errorf("dense eigensolver ran %d time(s) at n=%d: the spectral dispatch must never materialize matrices at this scale", d, n)
	}
	if after.Lanczos == mid.Lanczos || after.InversePower != mid.InversePower {
		t.Errorf("λ₂(debruijn) was not solved by Lanczos: solve counts %+v before, %+v after", mid, after)
	}
	if elapsed > budget {
		t.Errorf("took %v, budget %v", elapsed.Round(time.Millisecond), budget)
	}
}
