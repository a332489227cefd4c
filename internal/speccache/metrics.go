package speccache

import (
	"repro/internal/obs"
	"repro/internal/spectral"
)

// The shared process-wide cache — and only it — is exposed on the metrics
// registry. Per-run caches (a Session's churned-subgraph spectra) are
// transient by design and would leak series if each registered itself; their
// traffic is invisible to /metrics/prom, exactly like it is invisible to
// the disk spill.
func init() {
	reg := obs.Default()
	promName := map[quantity]string{
		qLaplacian:  "laplacian",
		qPaperGamma: "paper_gamma",
		qFlow:       "optflow",
	}
	for q := quantity(0); q < numQuantities; q++ {
		q := q
		l := obs.L("quantity", promName[q])
		reg.CounterFunc("speccache_lookups_total",
			"Spectral cache lookups against the shared cache.",
			func() float64 { return float64(shared.lookups[q].Load()) }, l)
		reg.CounterFunc("speccache_computes_total",
			"Cache misses that ran a fresh solve.",
			func() float64 { return float64(shared.computes[q].Load()) }, l)
		reg.CounterFunc("speccache_disk_hits_total",
			"Cache misses served from the cross-process disk spill.",
			func() float64 { return float64(shared.diskHits[q].Load()) }, l)
	}
	solvePath := func(get func(spectral.SolveCounts) uint64) func() float64 {
		return func() float64 { return float64(get(spectral.SolveStats())) }
	}
	for _, p := range []struct {
		name string
		get  func(spectral.SolveCounts) uint64
	}{
		{"closed-form", func(s spectral.SolveCounts) uint64 { return s.ClosedForm }},
		{"dense", func(s spectral.SolveCounts) uint64 { return s.Dense }},
		{"lanczos", func(s spectral.SolveCounts) uint64 { return s.Lanczos }},
		{"invpower", func(s spectral.SolveCounts) uint64 { return s.InversePower }},
	} {
		reg.CounterFunc("spectral_solves_total",
			"Eigensolves by solver path, process-wide.",
			solvePath(p.get), obs.L("path", p.name))
	}
}
