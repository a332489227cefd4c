package speccache

import (
	"repro/internal/obs"
	"repro/internal/spectral"
)

// The shared process-wide cache — and only it — is exposed on the metrics
// registry. A cache made with New (the experiments' churned overlays, tests)
// is transient by design and would leak series if each registered itself;
// its traffic is invisible to /metrics/prom, exactly like it is invisible to
// the disk spill unless it opts in.
func init() {
	reg := obs.Default()
	l := obs.L("quantity", "laplacian")
	reg.CounterFunc("speccache_lookups_total",
		"Spectral cache lookups against the shared cache.",
		func() float64 { return float64(shared.lookups.Load()) }, l)
	reg.CounterFunc("speccache_computes_total",
		"Cache misses that ran a fresh solve.",
		func() float64 { return float64(shared.computes.Load()) }, l)
	reg.CounterFunc("speccache_disk_hits_total",
		"Cache misses served from the cross-process disk spill.",
		func() float64 { return float64(shared.diskHits.Load()) }, l)
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
