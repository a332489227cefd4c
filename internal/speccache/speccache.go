// Package speccache memoizes the one expensive per-topology spectral value
// the rest of the system keeps asking for: a graph's Laplacian record
// (spectral.LaplacianExtremes: λ₂, the algebraic connectivity behind every
// convergence bound, and λ_max), from which γ of the uniform diffusion
// matrix (the second-order scheme's acceleration input) follows.
//
// The record is a pure function of the graph and costs an eigendecomposition
// or a Laplacian solve — O(n³) for dense instances. A grid sweep asks for the
// same (topology, n) record in every one of its units, sessions and lbserved
// ask for it on every Open, and the experiment harness asks for it again per
// experiment. The cache is keyed on graph.G.Fingerprint (name + node count +
// edge set), so distinct instances never collide and repeated instances
// compute the record exactly once per process (and, with the disk spill,
// once per spill directory).
//
// Concurrency: lookups are safe from any number of goroutines, and
// concurrent first requests for the same graph are deduplicated (one
// computes, the rest block on the result), which keeps parallel sweeps from
// burning cores on redundant eigensolves. Values are memoized verbatim from
// internal/spectral, so cached and uncached runs are numerically identical.
package speccache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/spectral"
)

// entry carries one graph's Laplacian record; once deduplicates concurrent
// first computations without holding the cache lock during the eigensolve.
type entry struct {
	once sync.Once
	rec  spectral.Laplacian
	err  error
}

// Cache memoizes Laplacian records per graph fingerprint. The zero value is
// not usable; call New.
type Cache struct {
	mu      sync.Mutex
	entries map[uint64]*entry
	// diskDir, when non-empty, is the disk-spill directory records are
	// shared through across processes (see disk.go).
	diskDir string

	lookups, computes, diskHits atomic.Uint64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[uint64]*entry)}
}

// shared is the process-wide cache used by the package-level helpers —
// the one core.Balance, the batch engine's run functions and the experiment
// harness all thread through, so a λ₂ computed for a grid unit is already
// there when an experiment asks for the same topology.
var shared = New()

// Shared returns the process-wide cache.
func Shared() *Cache { return shared }

// laplacian returns g's memoized Laplacian record: from memory, else from
// the disk spill, else from spectral.LaplacianExtremes (written back to the
// spill).
func (c *Cache) laplacian(g *graph.G) (spectral.Laplacian, error) {
	c.lookups.Add(1)
	fp := g.Fingerprint()
	c.mu.Lock()
	e, ok := c.entries[fp]
	if !ok {
		e = &entry{}
		c.entries[fp] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		// Memory missed; the disk spill is the second level — a hit there is
		// another process's (or a previous run's) eigensolve reused.
		if r, ok := c.diskLoad(fp); ok {
			c.diskHits.Add(1)
			e.rec = r
			return
		}
		c.computes.Add(1)
		e.rec, e.err = spectral.LaplacianExtremes(g)
		if e.err == nil {
			c.diskSave(fp, e.rec)
		}
	})
	return e.rec, e.err
}

// Lambda2 returns the memoized algebraic connectivity of g, from its
// Laplacian record.
func (c *Cache) Lambda2(g *graph.G) (float64, error) {
	r, err := c.laplacian(g)
	return r.Lambda2, err
}

// MustLambda2 is Lambda2 that panics on error; for graphs valid by
// construction (the experiment suites).
func (c *Cache) MustLambda2(g *graph.G) float64 {
	v, err := c.Lambda2(g)
	if err != nil {
		panic(err)
	}
	return v
}

// Gamma returns the second-largest eigenvalue magnitude of the uniform
// diffusion matrix M = I − L/(δ+1) of g — the quantity behind the
// second-order scheme's optimal β — derived from g's Laplacian record.
func (c *Cache) Gamma(g *graph.G) (float64, error) {
	r, err := c.laplacian(g)
	if err != nil {
		return 0, err
	}
	return r.Gamma(spectral.DiffusionAlpha(g)), nil
}

// Reset drops every memoized record and zeroes the statistics. Intended for
// tests and for processes that rebuild topologies wholesale (e.g. long
// dynamic-network runs that never revisit a graph).
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = make(map[uint64]*entry)
	c.mu.Unlock()
	c.lookups.Store(0)
	c.computes.Store(0)
	c.diskHits.Store(0)
}

// Stats is a point-in-time snapshot of the cache's effectiveness, plus the
// process-wide spectral solve-path counters — which solver (closed form,
// dense, Lanczos, inverse power) actually ran behind the cache misses
// (lbbench -cache-stats prints both).
type Stats struct {
	// Computes is how many records were actually computed (cache misses all
	// the way down); Hits is how many lookups were served from memory;
	// DiskHits how many were loaded from the disk spill instead of computed.
	Computes, Hits, DiskHits uint64
	Solves                   spectral.SolveCounts
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	lookups, computes, disk := c.lookups.Load(), c.computes.Load(), c.diskHits.Load()
	return Stats{Computes: computes, Hits: lookups - computes - disk, DiskHits: disk, Solves: spectral.SolveStats()}
}

// String renders the cache traffic as one human-readable line.
func (s Stats) String() string {
	if s.DiskHits > 0 {
		return fmt.Sprintf("λ₂/λ_max %d computed/%d disk/%d hits", s.Computes, s.DiskHits, s.Hits)
	}
	return fmt.Sprintf("λ₂/λ_max %d computed/%d hits", s.Computes, s.Hits)
}

// Package-level helpers against the shared cache, so hot call sites read as
// plainly as the spectral calls they replace.

// Lambda2 is Shared().Lambda2.
func Lambda2(g *graph.G) (float64, error) { return shared.Lambda2(g) }

// MustLambda2 is Shared().MustLambda2.
func MustLambda2(g *graph.G) float64 { return shared.MustLambda2(g) }

// Gamma is Shared().Gamma.
func Gamma(g *graph.G) (float64, error) { return shared.Gamma(g) }
