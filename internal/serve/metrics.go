package serve

import "repro/internal/obs"

// Daemon metrics on the process-wide registry, served at /metrics/prom
// next to the JSON /metrics document (whose shape is unchanged — scrapers
// of either surface see the same counters). lbserved runs one Server per
// process, so process-wide series are the server's series; a test binary
// hosting several Servers sees their sums, which is fine for smoke
// assertions.
var (
	mRounds = obs.Default().Counter("lbserved_rounds_total",
		"Balancing rounds committed.")
	mArrivals = obs.Default().Counter("lbserved_arrivals_total",
		"Arrival events injected (replay + HTTP).")
	mArrivalsRejected = obs.Default().Counter("lbserved_arrivals_rejected_total",
		"HTTP arrivals refused (429) because the arrival queue was full.")
	mLoadInjected = obs.Default().Gauge("lbserved_load_injected",
		"Cumulative load injected into the session.")
	mPhi = obs.Default().Gauge("lbserved_phi",
		"Potential after the last committed round.")
	// Per-node queue depths, observed once per node per round — the
	// streaming histogram behind tail-quantile questions the JSON
	// snapshot's sorted percentiles can't answer over time. Buckets span
	// 1 .. ~2.6e5 load units.
	mBacklog = obs.Default().Histogram("lbserved_backlog_depth",
		"Per-node queue depth, observed each round.", obs.ExpBuckets(1, 2, 18))
)

// backlogObserveMaxN caps the per-round histogram fold. The fold is one
// exponent-table lookup per node into a stack tally and one atomic add
// per non-empty bucket (Histogram.ObserveAll): at this cap, the 2¹⁴-node
// hypercube, about a fifth of the time the round's Step and Commit take.
// Beyond it the O(n) fold would start competing with the round itself, so
// million-node daemons keep the JSON snapshot percentiles only.
const backlogObserveMaxN = 16384
