package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/batch"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/randpair"
	"repro/internal/scenario"
	"repro/internal/speccache"
)

// Session is the stepwise form of Balance: the same validated
// configuration, stepper factory, theorem bounds and round bookkeeping,
// but with the round loop inverted so the caller drives it. Balance's one
// round loop (static and scenario runs alike), the graph-sequence
// experiments and the lbserved daemon run on this one state machine, so
// the serial IEEE op chain, and with it every byte-identity guarantee of
// the batch engine, is shared by construction instead of re-implemented.
//
// The protocol is
//
//	s, err := core.Open(cfg)
//	for !done {
//	        s.SwapGraph(g)      // optional, between rounds only
//	        s.Step()            // one synchronous balancing round
//	        s.Inject(arrivals)  // optional, mid-round only
//	        phi, _ := s.Commit()
//	}
//	res := s.Close()
//
// Each round is Step → (Inject)* → Commit; Commit observes the potential,
// advances the trajectory, peak and rebalance bookkeeping that Phi, Metrics
// and Close read, and hands the Round to Config.OnRound, the one per-round
// consumer (lbserved's metrics fold). Arrivals land after the round's
// transfers and before Φ is observed, as in every scenario run, so a trace
// recorded from a live session replays byte-identically through the grid.
//
// A session records its trajectory in one of two ways, chosen at Open. A
// session without a consumer — batch, grid, experiment and -explain runs,
// all bounded by their horizon — keeps the full trace, one Φ per round. A
// session with a consumer is a daemon session (lbserved): it may run
// forever, so it keeps O(1) memory per round — Φ⁰, the last Φ, the peak,
// the rebalance bookkeeping and a ring of the last SteadyWindow potentials
// — and reports no Trace.
type Session struct {
	cfg Config
	g   *graph.G // the active graph: cfg.Graph until SwapGraph activates another
	sys System

	// algoRNG persists across SwapGraph rebuilds so a randomized
	// algorithm's draw stream never restarts mid-run.
	algoRNG *rand.Rand

	lambda2      float64
	delta        int  // cfg.Graph's maximum degree, for Result.Delta
	disconnected bool // static run on a disconnected graph: Horizon is 0
	bound        float64
	boundName    string
	target       float64

	rounds   int
	phi0     float64
	phi      float64   // Φ after the last committed round
	trace    []float64 // every Φ so far; nil for a daemon session
	ring     []float64 // a daemon session's last SteadyWindow Φ: round k's at k % SteadyWindow
	peak     float64
	injected float64   // load landed since the last Commit
	arrivals int       // arrivals handed to Inject since the last Commit
	midRound bool      // Step taken, Commit pending
	view     []float64 // a token session's float view of its loads (Loads)

	lastEvent  int // round index of the most recent load injection
	rebalanced int // first round with Φ ≤ target since lastEvent; -1 while above
	closed     bool

	// phases accumulates per-phase wall time when cfg.Phases is set; nil
	// (the default) keeps the round loop free of clock reads entirely.
	phases *obs.Phases
}

var errSessionClosed = errors.New("core: session is closed")

// Open validates cfg, fills its defaults, computes the spectral inputs and
// theorem bound (static scenarios only — the one-shot theorems never apply
// to ongoing-arrival runs), builds the stepper and observes Φ⁰. The
// returned session has completed round 0: Phi() is Φ⁰, the first entry of
// its trace (or ring). A non-nil cfg.OnRound makes it a daemon session
// (see Session).
func Open(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	s := &Session{
		cfg:        cfg,
		g:          cfg.Graph,
		algoRNG:    rand.New(rand.NewSource(cfg.Seed)),
		delta:      cfg.Graph.MaxDegree(),
		rebalanced: -1,
		phases:     cfg.Phases,
	}

	// Spectral inputs for the bounds (skipped for RandomPartners, whose
	// bounds are topology-free). λ₂ comes through the shared speccache,
	// so repeated runs on the same topology — every unit of a grid sweep
	// — pay for the eigensolve once per process. A disconnected graph has
	// λ₂ = 0 and no theorem: a static run on it ends before round 1.
	n := cfg.Graph.N()
	switch {
	case cfg.Algorithm == RandomPartners || n < 2:
	case !cfg.Graph.IsConnected():
		s.disconnected = cfg.Scenario.IsStatic()
	default:
		t0 := s.phases.Start()
		l2, err := speccache.Lambda2(cfg.Graph)
		s.phases.Stop(obs.PhaseSpectra, t0)
		if err != nil {
			return nil, fmt.Errorf("core: λ₂: %w", err)
		}
		s.lambda2 = l2
	}

	sys, err := buildSystemOn(cfg, cfg.Graph, cfg.Loads, s.algoRNG)
	if err != nil {
		return nil, err
	}
	s.sys = sys

	phi0 := sys.Potential()
	s.target = cfg.Epsilon * phi0
	s.phi0, s.phi, s.peak = phi0, phi0, phi0
	if cfg.OnRound != nil {
		s.ring = make([]float64, SteadyWindow)
		s.ring[0] = phi0
	} else {
		s.trace = append(make([]float64, 0, 128), phi0)
	}

	// Theorem bound and discrete floor — static runs only: a scenario
	// run's target stays ε·Φ⁰ with no theorem attached.
	if cfg.Scenario.IsStatic() {
		switch {
		case cfg.Algorithm == Diffusion && cfg.Mode == Continuous && s.lambda2 > 0:
			s.bound = diffusion.ContinuousBound(cfg.Graph, s.lambda2, cfg.Epsilon)
			s.boundName = "Theorem 4"
		case cfg.Algorithm == Diffusion && cfg.Mode == Discrete && s.lambda2 > 0:
			if thr := diffusion.DiscreteThreshold(cfg.Graph, s.lambda2); thr > s.target {
				s.target = thr
			}
			s.bound = diffusion.DiscreteBound(cfg.Graph, s.lambda2, phi0)
			s.boundName = "Theorem 6"
		case cfg.Algorithm == RandomPartners && cfg.Mode == Continuous:
			s.bound = 120 * math.Log(phi0)
			s.boundName = "Theorem 12 (c=1)"
		case cfg.Algorithm == RandomPartners && cfg.Mode == Discrete:
			thr := randpair.DiscreteThreshold(n)
			if thr > s.target {
				s.target = thr
			}
			s.bound = 240 * math.Log(phi0/thr)
			s.boundName = "Theorem 14 (c=1)"
		}
	}
	// A theorem is named only where a positive bound applies: a start at
	// or under a discrete threshold (or at Φ⁰ ≤ 1 under Theorem 12) has
	// nothing left to bound.
	if !(s.bound > 0) {
		s.bound, s.boundName = 0, ""
	}
	if phi0 <= s.target {
		s.rebalanced = 0
	}
	return s, nil
}

// Config returns the session's configuration with defaults filled in.
func (s *Session) Config() Config { return s.cfg }

// Rounds returns the number of committed rounds.
func (s *Session) Rounds() int { return s.rounds }

// Phi returns the most recently committed potential (Φ⁰ before the first
// Commit).
func (s *Session) Phi() float64 { return s.phi }

// Target returns the convergence target: ε·Φ⁰, raised to the discrete
// threshold where the theorems demand one.
func (s *Session) Target() float64 { return s.target }

// Horizon returns the resolved round cap: 0 for a static run on a
// disconnected graph (see ReasonDisconnected), otherwise cfg.MaxRounds when
// positive, otherwise 16× the theorem bound + 64 (10⁶ when no bound
// applies) for static runs or scenario.DefaultHorizon for scenario runs.
func (s *Session) Horizon() int {
	if s.disconnected {
		return 0
	}
	if s.cfg.MaxRounds > 0 {
		return s.cfg.MaxRounds
	}
	if !s.cfg.Scenario.IsStatic() {
		return scenario.DefaultHorizon
	}
	if s.bound > 0 {
		return int(16*s.bound) + 64
	}
	return 1_000_000
}

// Step advances the stepper one synchronous balancing round and opens the
// round: the caller must Commit (optionally after Inject) before stepping
// again.
func (s *Session) Step() error {
	if s.closed {
		return errSessionClosed
	}
	if s.midRound {
		return errors.New("core: Step called twice without Commit")
	}
	t0 := s.phases.Start()
	s.sys.Step()
	s.phases.Stop(obs.PhaseStep, t0)
	s.midRound = true
	return nil
}

// Inject lands arrivals in the stepper's live load state mid-round — after
// Step, before Commit — returning the total actually injected (discrete
// amounts round to whole tokens; non-positive amounts and out-of-range
// nodes are skipped). Restricting injection to mid-round keeps every
// trajectory expressible as a trace:<file> scenario, which is what makes
// live sessions replayable through the grid.
func (s *Session) Inject(arrivals []scenario.Arrival) (float64, error) {
	if s.closed {
		return 0, errSessionClosed
	}
	if !s.midRound {
		return 0, errors.New("core: Inject outside a round (call Step first)")
	}
	t0 := s.phases.Start()
	total := injectInto(s.sys, arrivals)
	s.phases.Stop(obs.PhaseInject, t0)
	s.injected += total
	s.arrivals += len(arrivals)
	return total, nil
}

// SwapGraph activates g, which must have the session's node count, between
// rounds; a no-op when g is already active.
//
// A stepper whose only state is its load vector moves onto g in place,
// keeping its load buffer and scratch, so a churned run, which swaps
// graphs every round, copies no loads: Algorithm 1 (the next Step builds
// its round body for g) and random-matching dimension exchange (each
// round draws its matching from the active graph) through SetGraph, and
// Algorithm 2, which never reads the edges, as it is. A stepper with state
// derived from its graph is rebuilt on the current loads with the
// persistent algorithm RNG: first-order diffusion (α = 1/(δ+1)),
// second-order diffusion (β from γ) and round-robin exchange (a colouring
// of the graph as its schedule). Either way the trajectory is the one a
// fresh stepper on g would run. Only the configured graph's spectra go
// through the process-wide cache (see buildSystemOn).
func (s *Session) SwapGraph(g *graph.G) error {
	if s.closed {
		return errSessionClosed
	}
	if g == nil {
		return errors.New("core: SwapGraph(nil)")
	}
	if s.midRound {
		return errors.New("core: SwapGraph mid-round (Commit first)")
	}
	if g == s.g {
		return nil
	}
	if g.N() != s.g.N() {
		return fmt.Errorf("core: SwapGraph to %d nodes, the session has %d", g.N(), s.g.N())
	}
	t0 := s.phases.Start()
	err := s.moveTo(g)
	s.phases.Stop(obs.PhaseGraphSwap, t0)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// moveTo carries the stepper onto g: in place where its only state is its
// loads, otherwise by a rebuild (see SwapGraph).
func (s *Session) moveTo(g *graph.G) error {
	switch s.cfg.Algorithm {
	case RandomPartners:
		return nil
	case Diffusion, DimensionExchange:
		s.sys.(interface{ SetGraph(*graph.G) }).SetGraph(g)
		return nil
	}
	var sys System
	var err error
	if tok, ok := s.sys.(Stepper[int64]); ok {
		// Tokens go to the new stepper as they are (it copies them): a
		// float64 round trip would create or destroy tokens above 2⁵³.
		sys, err = build(s.cfg, g, tok.Values(), s.algoRNG)
	} else {
		sys, err = buildSystemOn(s.cfg, g, s.sys.(Stepper[float64]).Values(), s.algoRNG)
	}
	if err != nil {
		return err
	}
	s.sys = sys
	return nil
}

// Round is one committed round, as Commit hands it to Config.OnRound.
type Round struct {
	Index    int     // the round's number: Rounds() once it has committed
	Phi      float64 // Φ after the round
	Injected float64 // load Inject landed in the round
	Arrivals int     // arrivals handed to Inject in the round
}

// Commit closes the round: observes the potential (all obs.PhaseCommit
// times), records it (in the full trace, or a daemon session's ring),
// advances the peak and rebalance bookkeeping, hands the round to
// Config.OnRound when set, and returns the new Φ.
func (s *Session) Commit() (float64, error) {
	if s.closed {
		return 0, errSessionClosed
	}
	if !s.midRound {
		return 0, errors.New("core: Commit without Step")
	}
	t0 := s.phases.Start()
	phi := s.sys.Potential()
	s.phases.Stop(obs.PhaseCommit, t0)
	s.rounds++
	s.phi = phi
	if s.ring != nil {
		s.ring[s.rounds%SteadyWindow] = phi
	} else {
		s.trace = append(s.trace, phi)
	}
	if phi > s.peak {
		s.peak = phi
	}
	switch {
	case s.injected > 0:
		s.lastEvent, s.rebalanced = s.rounds, -1
	case s.rebalanced < 0 && phi <= s.target:
		s.rebalanced = s.rounds
	}
	r := Round{Index: s.rounds, Phi: phi, Injected: s.injected, Arrivals: s.arrivals}
	s.injected, s.arrivals = 0, 0
	s.midRound = false
	if s.cfg.OnRound != nil {
		s.cfg.OnRound(r)
	}
	return phi, nil
}

// Loads returns the stepper's live load state as a float vector: the
// continuous vector itself (no copy — treat as read-only), or the
// session's one float view of the token counts, refreshed by this call.
// Either is valid only until the next Step, Inject or SwapGraph; Snapshot
// is the copy to retain. This is the view scenario arrival processes
// observe.
func (s *Session) Loads() []float64 {
	if tok, ok := s.sys.(Stepper[int64]); ok {
		s.view = floatView(s.view, tok.Values())
		return s.view
	}
	return s.sys.(Stepper[float64]).Values()
}

// Snapshot returns a copy of the per-node load state, safe to retain.
func (s *Session) Snapshot() []float64 {
	if tok, ok := s.sys.(Stepper[int64]); ok {
		return floatView(nil, tok.Values())
	}
	return slices.Clone(s.sys.(Stepper[float64]).Values())
}

// floatView writes the token counts into buf as floats (exact below 2⁵³
// tokens per node), growing it only when it is too short, and returns it.
func floatView(buf []float64, tok []int64) []float64 {
	buf = slices.Grow(buf[:0], len(tok))[:len(tok)]
	for i, x := range tok {
		buf[i] = float64(x)
	}
	return buf
}

// Metrics returns the live Result as of the last Commit: the theorem
// bound and the scenario metrics both, with RebalanceRounds -1 while Φ has
// stayed above the target since the last injection. Trace is the session's
// own trajectory, valid until the next Commit; a daemon session has none,
// and its SteadyRMS is the window one (see steadyRMS). lbserved serves
// this record from /metrics; a daemon's scrape costs O(SteadyWindow), not
// O(rounds).
func (s *Session) Metrics() Result {
	res := Result{
		Outcome: batch.Outcome{
			Rounds:          s.rounds,
			Converged:       s.phi <= s.target,
			PhiStart:        s.phi0,
			PhiEnd:          s.phi,
			Bound:           s.bound,
			BoundName:       s.boundName,
			PeakPhi:         s.peak,
			SteadyRMS:       s.steadyRMS(),
			RebalanceRounds: -1,
		},
		Algorithm: s.cfg.Algorithm,
		Mode:      s.cfg.Mode,
		Trace:     s.trace,
		Lambda2:   s.lambda2,
		Delta:     s.delta,
	}
	if s.rebalanced >= 0 {
		res.RebalanceRounds = s.rebalanced - s.lastEvent
	}
	if s.disconnected && !res.Converged {
		res.Reason = ReasonDisconnected
	}
	return res
}

// Close seals the session and reports the run: Metrics, less what
// Balance has never reported for its kind of run. A static session's
// Result drops the scenario metrics (PeakPhi, SteadyRMS, RebalanceRounds);
// a scenario session has no theorem bound to drop. RebalanceRounds is 0
// when Φ never got back under the target.
func (s *Session) Close() Result {
	s.closed = true
	res := s.Metrics()
	if s.cfg.Scenario.IsStatic() {
		res.PeakPhi, res.SteadyRMS, res.RebalanceRounds = 0, 0, 0
	}
	res.RebalanceRounds = max(res.RebalanceRounds, 0)
	return res
}

// SteadyWindow is the length of a daemon session's Φ ring: the most
// rounds its SteadyRMS averages over (8 KB of float64s).
const SteadyWindow = 1024

// steadyRMS is the steady-state metric scenario runs report: the mean RMS
// discrepancy √(Φ/n) over the last q potentials of the trajectory, summed
// oldest first, where q is a quarter of the k+1 potentials of k rounds (at
// least one). A daemon session's q is also at most SteadyWindow: below
// 4·SteadyWindow rounds its value is the last-quarter one bit for bit, and
// past that it is the mean over a fixed window of the latest rounds.
func (s *Session) steadyRMS() float64 {
	q := max((s.rounds+1)/4, 1)
	var older, newer []float64
	if s.ring == nil {
		older = s.trace[len(s.trace)-q:]
	} else {
		q = min(q, SteadyWindow)
		first := (s.rounds - q + 1) % SteadyWindow
		end := first + q // past SteadyWindow, the window wraps to the ring's start
		older, newer = s.ring[first:min(end, SteadyWindow)], s.ring[:max(end-SteadyWindow, 0)]
	}
	n := float64(s.cfg.Graph.N())
	var sum float64
	for _, seg := range [2][]float64{older, newer} {
		for _, p := range seg {
			sum += math.Sqrt(p / n)
		}
	}
	return sum / float64(q)
}
