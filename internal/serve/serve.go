// Package serve keeps a balancer hot: a long-lived core.Session advanced
// round-by-round on a wall-clock cadence, fed by live HTTP arrivals
// (POST /arrive) and/or a recorded trace replayed at a controllable
// speed-up, observable through GET /metrics and /healthz, and drained
// gracefully on shutdown. Every arrival the server injects can be recorded
// through a scenario.TraceWriter, so a served workload becomes a
// first-class trace:<file> scenario that re-runs byte-identically through
// the batch grid — the bridge between "production" traffic and the
// paper's reproducible experiments.
//
// Concurrency model: two locks. The session lock (Server.mu) is held by
// the round for its whole floating-point chain — Step, Inject, Commit
// (whose per-round consumer is the metrics fold) and recording — and by
// the readers of the live session (Metrics, drain, Close), so a GET
// /metrics waits at most one round. The ingest lock (ingest.mu) guards
// only the pending arrival queue, the draining flag and the round the
// queue will land in; POST /arrive and /healthz take it alone, for O(1)
// work per arrival, and never wait across a round. Each round takes the
// ingest lock once, to swap the queue for an empty spare the server owns
// (lock order: session, then ingest). Arrivals are injected mid-round
// (after the round's transfers, before the potential is observed),
// exactly where the scenario engine injects, which is what makes recorded
// traces replay exactly.
//
// Memory is bounded. The server's fold is the session's per-round
// consumer, which makes it a core daemon session: it keeps a fixed window
// of the last core.SteadyWindow potentials instead of one Φ per round, so
// the heap stays flat however long the server runs, a /metrics scrape
// costs O(core.SteadyWindow), and steady_rms is the window definition
// (core.Session documents it). Close's Result carries no Trace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Options configures a Server.
type Options struct {
	// Config is the balancer instance: graph, algorithm, mode, initial
	// loads, epsilon, seed, round workers. Validated by core.Open.
	Config core.Config
	// Addr is the listen address (e.g. ":8080"; ":0" picks a free port,
	// see Server.URL).
	Addr string
	// Interval paces the round loop: one balancing round per Interval.
	// Zero or negative free-runs (as fast as the hardware allows).
	Interval time.Duration
	// Replay holds a recorded arrival trace to inject round-for-round
	// (events at round k land during round k+1, like every scenario).
	// Replay ends when the events run out; the server keeps balancing.
	Replay []scenario.Event
	// Record, when set, receives every injected arrival as a trace event.
	// Run flushes it on shutdown; the caller owns Close.
	Record *scenario.TraceWriter
	// DrainTimeout bounds the graceful drain (default 30s); DrainMaxRounds
	// bounds its rounds (default 4096). Drain stops early once Φ falls
	// under the drain target (ε·peak, or the session target if higher).
	DrainTimeout   time.Duration
	DrainMaxRounds int
	// Logf, when set, receives one-line progress logs.
	Logf func(format string, args ...any)
}

// Server is a live balancing session behind an HTTP surface. Create with
// New, then either call Run (round loop + HTTP server + graceful drain)
// or drive rounds manually with StepRound against Handler (tests do).
type Server struct {
	opts Options

	mu     sync.Mutex // the session lock: held across each round
	sess   *core.Session
	in     ingest
	spare  []scenario.Arrival // last round's queue, handed back empty at the next swap
	batch  []scenario.Arrival // the round's arrivals: due replay events, then the queue
	cursor int                // next Replay event to inject
	rounds atomic.Int64       // committed rounds, for /healthz

	arrivalsTotal int64
	loadInjected  float64
	roundTimes    [128]time.Time // round k completed at roundTimes[(k−1) % 128]
	start         time.Time

	addr net.Addr // set once Run is listening
}

// ingest is the state POST /arrive touches, under its own lock so that a
// handler never waits for a round in progress.
type ingest struct {
	mu       sync.Mutex
	pending  []scenario.Arrival
	draining bool
	landing  int // the round index that will inject pending
}

// Backlog summarizes the per-node queue depths.
type Backlog struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Metrics is the GET /metrics document.
type Metrics struct {
	Round           int     `json:"round"`
	Phi             float64 `json:"phi"`
	PhiStart        float64 `json:"phi_start"`
	PeakPhi         float64 `json:"peak_phi"`
	Target          float64 `json:"target"`
	Converged       bool    `json:"converged"`
	RebalanceRounds int     `json:"rebalance_rounds"`
	SteadyRMS       float64 `json:"steady_rms"`
	RoundsPerSec    float64 `json:"rounds_per_sec"`
	ArrivalsTotal   int64   `json:"arrivals_total"`
	LoadInjected    float64 `json:"load_injected"`
	Pending         int     `json:"pending"`
	ReplayPending   int     `json:"replay_pending"`
	Draining        bool    `json:"draining"`
	UptimeSec       float64 `json:"uptime_sec"`
	Backlog         Backlog `json:"backlog"`
	// Nodes is the full per-node queue depth vector, included while the
	// graph is small enough to serve inline (n ≤ 1024).
	Nodes []float64 `json:"nodes,omitempty"`
}

// New opens the session, with the server's metrics fold as its per-round
// consumer, and validates the replay trace against it.
func New(opts Options) (*Server, error) {
	s := &Server{start: time.Now()}
	cfg := opts.Config
	cfg.OnRound = s.fold
	sess, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	n := opts.Config.Graph.N()
	for _, e := range opts.Replay {
		if e.Node >= n {
			return nil, fmt.Errorf("serve: replay event at round %d targets node %d but the graph has %d nodes", e.Round, e.Node, n)
		}
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	if opts.DrainMaxRounds <= 0 {
		opts.DrainMaxRounds = 4096
	}
	s.opts, s.sess = opts, sess
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// StepRound advances the session one balancing round: replay events due
// this round and all queued HTTP arrivals are injected mid-round, the
// round commits (which runs the metrics fold), and the arrivals are
// recorded, when recording. Returns the new Φ.
func (s *Server) StepRound() (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	k := s.sess.Rounds() // this round's scenario index
	s.in.mu.Lock()
	queued, draining := s.in.pending, s.in.draining
	s.in.pending, s.in.landing = s.spare[:0], k+1
	s.in.mu.Unlock()

	arrivals := s.batch[:0]
	if !draining {
		for s.cursor < len(s.opts.Replay) && s.opts.Replay[s.cursor].Round <= k {
			if e := s.opts.Replay[s.cursor]; e.Round == k {
				arrivals = append(arrivals, scenario.Arrival{Node: e.Node, Amount: e.Amount})
			}
			s.cursor++
		}
	}
	arrivals = append(arrivals, queued...)
	s.batch, s.spare = arrivals, queued

	if err := s.sess.Step(); err != nil {
		return 0, err
	}
	if _, err := s.sess.Inject(arrivals); err != nil {
		return 0, err
	}
	phi, err := s.sess.Commit()
	if err != nil {
		return 0, err
	}

	if s.opts.Record != nil {
		for _, a := range arrivals {
			if err := s.opts.Record.Append(scenario.Event{Round: k, Node: a.Node, Amount: a.Amount}); err != nil {
				return 0, fmt.Errorf("serve: recording: %w", err)
			}
		}
	}
	return phi, nil
}

// fold is the session's per-round consumer (core.Config.OnRound): it
// folds one committed round into the server's counters, its round-rate
// ring and the registry. It runs inside Commit, under the session lock.
func (s *Server) fold(r core.Round) {
	s.arrivalsTotal += int64(r.Arrivals)
	s.loadInjected += r.Injected
	s.rounds.Store(int64(r.Index))
	s.roundTimes[(r.Index-1)%len(s.roundTimes)] = time.Now()

	mRounds.Inc()
	mArrivals.Add(uint64(r.Arrivals))
	mLoadInjected.Add(r.Injected)
	mPhi.Set(r.Phi)
	// Loads refreshes a discrete session's float view, O(n): read it only
	// for a histogram that observes it.
	if s.opts.Config.Graph.N() <= backlogObserveMaxN {
		mBacklog.ObserveAll(s.sess.Loads())
	}
}

// Metrics returns the current metrics document.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	res := s.sess.Metrics()
	loads := s.sess.Snapshot()
	s.in.mu.Lock()
	pending, draining := len(s.in.pending), s.in.draining
	s.in.mu.Unlock()
	m := Metrics{
		Round:           res.Rounds,
		Phi:             res.PhiEnd,
		PhiStart:        res.PhiStart,
		PeakPhi:         res.PeakPhi,
		Target:          s.sess.Target(),
		Converged:       res.Converged,
		RebalanceRounds: res.RebalanceRounds,
		SteadyRMS:       res.SteadyRMS,
		RoundsPerSec:    s.roundsPerSecLocked(),
		ArrivalsTotal:   s.arrivalsTotal,
		LoadInjected:    s.loadInjected,
		Pending:         pending,
		ReplayPending:   len(s.opts.Replay) - s.cursor,
		Draining:        draining,
		UptimeSec:       time.Since(s.start).Seconds(),
	}
	s.mu.Unlock()

	// The O(n) quantile selection happens outside the lock, on the
	// snapshot copy; a served node vector keeps its order, so selection
	// then reorders a second copy.
	if len(loads) <= 1024 {
		m.Nodes = loads
		loads = append([]float64(nil), loads...)
	}
	m.Backlog = backlog(loads)
	return m
}

// roundsPerSecLocked estimates the recent round rate from the completion
// ring buffer.
func (s *Server) roundsPerSecLocked() float64 {
	last := s.sess.Rounds()
	held := min(last, len(s.roundTimes))
	if held < 2 {
		return 0
	}
	at := func(k int) time.Time { return s.roundTimes[(k-1)%len(s.roundTimes)] }
	span := at(last).Sub(at(last - held + 1)).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(held-1) / span
}

// backlog computes the queue-depth summary of one load snapshot. It
// reorders loads: the quantiles are selected in place, each the value the
// sorted vector holds at that rank.
func backlog(loads []float64) Backlog {
	n := len(loads)
	if n == 0 {
		return Backlog{}
	}
	var sum float64
	for _, v := range loads {
		sum += v
	}
	rank := func(q float64) int { return max(int(math.Ceil(q*float64(n)))-1, 0) }
	// Select from the top rank down: each selection leaves every smaller
	// rank in the prefix before it, so the next one searches only that.
	r99, r90, r50 := rank(0.99), rank(0.90), rank(0.50)
	selectRank(loads, r99)
	selectRank(loads[:r99+1], r90)
	selectRank(loads[:r90+1], r50)
	top := loads[r99]
	for _, v := range loads[r99+1:] {
		if less(top, v) {
			top = v
		}
	}
	return Backlog{Mean: sum / float64(n), P50: loads[r50], P90: loads[r90], P99: loads[r99], Max: top}
}

// less orders floats as sort.Float64s does: NaN first.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank reorders a so that a[k] holds the value sort.Float64s would
// put there, with no larger value before it and no smaller one after
// (Hoare's selection: the nth_element of C++).
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for less(a[i], p) {
				i++
			}
			for less(p, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// arriveRequest is one POST /arrive item.
type arriveRequest struct {
	Node   int     `json:"node"`
	Amount float64 `json:"amt"`
}

// Handler returns the HTTP surface: POST /arrive, GET /metrics (the JSON
// document, shape unchanged since PR 8), GET /metrics/prom (Prometheus
// text exposition of the process registry), GET /healthz, and the pprof
// family under /debug/pprof/ — the standard observability trio on the one
// daemon port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/arrive", s.handleArrive)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.in.mu.Lock()
		draining := s.in.draining
		s.in.mu.Unlock()
		round := s.rounds.Load()
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "round": round, "draining": draining})
	})
	obs.RegisterDebug(mux, obs.Default())
	return mux
}

// maxPending bounds the HTTP arrivals queued between two rounds. A paced
// round loop drains the queue once per round, so without a bound a client
// could queue arrivals faster than rounds consume them, without limit.
var maxPending = 1 << 20

// handleArrive queues arrivals for the next round. The body is one JSON
// object {"node":i,"amt":x} or an array of them; amounts must be positive
// and finite, nodes in range. During drain ingest is refused with 503. A
// request that would push the queue past maxPending is refused whole with
// 429, so an accepted request's "queued" count is always exact.
func (s *Server) handleArrive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad JSON: %v", err)})
		return
	}
	var reqs []arriveRequest
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &reqs); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad JSON array: %v", err)})
			return
		}
	} else {
		var one arriveRequest
		if err := json.Unmarshal(raw, &one); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad JSON object: %v", err)})
			return
		}
		reqs = []arriveRequest{one}
	}
	n := s.opts.Config.Graph.N()
	for _, a := range reqs {
		if a.Node < 0 || a.Node >= n {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("node %d out of range [0,%d)", a.Node, n)})
			return
		}
		if !(a.Amount > 0) || math.IsInf(a.Amount, 0) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("amount %v must be positive and finite", a.Amount)})
			return
		}
	}

	s.in.mu.Lock()
	if s.in.draining {
		s.in.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	if len(s.in.pending)+len(reqs) > maxPending {
		queued := len(s.in.pending)
		s.in.mu.Unlock()
		mArrivalsRejected.Add(uint64(len(reqs)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": fmt.Sprintf("arrival queue full: %d queued + %d arriving exceeds %d; retry after the next round", queued, len(reqs), maxPending)})
		return
	}
	for _, a := range reqs {
		s.in.pending = append(s.in.pending, scenario.Arrival{Node: a.Node, Amount: a.Amount})
	}
	round := s.in.landing
	s.in.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{"queued": len(reqs), "round": round})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Run serves HTTP and paces the round loop until ctx is cancelled, then
// drains: ingest stops (503), the loop free-runs until Φ reaches the drain
// target (ε·peak, or the session target if higher) or the drain budget is
// spent, the recorder is flushed, and the HTTP server shuts down. Returns
// nil on a clean drain — the daemon's graceful SIGTERM exit.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.mu.Lock()
	s.addr = ln.Addr()
	s.mu.Unlock()
	hs := &http.Server{Handler: s.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	s.logf("listening on http://%s (interval %v, replay %d events)", ln.Addr(), s.opts.Interval, len(s.opts.Replay))

	var tickC <-chan time.Time
	if s.opts.Interval > 0 {
		tick := time.NewTicker(s.opts.Interval)
		defer tick.Stop()
		tickC = tick.C
	}

	runErr := func() error {
		for {
			select {
			case <-ctx.Done():
				return nil
			case err := <-httpErr:
				return err
			default:
			}
			if tickC != nil {
				select {
				case <-ctx.Done():
					return nil
				case err := <-httpErr:
					return err
				case <-tickC:
				}
			}
			if _, err := s.StepRound(); err != nil {
				return err
			}
		}
	}()

	if runErr == nil {
		runErr = s.drain()
	}
	if s.opts.Record != nil {
		if err := s.opts.Record.Flush(); err != nil && runErr == nil {
			runErr = fmt.Errorf("serve: flushing recording: %w", err)
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// drain free-runs rounds with ingest stopped until Φ reaches the drain
// target or the drain budget (rounds or wall clock) is spent. Arrivals
// queued before the drain began are still injected — they were accepted.
func (s *Server) drain() error {
	s.mu.Lock()
	s.in.mu.Lock()
	s.in.draining = true
	s.in.mu.Unlock()
	res := s.sess.Metrics()
	target := max(s.sess.Config().Epsilon*res.PeakPhi, s.sess.Target())
	phi := res.PhiEnd
	s.mu.Unlock()

	s.logf("draining: Φ %.6g → target %.6g (≤ %d rounds, ≤ %v)",
		phi, target, s.opts.DrainMaxRounds, s.opts.DrainTimeout)
	deadline := time.Now().Add(s.opts.DrainTimeout)
	rounds := 0
	for phi > target && rounds < s.opts.DrainMaxRounds && time.Now().Before(deadline) {
		var err error
		if phi, err = s.StepRound(); err != nil {
			return err
		}
		rounds++
	}
	s.logf("drained: Φ %.6g after %d drain rounds", phi, rounds)
	return nil
}

// Close seals the session and returns the run's Result: the report a
// batch run of the whole ingested workload would produce, less the Trace
// a daemon session does not keep, and with the window SteadyRMS.
func (s *Server) Close() core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess.Close()
}
