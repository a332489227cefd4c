package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// serveBench runs lbserved in process: continuous Algorithm 1 on a 2¹⁴-node
// hypercube from a uniform start, the round loop free-running as with
// -speedup replay, behind the server's own HTTP handler on a loopback
// listener. An open-loop generator sends POST /arrive (four seeded arrivals
// each) at 200 requests/s and GET /metrics every 200 ms over one connection
// per CPU; each request is timed from its scheduled send time.
type serveBench struct {
	o     options
	n     int
	rate  float64
	g     *graph.G
	loads []float64
	next  int // schedule index: every window draws fresh arrivals
}

const (
	arrivalsPerRequest = 4
	metricsEvery       = 200 * time.Millisecond
	// lateAfter is how far past its schedule a send counts as late.
	lateAfter = time.Millisecond
)

func newServe(o options) bench {
	b := &serveBench{o: o, n: 1 << 14, rate: 200}
	if o.small {
		b.n = 1 << 8
	}
	return b
}

func (b *serveBench) nodes() int { return b.g.N() }

func (b *serveBench) config(ph *obs.Phases) core.Config {
	return core.Config{
		Graph:     b.g,
		Algorithm: core.Diffusion,
		Mode:      core.Continuous,
		Loads:     b.loads,
		Epsilon:   1e-6,
		Phases:    ph,
	}
}

func (b *serveBench) setUp(st *setupStats) error {
	g, err := buildTimed(st, "hypercube", b.n)
	if err != nil {
		return err
	}
	b.g = g
	rng := rand.New(rand.NewSource(b.o.seed))
	b.loads = make([]float64, g.N())
	for i := range b.loads {
		b.loads[i] = 1000 * rng.Float64()
	}
	ph := &obs.Phases{}
	t0 := time.Now()
	srv, err := serve.New(serve.Options{Config: b.config(ph)})
	d := time.Since(t0)
	if err != nil {
		return err
	}
	st.spectra += ph.Duration(obs.PhaseSpectra)
	st.open += d - ph.Duration(obs.PhaseSpectra)
	srv.Close()
	return nil
}

// check is a short warm-up window: connections, handlers and the heap
// reach their working size, and conservation is checked once.
func (b *serveBench) check() error {
	var w window
	if err := b.measure(time.Now().Add(300*time.Millisecond), nil, &w); err != nil {
		return err
	}
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %s", w.failed, w.attempted, w.failures[0])
	}
	return nil
}

func (b *serveBench) measure(deadline time.Time, tr *obs.Tracer, w *window) error {
	var ph *obs.Phases
	if tr != nil {
		ph = &obs.Phases{}
	}
	srv, err := serve.New(serve.Options{Config: b.config(ph)})
	if err != nil {
		return err
	}
	defer srv.Close()
	var arriveNs, metricsNs atomic.Int64
	h := srv.Handler()
	if tr != nil {
		h = timedHandler(h, tr, &arriveNs, &metricsNs)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	var stop atomic.Bool
	var rounds atomic.Int64
	looped := make(chan error, 1)
	go func() {
		tid := tr.AcquireTID()
		defer tr.ReleaseTID(tid)
		for !stop.Load() {
			start := tr.Now()
			if _, err := srv.StepRound(); err != nil {
				looped <- err
				return
			}
			rounds.Add(1)
			tr.Complete("round", "serve", tid, start, nil)
		}
		looped <- nil
	}()

	jobs := b.schedule(time.Until(deadline))
	spanStart := tr.Now()
	r0 := rounds.Load()
	start := time.Now()
	sampled := make(chan []float64)
	stopSampling := make(chan struct{})
	go sampleRate(&rounds, stopSampling, sampled)
	gen := generate("http://"+ln.Addr().String(), jobs, start, b.o.workers)
	elapsed := time.Since(start)
	r1 := rounds.Load()
	close(stopSampling)
	rates := <-sampled
	if len(rates) == 0 { // a window shorter than one sample
		rates = append(rates, rate(float64(r1-r0), elapsed))
	}

	stop.Store(true)
	loopErr := <-looped
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(ctx)
	serveErr := <-served
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	if err := errors.Join(loopErr, shutErr, serveErr); err != nil {
		return err
	}
	// Land the arrivals still queued: the untimed drain.
	if _, err := srv.StepRound(); err != nil {
		return err
	}
	if tr != nil {
		tid := tr.AcquireTID()
		ph.EmitSpans(tr, tid, spanStart)
		tr.ReleaseTID(tid)
	}

	w.elapsed = elapsed
	w.rounds = r1 - r0
	w.rates = rates
	w.arrive = time.Duration(arriveNs.Load())
	w.metrics = time.Duration(metricsNs.Load())
	var accepted float64
	for _, g := range gen {
		w.latencies = append(w.latencies, g.latencies...)
		w.attempted += g.requests
		w.late += g.late
		for _, err := range g.errs {
			w.fail(err)
		}
		accepted += g.accepted
	}

	// Final total load = initial load + Σ accepted amounts.
	var initial float64
	for _, v := range b.loads {
		initial += v
	}
	m := srv.Metrics()
	total := m.Backlog.Mean * float64(b.g.N())
	if want := initial + accepted; math.Abs(total-want) > 1e-9*want {
		w.fail(fmt.Errorf("load not conserved: %v initial + %v accepted, %v held", initial, accepted, total))
	}
	if math.Abs(m.LoadInjected-accepted) > 1e-9*math.Max(accepted, 1) {
		w.fail(fmt.Errorf("server injected %v, clients had %v accepted", m.LoadInjected, accepted))
	}
	return nil
}

// sampleRate sends the round rate of every second until stop closes.
func sampleRate(rounds *atomic.Int64, stop <-chan struct{}, out chan<- []float64) {
	var rates []float64
	t := time.NewTicker(time.Second)
	defer t.Stop()
	last, lastAt := rounds.Load(), time.Now()
	for {
		select {
		case <-stop:
			out <- rates
			return
		case now := <-t.C:
			r := rounds.Load()
			rates = append(rates, rate(float64(r-last), now.Sub(lastAt)))
			last, lastAt = r, now
		}
	}
}

// job is one scheduled request: POST /arrive with body, or GET /metrics
// when body is nil.
type job struct {
	at     time.Duration
	body   []byte
	amount float64
}

// schedule lays out d of open-loop traffic.
func (b *serveBench) schedule(d time.Duration) []job {
	rng := rand.New(rand.NewSource(parallel.DeriveSeed(b.o.seed, b.next)))
	b.next++
	type arrival struct {
		Node int     `json:"node"`
		Amt  float64 `json:"amt"`
	}
	var jobs []job
	for i := 0; ; i++ {
		at := time.Duration(float64(i) / b.rate * float64(time.Second))
		if at >= d && i > 0 {
			break
		}
		batch := make([]arrival, arrivalsPerRequest)
		var amount float64
		for k := range batch {
			batch[k] = arrival{Node: rng.Intn(b.g.N()), Amt: 1 + 99*rng.Float64()}
			amount += batch[k].Amt
		}
		body, err := json.Marshal(batch)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		jobs = append(jobs, job{at: at, body: body, amount: amount})
	}
	for at := time.Duration(0); at < d; at += metricsEvery {
		jobs = append(jobs, job{at: at})
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].at < jobs[j].at })
	return jobs
}

// genStats is one connection's share of a window.
type genStats struct {
	latencies []float64 // ms from schedule to response, POST /arrive only
	accepted  float64
	requests  int
	late      int
	errs      []error
}

// generate replays jobs from start over conns connections, job j on
// connection j mod conns, each connection sending its next request when it
// falls due or, if late, as soon as the previous one returns.
func generate(url string, jobs []job, start time.Time, conns int) []genStats {
	out := make([]genStats, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
			st := &out[c]
			for j := c; j < len(jobs); j += conns {
				due := start.Add(jobs[j].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if time.Since(due) > lateAfter {
					st.late++
				}
				st.requests++
				status, err := send(client, url, jobs[j].body)
				done := time.Since(due)
				switch {
				case err != nil:
					st.errs = append(st.errs, err)
				case jobs[j].body == nil && status != http.StatusOK:
					st.errs = append(st.errs, fmt.Errorf("GET /metrics: status %d", status))
				case jobs[j].body != nil && status != http.StatusAccepted:
					st.errs = append(st.errs, fmt.Errorf("POST /arrive: status %d", status))
				case jobs[j].body != nil:
					st.accepted += jobs[j].amount
				}
				if jobs[j].body != nil {
					st.latencies = append(st.latencies, ms(done))
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

func send(client *http.Client, url string, body []byte) (int, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(url + "/metrics")
	} else {
		resp, err = client.Post(url+"/arrive", "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// timedHandler adds each request's handler time to arrive or metrics and
// records it as a span.
func timedHandler(h http.Handler, tr *obs.Tracer, arrive, metrics *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tid := tr.AcquireTID()
		start := tr.Now()
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		d := int64(time.Since(t0))
		switch r.URL.Path {
		case "/arrive":
			arrive.Add(d)
		case "/metrics":
			metrics.Add(d)
		}
		tr.Complete(r.Method+" "+r.URL.Path, "http", tid, start, nil)
		tr.ReleaseTID(tid)
	})
}
