package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/speccache"
	"repro/internal/spectral"
	"repro/internal/topoparse"
)

// options sizes one run.
type options struct {
	seed   int64
	window time.Duration
	// workers is the busy-goroutine and connection budget of the load: the
	// machine's CPU count.
	workers int
	// small shrinks every input so a whole run takes about a second (the
	// smoke test).
	small   bool
	workDir string
}

// bench is one workload's implementation.
type bench interface {
	// setUp builds the workload's inputs from nothing: graphs, cold spectra
	// and an opened session or server. The harness resets the shared
	// spectral cache before each call and times it as setup_s.
	setUp(st *setupStats) error
	// check runs the untimed output checks that compare configurations
	// (round worker counts, Session drive against core.Balance) and warms
	// the caches the measured window relies on.
	check() error
	// measure runs the workload until deadline, adding to w. With a
	// non-nil tracer it also times each layer call and records spans.
	measure(deadline time.Time, tr *obs.Tracer, w *window) error
	// nodes is the node count per-node costs divide by.
	nodes() int
}

// setupStats splits one set-up into its layers.
type setupStats struct {
	build, spectra, open time.Duration // open excludes the spectral solve
	solves               spectral.SolveCounts
}

// topologySeed builds every randomized topology: the input seed varies the
// loads and scenario draws, never the graph, so set-up solves the same
// eigenproblem on every run.
const topologySeed = 1

// buildTimed builds a topology, adding the time to st.
func buildTimed(st *setupStats, name string, n int) (*graph.G, error) {
	t0 := time.Now()
	g, err := topoparse.Build(name, n, topologySeed)
	st.build += time.Since(t0)
	return g, err
}

// openTimed opens a session, splitting its time into the spectral solve and
// the rest of Open.
func openTimed(st *setupStats, cfg core.Config) (*core.Session, error) {
	ph := &obs.Phases{}
	cfg.Phases = ph
	t0 := time.Now()
	s, err := core.Open(cfg)
	d := time.Since(t0)
	st.spectra += ph.Duration(obs.PhaseSpectra)
	st.open += d - ph.Duration(obs.PhaseSpectra)
	return s, err
}

// window accumulates one measured stretch of a workload.
type window struct {
	elapsed   time.Duration
	latencies []float64 // ms, one per operation
	rounds    int64
	// rates are round-rate samples (rounds/s): one per cell, sweep pass or
	// second of serving, so rounds_per_s is a median like the latencies.
	rates     []float64
	attempted int
	failed    int
	failures  []string

	// Layer timings. Phase totals come from the trace's phase spans; the
	// rest are timed by the workloads around their calls.
	phase              map[string]time.Duration
	phaseCount         map[string]int64
	graphDraw          time.Duration
	arrive, metrics    time.Duration
	sinkWait, unitBusy time.Duration
	journal, merge     time.Duration
	late               int // requests sent late

	allocs     uint64
	gcCPU, cpu float64
	heapLive   []float64 // MB, 50 ms samples
}

// fail counts a failed operation, keeping the first few reasons.
func (w *window) fail(err error) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, err.Error())
	}
}

// runtime/metrics samples read around every window.
const (
	mHeapLive = "/gc/heap/live:bytes"
	mAllocs   = "/gc/heap/allocs:objects"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mCPU      = "/cpu/classes/total:cpu-seconds"
)

func readRuntime() (live, allocs uint64, gc, cpu float64) {
	s := []metrics.Sample{{Name: mHeapLive}, {Name: mAllocs}, {Name: mGCCPU}, {Name: mCPU}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()
}

// heapSampler samples the live heap every 50 ms.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	live, _, _, _ := readRuntime()
	h.samples = append(h.samples, float64(live)/(1<<20))
}

// finish stops the sampler and returns its samples.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	h.done.Wait()
	h.sample()
	return h.samples
}

// measureWindow runs b for d and returns what it measured. A collection
// first clears set-up and warm-up garbage, so the live-heap samples start
// from the workload's own working set.
func measureWindow(b bench, d time.Duration, tr *obs.Tracer, traceBuf *bytes.Buffer) (*window, error) {
	w := &window{}
	runtime.GC()
	hs := startHeapSampler()
	_, a0, gc0, cpu0 := readRuntime()
	err := b.measure(time.Now().Add(d), tr, w)
	_, a1, gc1, cpu1 := readRuntime()
	w.heapLive = hs.finish()
	w.allocs, w.gcCPU, w.cpu = a1-a0, gc1-gc0, cpu1-cpu0
	if err != nil {
		return w, err
	}
	if tr != nil {
		if err := tr.Flush(); err != nil {
			return w, fmt.Errorf("trace: %w", err)
		}
		if err := w.addPhaseSpans(traceBuf.Bytes()); err != nil {
			return w, err
		}
	}
	return w, nil
}

// addPhaseSpans totals the session phase spans (obs.Phases.EmitSpans) in a
// trace.
func (w *window) addPhaseSpans(trace []byte) error {
	events, err := obs.ReadEvents(bytes.NewReader(trace))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w.phase, w.phaseCount = map[string]time.Duration{}, map[string]int64{}
	for _, ev := range events {
		if ev.Cat != "phase" {
			continue
		}
		w.phase[ev.Name] += time.Duration(ev.Dur) * time.Microsecond
		if c, ok := ev.Args["count"].(float64); ok {
			w.phaseCount[ev.Name] += int64(c)
		}
	}
	return nil
}

// result is one run's metrics, in registry order.
type result struct {
	values  map[string]float64
	samples map[string]int
	order   []metricDef
	// attempted and failed count operations: cells, sweep units or requests.
	attempted, failed int
	failures          []string
}

// runWorkload sets up, checks and measures one workload. traced selects the
// per-layer report: half the window untraced, half traced.
func runWorkload(def workloadDef, o options, tr *obs.Tracer, traceBuf *bytes.Buffer) (*result, error) {
	b := def.make(o)
	var setups []time.Duration
	var sts []setupStats
	for i := 0; i < def.setups; i++ {
		speccache.Shared().Reset()
		st := setupStats{}
		before := spectral.SolveStats()
		spanStart := tr.Now()
		t0 := time.Now()
		if err := b.setUp(&st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		st.solves = solveDelta(before, spectral.SolveStats())
		sts = append(sts, st)
		tr.Complete("set-up", "setup", 0, spanStart, map[string]any{
			"build_us": st.build.Microseconds(), "lambda2_us": st.spectra.Microseconds(), "open_us": st.open.Microseconds(),
		})
	}
	if err := b.check(); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}

	res := &result{values: map[string]float64{}, samples: map[string]int{}}
	if tr == nil {
		w, err := measureWindow(b, o.window, nil, nil)
		if err != nil {
			return nil, err
		}
		res.addWindow(w)
		res.order = endToEnd
		res.set("setup_s", median(durations(setups, time.Second)), len(setups))
		res.set("latency_p50_ms", quantile(w.latencies, 0.5), len(w.latencies))
		res.set("rounds_per_s", median(w.rates), len(w.rates))
		res.set("heap_live_mb", median(w.heapLive), len(w.heapLive))
		return res, nil
	}

	base, err := measureWindow(b, o.window/2, nil, nil)
	if err != nil {
		return nil, err
	}
	res.addWindow(base)
	w, err := measureWindow(b, o.window/2, tr, traceBuf)
	if err != nil {
		return nil, err
	}
	res.addWindow(w)
	res.order = perLayer
	res.set("latency_tail_ms", quantile(base.latencies, def.tail), len(base.latencies))
	k := len(sts)
	pick := func(f func(setupStats) time.Duration, unit time.Duration) float64 {
		v := make([]time.Duration, k)
		for i, st := range sts {
			v[i] = f(st)
		}
		return median(durations(v, unit))
	}
	last := sts[k-1].solves
	n := float64(b.nodes())
	perNode := func(phase string) float64 {
		if w.phaseCount[phase] == 0 {
			return 0
		}
		return float64(w.phase[phase].Nanoseconds()) / (float64(w.phaseCount[phase]) * n)
	}
	busy := func(d time.Duration) float64 { return d.Seconds() / w.elapsed.Seconds() }
	res.set("topoparse.build_ms", pick(func(s setupStats) time.Duration { return s.build }, time.Millisecond), k)
	res.set("speccache.lambda2_ms", pick(func(s setupStats) time.Duration { return s.spectra }, time.Millisecond), k)
	res.set("core.open_us", pick(func(s setupStats) time.Duration { return s.open }, time.Microsecond), k)
	res.set("spectral.closed_form_solves", float64(last.ClosedForm), 1)
	res.set("spectral.lanczos_solves", float64(last.Lanczos), 1)
	res.set("spectral.inverse_power_solves", float64(last.InversePower), 1)
	res.set("spectral.dense_solves", float64(last.Dense), 1)
	res.set("core.step_ns_per_node", perNode("step"), int(w.phaseCount["step"]))
	res.set("core.commit_ns_per_node", perNode("commit"), int(w.phaseCount["commit"]))
	res.set("core.allocs_per_round", ratio(float64(w.allocs), float64(w.rounds)), int(w.rounds))
	res.set("runtime.gc_cpu_frac", ratio(w.gcCPU, w.cpu), 1)
	res.set("core.swapgraph_busy", busy(w.phase["graph-swap"]), int(w.phaseCount["graph-swap"]))
	res.set("scenario.graph_busy", busy(w.graphDraw), int(w.rounds))
	res.set("core.inject_busy", busy(w.phase["inject"]), int(w.phaseCount["inject"]))
	res.set("serve.arrive_busy", busy(w.arrive), w.attempted)
	res.set("serve.metrics_busy", busy(w.metrics), w.attempted)
	res.set("gen.late_frac", ratio(float64(w.late), float64(w.attempted)), w.attempted)
	res.set("batch.pool_busy_frac", busy(w.unitBusy)/float64(o.workers), w.attempted)
	res.set("batch.sink_wait_busy", busy(w.sinkWait), w.attempted)
	res.set("batch.journal_write_busy", busy(w.journal), w.attempted)
	res.set("batch.merge_busy", busy(w.merge), w.attempted)
	res.set("trace.overhead_frac", 1-ratio(median(w.rates), median(base.rates)), len(base.rates)+len(w.rates))
	return res, nil
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *result) addWindow(w *window) {
	r.attempted += w.attempted
	r.failed += w.failed
	r.failures = append(r.failures, w.failures...)
}

// validate reports a metric the registry names but the run did not set, or
// one that is not finite.
func (r *result) validate() error {
	var errs []error
	for _, m := range r.order {
		v, ok := r.values[m.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", m.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			errs = append(errs, fmt.Errorf("metric %s is %v", m.name, v))
		}
	}
	return errors.Join(errs...)
}

func solveDelta(a, b spectral.SolveCounts) spectral.SolveCounts {
	return spectral.SolveCounts{
		ClosedForm:   b.ClosedForm - a.ClosedForm,
		Dense:        b.Dense - a.Dense,
		Lanczos:      b.Lanczos - a.Lanczos,
		InversePower: b.InversePower - a.InversePower,
	}
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func rate(count float64, d time.Duration) float64 { return ratio(count, d.Seconds()) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
