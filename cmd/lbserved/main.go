// Command lbserved is the trace-driven service mode: a daemon that keeps
// one balancer instance hot, applies the paper's algorithms continuously
// round-by-round at a wall-clock cadence, ingests arrivals over HTTP and
// from recorded traces at a controllable speed-up, and exposes live
// observability:
//
//	POST /arrive         {"node":3,"amt":1200} or an array of such objects
//	GET  /metrics        backlog percentiles, rebalance latency, per-node
//	                     queue depth, rounds/sec, Φ trajectory summary (JSON)
//	GET  /metrics/prom   the same counters in Prometheus text exposition
//	GET  /debug/pprof/   live profiling (goroutine, heap, 30s CPU profile)
//	GET  /healthz        liveness + current round
//
// All endpoints share the -addr listener; -telemetry binds /metrics/prom and
// /debug/pprof/* on a second (typically loopback-only) address as well, so
// ingest and observability can sit behind different firewalls.
//
// Replay a captured trace at 5000 rounds a second, re-recording what lands:
//
//	lbserved -topo torus -n 64 -replay trace.jsonl -hz 5000 \
//	         -record replayed.jsonl -addr :8080
//
// On SIGINT/SIGTERM the daemon drains: ingest stops (503), the round loop
// free-runs until the potential falls under ε·peak (or the drain budget is
// spent), the recording is flushed, and the process exits 0. A second
// signal kills immediately. Recorded traces are first-class grid
// scenarios: `lbbench -grid -scenarios trace:replayed.jsonl ...` re-runs
// the exact ingested workload byte-reproducibly on the sweep engine.
//
// Exit codes: 0 clean (including graceful drain); 1 runtime failure;
// 2 usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/signals"
	"repro/internal/workload"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("lbserved", flag.ContinueOnError)
	var (
		topo         = fs.String("topo", "torus", "topology name (as in lbbench -topos)")
		n            = fs.Int("n", 64, "node count")
		algo         = fs.String("algo", "diffusion", "balancing algorithm (as in lbbench -algos)")
		mode         = fs.String("mode", "continuous", "load model: continuous or discrete")
		loadKind     = fs.String("load", "", "initial workload kind (as in lbbench -loads); empty starts idle (all-zero loads)")
		scale        = fs.Float64("scale", 1e6, "initial workload magnitude (with -load)")
		eps          = fs.Float64("eps", 1e-3, "balance target ε (Φ ≤ ε·Φ⁰; also the drain target's ε·peak)")
		seed         = fs.Int64("seed", 1, "algorithm RNG seed")
		addr         = fs.String("addr", ":8080", "HTTP listen address (\":0\" picks a free port)")
		hz           = fs.Float64("hz", 50, "balancing rounds per second (0 free-runs as fast as the hardware allows)")
		replayPath   = fs.String("replay", "", "arrival trace to replay (JSONL, see -record)")
		recordPath   = fs.String("record", "", "record every injected arrival to this JSONL trace (replayable via -replay or lbbench -scenarios trace:<file>)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain wall-clock budget (≥ 0; 0 means 30s)")
		drainRounds  = fs.Int("drain-rounds", 4096, "graceful-drain round budget (≥ 0; 0 means 4096)")
		telemetry    = fs.String("telemetry", "", "serve /metrics/prom and /debug/pprof/* on a second listener at this address (they are also on -addr; empty = off)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return exitUsage
	}
	logger := log.New(os.Stderr, "lbserved: ", log.LstdFlags)
	usage := func(err error) int {
		fmt.Fprintf(os.Stderr, "lbserved: %v\n", err)
		return exitUsage
	}

	if !(*hz >= 0) || math.IsInf(*hz, 1) {
		fmt.Fprintf(os.Stderr, "lbserved: bad -hz %v (want a finite rate ≥ 0; 0 free-runs)\n", *hz)
		return exitUsage
	}
	if *drainRounds < 0 || *drainTimeout < 0 {
		fmt.Fprintf(os.Stderr, "lbserved: -drain-rounds %d and -drain-timeout %v must be ≥ 0 (0 = default)\n", *drainRounds, *drainTimeout)
		return exitUsage
	}
	interval := time.Duration(0)
	if *hz > 0 {
		ns := float64(time.Second) / *hz
		if !(ns < math.MaxInt64) {
			fmt.Fprintf(os.Stderr, "lbserved: -hz %v is slower than one round per 292 years\n", *hz)
			return exitUsage
		}
		interval = time.Duration(ns)
		if interval < time.Microsecond {
			interval = 0 // effectively free-running
		}
	}

	// Names go through the sweep's one normalizer, so lbserved accepts every
	// spelling lbbench -grid does. The graph comes through the batch
	// builder, so lbserved's topology is the same instance a grid unit of
	// the same (topo, n) balances on — what makes a recorded trace replay
	// against the identical graph.
	spec := batch.Spec{Topologies: []string{*topo}, Algorithms: []string{*algo}, Modes: []string{*mode}, N: *n}
	if *loadKind != "" {
		spec.Workloads = []string{*loadKind}
	}
	spec, err := spec.Canonical()
	if err != nil {
		return usage(err)
	}
	graphs, err := batch.BuildGraphs(spec)
	if err != nil {
		return usage(err)
	}
	g := graphs[spec.Topologies[0]]
	// The daemon's one session is a one-unit sweep: the tuner keeps its
	// rounds serial below batch.RoundParallelMinN nodes and gives them
	// every core above it.
	_, roundWorkers := batch.TuneWorkers(1, g.N(), runtime.GOMAXPROCS(0))

	alg, err := core.ParseAlgorithm(spec.Algorithms[0])
	if err != nil {
		return usage(err)
	}
	md, err := load.ParseMode(spec.Modes[0])
	if err != nil {
		return usage(err)
	}

	loads := make([]float64, g.N())
	if len(spec.Workloads) > 0 {
		kind, err := workload.ParseKind(spec.Workloads[0])
		if err != nil {
			return usage(err)
		}
		loads = workload.Continuous(kind, g.N(), *scale, rand.New(rand.NewSource(*seed)))
	}

	cfg := core.Config{
		Graph:     g,
		Algorithm: alg,
		Mode:      md,
		Loads:     loads,
		Epsilon:   *eps,
		Seed:      *seed,
		Workers:   roundWorkers,
	}
	if err := cfg.Validate(); err != nil {
		return usage(err)
	}

	var replay []scenario.Event
	if *replayPath != "" {
		replay, err = scenario.ReadTraceFile(*replayPath)
		if err != nil {
			return usage(err)
		}
		logger.Printf("replaying %d events from %s (round interval %v)",
			len(replay), *replayPath, interval)
	}

	var record *scenario.TraceWriter
	if *recordPath != "" {
		record, err = scenario.CreateTrace(*recordPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbserved: %v\n", err)
			return exitFailure
		}
		defer record.Close()
	}

	// The ingest listener (-addr) already serves /metrics/prom and
	// /debug/pprof/*; -telemetry binds a second, typically loopback-only,
	// listener so operators can firewall ingest and observability apart.
	if *telemetry != "" {
		debugAddr, stopDebug, err := obs.ServeDebug(*telemetry, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbserved: -telemetry: %v\n", err)
			return exitUsage
		}
		defer stopDebug()
		logger.Printf("telemetry: /metrics/prom and /debug/pprof/ on http://%s", debugAddr)
	}

	srv, err := serve.New(serve.Options{
		Config:         cfg,
		Addr:           *addr,
		Interval:       interval,
		Replay:         replay,
		Record:         record,
		DrainTimeout:   *drainTimeout,
		DrainMaxRounds: *drainRounds,
		Logf:           logger.Printf,
	})
	if err != nil {
		return usage(err)
	}

	ctx, stop := signals.Graceful(context.Background())
	defer stop()
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "lbserved: %v\n", err)
		return exitFailure
	}
	m := srv.Metrics()
	srv.Close()
	logger.Printf("done: %d rounds, Φ %.6g → %.6g (peak %.6g, %d arrivals, %.6g load ingested)",
		m.Round, m.PhiStart, m.Phi, m.PeakPhi, m.ArrivalsTotal, m.LoadInjected)
	return exitOK
}
