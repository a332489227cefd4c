package main

// metricDef declares one reported metric. BENCHMARK.json at the repo root
// lists the same names, units, directions and bounds; TestRegistryMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// layer is the package a per-layer metric measures; moves names the
	// end-to-end metric (and workloads) it should move.
	layer, moves string
}

// endToEnd are the metrics a user of the stack sees; every workload reports
// each of them from an untraced run. The timing bounds are about 1.5× the
// largest run-to-run spread (quartile distance over median, ten seeds)
// measured on a shared 2-CPU machine: up to 16% for latency_p50_ms and
// rounds_per_s.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.24},
	{name: "rounds_per_s", unit: "1/s", better: "higher", bound: 0.24},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayer are the single-layer metrics of a traced run. Layers a workload
// bypasses report 0 for their busy shares, which is the prediction for that
// workload: a change to the layer must leave its end-to-end metrics flat.
var perLayer = []metricDef{
	{name: "latency_tail_ms", unit: "ms", better: "lower", layer: "whole workload",
		moves: "none: the operation latency's p90 (p99 for serve), kept out of the bounded metrics because its spread reached 24%"},
	{name: "topoparse.build_ms", unit: "ms", better: "lower", layer: "topoparse", moves: "setup_s (all)"},
	{name: "speccache.lambda2_ms", unit: "ms", better: "lower", layer: "speccache", moves: "setup_s (churn, sweep)"},
	{name: "core.open_us", unit: "us", better: "lower", layer: "core", moves: "setup_s (all)"},
	{name: "spectral.closed_form_solves", unit: "count", better: "higher", layer: "spectral", moves: "setup_s (cell, sweep, serve)"},
	{name: "spectral.lanczos_solves", unit: "count", better: "lower", layer: "spectral", moves: "setup_s (churn, sweep)"},
	{name: "spectral.inverse_power_solves", unit: "count", better: "lower", layer: "spectral", moves: "setup_s (churn, sweep)"},
	{name: "spectral.dense_solves", unit: "count", better: "lower", layer: "spectral", moves: "setup_s (churn, sweep)"},
	{name: "core.step_ns_per_node", unit: "ns", better: "lower", layer: "core", moves: "rounds_per_s, latency_p50_ms (cell, serve)"},
	{name: "core.commit_ns_per_node", unit: "ns", better: "lower", layer: "core", moves: "latency_p50_ms (cell, churn)"},
	{name: "core.allocs_per_round", unit: "count", better: "lower", layer: "core", moves: "latency_p50_ms (churn)"},
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", layer: "runtime", moves: "latency_p50_ms (churn)"},
	{name: "core.swapgraph_busy", unit: "s/s", better: "lower", layer: "core", moves: "latency_p50_ms (churn)"},
	{name: "scenario.graph_busy", unit: "s/s", better: "lower", layer: "scenario", moves: "latency_p50_ms (churn)"},
	{name: "core.inject_busy", unit: "s/s", better: "lower", layer: "core", moves: "latency_p50_ms (serve); rounds_per_s (sweep)"},
	{name: "serve.arrive_busy", unit: "s/s", better: "lower", layer: "serve", moves: "latency_p50_ms (serve)"},
	{name: "serve.metrics_busy", unit: "s/s", better: "lower", layer: "serve", moves: "latency_p50_ms, rounds_per_s (serve)"},
	{name: "gen.late_frac", unit: "frac", better: "lower", layer: "load generator", moves: "latency_p50_ms (serve)"},
	{name: "batch.pool_busy_frac", unit: "frac", better: "higher", layer: "batch", moves: "rounds_per_s (sweep)"},
	{name: "batch.sink_wait_busy", unit: "s/s", better: "lower", layer: "batch", moves: "rounds_per_s (sweep)"},
	{name: "batch.journal_write_busy", unit: "s/s", better: "lower", layer: "batch", moves: "rounds_per_s (sweep)"},
	{name: "batch.merge_busy", unit: "s/s", better: "lower", layer: "batch", moves: "rounds_per_s (sweep)"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", layer: "benchmark", moves: "none: the cost of the traced run itself"},
}

// workloadDef registers one workload.
type workloadDef struct {
	name, why string
	// tail is the latency percentile reported as latency_tail_ms: the
	// highest one with at least ten samples beyond it at full size.
	tail float64
	// setups is how many cold set-ups a run times; setup_s is their median.
	setups int
	make   func(o options) bench
}

var workloads = []workloadDef{
	{
		name:   "cell",
		why:    "static continuous Algorithm 1 cells on a hypercube: the round kernel dominates; spectra are closed-form and churn, inject, batch and serve are bypassed",
		tail:   0.90,
		setups: 20,
		make:   newCell,
	},
	{
		name:   "churn",
		why:    "discrete Algorithm 1 cells on a random-regular graph under edge churn: SwapGraph, the subgraph draw and Commit dominate; set-up is a cold Lanczos solve",
		tail:   0.90,
		setups: 3,
		make:   newChurn,
	},
	{
		name:   "sweep",
		why:    "a mixed scenario grid through the batch engine, journaled unsharded and as two merged shards: unit pool, sinks, journals and merge",
		tail:   0.90,
		setups: 10,
		make:   newSweep,
	},
	{
		name:   "serve",
		why:    "in-process lbserved under an open-loop HTTP arrival stream: ingest contends with the free-running round loop for the server lock",
		tail:   0.99,
		setups: 20,
		make:   newServe,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
