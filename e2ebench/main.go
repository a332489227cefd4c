// Command e2ebench is the end-to-end benchmark of the load-balancing stack:
// four workloads that drive the paper's Algorithm 1 through the packages'
// public functions — topoparse.Build, speccache/spectral, core.Open / Step /
// Inject / SwapGraph / Commit / Close, core.Balance, core.GridRun,
// batch.MergeJournals and serve.New / StepRound / Metrics / Handler — and
// report what a user of each surface pays.
//
// Run it from the repository root:
//
//	bash e2ebench/run.sh --workload cell  --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module into .bench_build (or $CARGO_TARGET_DIR) and
// keeps the Go build cache there too. Each run is its own process with a
// cold spectral cache; the benchmark refuses to run when LB_SPECCACHE_DIR
// would let spectra leak in from disk.
//
// # Workloads
//
//	cell   static continuous cells, hypercube n=2¹⁴, ε=1e-6, spike (seeded
//	       node) over uniform noise, serial rounds. Step dominates; spectra
//	       are closed-form; churn, inject, batch and serve are bypassed.
//	churn  discrete cells, random 4-regular n=4096, edge-churn:0.1 with
//	       scenario seed seed+i for cell i, run to ε·Φ⁰ (ε=1e-3). SwapGraph,
//	       the subgraph draw and Commit dominate; set-up is a cold Lanczos
//	       λ₂ solve.
//	sweep  the grid {torus, hypercube, random-regular, debruijn} ×
//	       {diffusion, dimexchange, randpair} × {continuous, discrete} ×
//	       {spike, uniform} × {static, poisson-arrivals,
//	       adversarial-respike}, n=1024, Workers = CPU count, two seeds per
//	       pass; each pass journals unsharded, then as two shards merged by
//	       batch.MergeJournals. The only workload on the batch layer.
//	serve  in-process lbserved, hypercube n=2¹⁴, uniform start, free-running
//	       rounds; open loop of 200 POST /arrive per second (four seeded
//	       arrivals each) plus GET /metrics every 200 ms over one connection
//	       per CPU.
//
// Timing covers --seconds of work after an untimed set-up and warm-up. Load
// comes from this one process with at most one busy goroutine or
// connection per CPU.
//
// # Metrics
//
// With --trace 0 a run reports the end-to-end metrics, each with the
// regression bound BENCHMARK.json fixes:
//
//	setup_s            s    median of repeated cold set-ups: graph build,
//	                        λ₂ solve, session or server open
//	latency_p50_ms     ms   median operation latency: a cell from Open to
//	                        Close, a sweep unit, or a POST /arrive from its
//	                        scheduled send time
//	rounds_per_s       1/s  median round rate: per cell (cell, churn), per
//	                        sweep pass, or per second of serving
//	heap_live_mb       MB   median /gc/heap/live:bytes in 50 ms samples
//
// With --trace 1 the window is split: half untraced, half with every layer
// call timed and recorded as a span, and the run reports the per-layer
// metrics instead. latency_tail_ms, the p90 of the operation latency (p99
// for serve) over the untraced half, is listed with them: on a shared
// machine its run-to-run spread is too wide for a regression bound. The
// set-up metrics (topoparse.build_ms, speccache.lambda2_ms, core.open_us,
// spectral.*_solves) come from the set-ups, the phase costs
// (core.step_ns_per_node, core.commit_ns_per_node) from the session phase
// spans, and the busy shares (unit s/s: seconds in the layer per second of
// window) from calls the benchmark times. A layer a workload bypasses
// reports a busy share of 0. trace.overhead_frac is 1 − traced/untraced
// rounds_per_s. The registry in registry.go names each metric's layer and
// the end-to-end metric it should move.
//
// Every workload checks its outputs: cells conserve load (tokens exactly,
// continuous load within 1e-9 relative), reach their target and stay within
// the Theorem 4 bound; a static cell's final state is bit-identical at one
// and at several round workers; a churn cell's Session drive equals
// core.Balance; merged shard journals match the unsharded journal byte for
// byte; the server holds its initial load plus every accepted arrival. A
// failed check makes the run exit 1.
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it print
// each metric as "name value unit". -out writes the same result with its
// provenance (Go version, GOMAXPROCS, CPU count, sample counts, each
// per-layer metric's layer and the metric it should move), and
// -trace-out a Perfetto-loadable {"traceEvents":[...]} file of a traced run.
//
// The kernel-level gate stays cmd/perfbench: its ns/round grid and the
// committed BENCH_PR*.json baselines compare steppers in isolation, while
// this benchmark measures the same kernels inside whole user-facing
// operations. Orchestrator and launcher overhead, CI wiring and spans inside
// the program are left to later changes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/speccache"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cell, churn, sweep or serve")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", "", "also write the result with its provenance to this JSON file")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the Perfetto trace here")
	workDir := fs.String("work-dir", "", "directory for the sweep's journals (default: the system temp directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: usage: -workload cell|churn|sweep|serve -seed N -seconds S -trace 0|1")
		return 2
	}
	if dir := os.Getenv(speccache.EnvDiskDir); dir != "" {
		fmt.Fprintf(stderr, "e2ebench: %s=%s would serve spectra from disk; unset it so set-up is cold\n", speccache.EnvDiskDir, dir)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, "e2ebench-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	o := options{
		seed:    *seed,
		window:  time.Duration(*secs * float64(time.Second)),
		workers: runtime.NumCPU(),
		workDir: dir,
	}
	var tr *obs.Tracer
	var buf bytes.Buffer
	if *trace == 1 {
		tr = obs.NewTracer(&buf)
	}
	res, err := runWorkload(def, o, tr, &buf)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", def.name, err)
		return 1
	}
	if err := res.validate(); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", def.name, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "e2ebench: %s: check failed: %s\n", def.name, f)
	}
	if tr != nil && *traceOut != "" {
		if err := writeTrace(*traceOut, &buf); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeResult(*out, def.name, *seed, res); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Layer   string  `json:"layer,omitempty"`
	Moves   string  `json:"moves,omitempty"`
}

// metricValues maps each reported metric to its value and unit; detail adds
// the sample count and, for per-layer metrics, the layer and the end-to-end
// metric it should move.
func (r *result) metricValues(detail bool) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range r.order {
		v := metricValue{Value: r.values[m.name], Unit: m.unit}
		if detail {
			v.Samples, v.Layer, v.Moves = r.samples[m.name], m.layer, m.moves
		}
		out[m.name] = v
	}
	return out
}

// printResult writes each metric as "name value unit", then the result
// line.
func printResult(w io.Writer, res *result) error {
	for _, m := range res.order {
		if _, err := fmt.Fprintf(w, "%s %v %s\n", m.name, res.values[m.name], m.unit); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metricValues(false)})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeResult records the run with its provenance.
func writeResult(path, workload string, seed int64, res *result) error {
	b, err := json.MarshalIndent(struct {
		Workload   string                 `json:"workload"`
		Seed       int64                  `json:"seed"`
		GoVersion  string                 `json:"go_version"`
		GOMAXPROCS int                    `json:"gomaxprocs"`
		NumCPU     int                    `json:"num_cpu"`
		Correct    bool                   `json:"correct"`
		Attempted  int                    `json:"attempted"`
		Failed     int                    `json:"failed"`
		Metrics    map[string]metricValue `json:"metrics"`
	}{workload, seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		res.failed == 0, res.attempted, res.failed, res.metricValues(true)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeTrace wraps the in-memory event log into a Chrome trace file.
func writeTrace(path string, events *bytes.Buffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.ExportChrome(bytes.NewReader(events.Bytes()), f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
