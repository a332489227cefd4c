// Command lbbench regenerates the paper-reproduction experiment tables and
// runs declarative sweep grids through the parallel batch engine.
//
// Experiment mode (one table per experiment that -list names):
//
//	lbbench -exp all            # run every experiment (E1–E19, A1–A8)
//	lbbench -exp E3,E4          # run selected experiments
//	lbbench -exp E9 -seed 7     # change the seed
//	lbbench -list               # list experiments, topologies, algorithms,
//	                            # modes, workloads and scenarios
//	lbbench -quick              # shrunk sweeps (CI-sized)
//	lbbench -format csv         # CSV instead of aligned tables
//	lbbench -parallel 8         # fan each experiment's sweep over 8 workers
//
// Grid mode (one invocation reproduces a whole paper figure's sweep):
//
//	lbbench -grid -topos cycle,torus,hypercube \
//	        -algos diffusion,dimexchange,randpair \
//	        -modes continuous,discrete -loads spike,uniform \
//	        -n 64 -seeds 1,2,3 -parallel 8 -format csv
//
// The grid expands to topologies × algorithms × modes × workloads ×
// scenarios × seeds run units, executes them across -parallel workers with
// per-unit deterministic RNG streams, and emits one aggregated report
// (table, csv or json). When a grid has fewer units than cores and at
// least batch.RoundParallelMinN nodes, the spare cores fan each unit's
// rounds out inside the stepper (node-level parallelism — the lever for
// few huge cells, where unit fan-out cannot help). Output is identical for
// any -parallel value and any such split.
//
// Scenario sweeps (time-varying arrivals, adversarial spikes, topology
// churn as a grid dimension):
//
//	lbbench -grid -topos torus,hypercube \
//	        -scenarios static,adversarial-respike,poisson-arrivals:0.05 \
//	        -n 64 -seeds 1,2,3 -rounds 128 -format csv
//
// Each non-static scenario injects its arrival process (and/or swaps the
// active graph) between rounds of every unit, runs a fixed horizon
// (-rounds, default 512) and reports peak backlog, steady-state
// discrepancy and time-to-rebalance alongside the usual columns.
// Scenarios take ':'-separated parameters (e.g. bursty:32:0.5); -list
// names them all. Scenario grids shard, journal, resume, stream-aggregate,
// spawn and merge exactly like any other grid dimension.
//
// Streaming and resuming (grids too large for memory, or runs that may be
// interrupted):
//
//	lbbench -grid ... -out cells.jsonl              # journal cells as they finish
//	lbbench -grid ... -resume cells.jsonl -out cells.jsonl
//
// -out streams each finished cell as one JSON line, in deterministic
// expansion order, flushed per cell — an interrupted run (Ctrl-C, SIGTERM,
// even SIGKILL) leaves a valid journal: every line already written is
// intact, and at most a small sequencing window of completed-but-unwritten
// cells (plus one torn final line under a hard kill) is lost and simply
// re-runs. -resume replays the journal's clean cells by unit key, re-runs
// only the missing or failed ones, and emits a report byte-identical to an
// uninterrupted run. -cache-stats reports the shared spectral cache's hit
// counts.
//
// Sharded sweeps (grids too large for one process or one machine):
//
//	lbbench -grid ... -shard 0/3 -out s0.jsonl    # three processes,
//	lbbench -grid ... -shard 1/3 -out s1.jsonl    # each owning every
//	lbbench -grid ... -shard 2/3 -out s2.jsonl    # third unit
//	lbbench -grid ... -merge s0.jsonl,s1.jsonl,s2.jsonl -format csv
//
// -shard i/m runs only the units whose expansion index is ≡ i (mod m), so
// the m shards are disjoint and exhaustive; a dead shard resumes with its
// own journal (-shard 2/3 -resume s2.jsonl -out s2.jsonl). -merge validates
// the per-shard journals (same grid, no overlapping units) and reassembles
// them into a report byte-identical to a single-process sweep, re-running
// any units still missing.
//
// -stream-agg switches to streaming-only aggregation: per-grid-cell
// aggregates and per-dimension marginals are folded incrementally as cells
// arrive (from the live sweep, or from -merge'd journals without re-running
// anything), so memory stays independent of the unit count — no per-cell
// table is materialized or printed. Set LB_SPECCACHE_DIR to let concurrent
// shard processes share eigensolves through a disk spectral-cache spill.
//
// Orchestrated sweeps (one command plans, spawns, supervises and merges):
//
//	lbbench -grid ... -spawn 3 -out sweep/             # the whole pipeline
//	lbbench -grid ... -spawn 3 -emit-matrix github     # serialize the plan
//
// -spawn m plans the m-way shard split, spawns m shard subprocesses of this
// binary (sharing LB_SPECCACHE_DIR, journaling under the -out directory),
// tails the journals for shard-aware live progress on stderr (units
// done/total per shard, ETA, stall warnings), restarts any shard that dies
// with -resume against its own journal (capped retries, loudly reported),
// and on completion hands the finished journals — the planned shards plus
// any stolen sub-shards — to the -merge path above: stdout carries exactly
// what -merge of those journals prints (with or without -stream-agg),
// byte-identical to the single-process sweep. Interrupting the orchestrator
// interrupts the children gracefully; re-running the same command resumes
// every shard. -parallel applies per child. -launcher ssh runs the
// attempts on remote hosts under the same supervision, and -steal-after
// re-splits a stalled shard's unstarted units onto idle slots. -emit-matrix
// github prints the planned split as a GitHub Actions matrix include-list
// instead of running it, so the exact local split is what CI executes.
//
// One unit, by the key a sweep's error column or -trace-out span prints:
//
//	lbbench -explain torus/diffusion/discrete/spike/s1 -n 64
//
// runs it through the sweep's own code under -n, -scale, -eps and -rounds,
// and prints the graph's spectra, the run against its paper bound and the
// Φ trace as round,phi CSV. A failing unit prints its cell's error.
//
// Exit codes: 0 success; 1 failed units or rendering; 2 usage/spec errors;
// 3 interrupted or journal-close failure (resumable); 4 contradictory flag
// combinations (e.g. -spawn with -shard, -resume without -out, -out,
// -shard or -stream-agg without -grid or -merge); 5 shard or spawn counts
// out of range.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/scenario"
	"repro/internal/signals"
	"repro/internal/speccache"
	"repro/internal/topoparse"
	"repro/internal/workload"
)

// Exit codes. Distinct classes let scripts (and the CI smokes) tell a
// resumable interruption from a typo and a typo from a half-failed figure.
const (
	exitFailedUnits = 1 // sweep completed but the figure has holes (or rendering failed)
	exitUsage       = 2 // malformed flags, invalid spec, unreadable journals
	exitInterrupted = 3 // interrupted or journal close failed — journals are resumable
	exitConflict    = 4 // contradictory flag combination, refused before touching any journal
	exitBadCount    = 5 // shard/spawn counts out of range
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		seed  = flag.Int64("seed", 1, "seed for randomized components (experiment mode)")
		quick = flag.Bool("quick", false, "shrink sweeps for a fast run")
		list  = flag.Bool("list", false, "list registered experiments, topologies, algorithms, modes, workloads and scenarios, then exit")

		grid    = flag.Bool("grid", false, "run a declarative sweep grid instead of the experiment tables")
		explain = flag.String("explain", "", "run the one sweep unit this key names (topology/algorithm/mode/workload/s<seed>[/scenario], as sweep errors and -trace-out spans print it) under -n, -scale, -eps and -rounds, and print its spectra, summary and Φ trace")
		gridDef = cliflags.RegisterGrid(flag.CommandLine)
		output  = cliflags.RegisterOutput(flag.CommandLine)

		out        = flag.String("out", "", "grid: stream finished cells to this JSONL journal (a directory with -spawn; resumable with -resume)")
		resume     = flag.String("resume", "", "grid: replay completed cells from this JSONL journal, re-run only the rest (requires -out)")
		shard      = flag.String("shard", "", "grid: run only shard i of m, format i/m")
		units      = flag.String("units", "", "grid: restrict the run to the half-open unit window lo:hi of the expansion ('lo:' for the unbounded tail) — composes with -shard; how the work-stealing supervisor assigns stolen sub-ranges")
		merge      = flag.String("merge", "", "grid: comma-separated per-shard JSONL journals to merge into one report (instead of -resume)")
		cacheStats = flag.Bool("cache-stats", false, "print shared spectral-cache statistics to stderr on exit")

		spawn      = flag.Int("spawn", 0, "grid: orchestrate the sweep as this many shard attempts (plan, launch, supervise, merge; journals under the -out directory)")
		emitMatrix = flag.String("emit-matrix", "", "grid: with -spawn m, print the shard plan as a GitHub Actions matrix (github) instead of running it")
		launch     = cliflags.RegisterLaunch(flag.CommandLine)

		obsFlags  = cliflags.RegisterObs(flag.CommandLine)
		profFlags = cliflags.RegisterProfile(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		printRegistries()
		return
	}
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if *explain != "" && explainIgnored[f.Name] {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		fmt.Fprintf(os.Stderr, "lbbench: -explain runs one unit and ignores %s\n", strings.Join(ignored, ", "))
		os.Exit(exitConflict)
	}
	// A negative pool width or retry cap is a typo, not a request for the
	// default: GOMAXPROCS is -parallel 0, and -retries 0 never restarts.
	if gridDef.Parallel < 0 || launch.Retries < 0 {
		fmt.Fprintf(os.Stderr, "lbbench: -parallel %d and -retries %d must be ≥ 0\n", gridDef.Parallel, launch.Retries)
		os.Exit(exitUsage)
	}
	// Contradictory flag combinations and nonsense counts are refused here,
	// with their own exit codes, before any journal file could be created or
	// truncated — a typo'd orchestration must never cost a partial journal.
	if msg, code := checkFlagCombos(*grid, *spawn, *emitMatrix, *shard, *resume, *out, *merge, *units, output.StreamAgg, launch); code != 0 {
		fmt.Fprintf(os.Stderr, "lbbench: %s\n", msg)
		os.Exit(code)
	}
	// A typo'd -format must not cost a full sweep or experiment run: reject
	// it before running, not when rendering.
	if err := output.CheckFormat(*grid || *merge != ""); err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		os.Exit(exitUsage)
	}
	shardI, shardM, err := cliflags.ParseShard(*shard)
	if err != nil {
		code := exitUsage
		if errors.Is(err, cliflags.ErrShardRange) {
			code = exitBadCount
		}
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		os.Exit(code)
	}
	unitLo, unitHi, err := cliflags.ParseUnits(*units)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		os.Exit(exitUsage)
	}
	// Telemetry and profiling wrap the whole run. All of it is out-of-band —
	// spans and profiles never touch stdout or a journal, so traced and
	// untraced runs emit byte-identical reports.
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lbbench: "+format+"\n", args...)
	}
	tracer, stopObs, err := obsFlags.Start(logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		os.Exit(exitUsage)
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		os.Exit(exitUsage)
	}
	gf := gridFlags{
		grid:   gridDef,
		format: output.Format, out: *out, resume: *resume,
		shardI: shardI, shardM: shardM,
		unitLo: unitLo, unitHi: unitHi,
		merge:     cliflags.SplitList(*merge),
		streamAgg: output.StreamAgg, gridSet: *grid,
		tracer: tracer,
	}
	var code int
	switch {
	case *explain != "":
		spec, err := gridDef.Spec()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			code = exitUsage
			break
		}
		code = runExplain(spec, *explain, tracer)
	case *spawn > 0:
		code = runSpawn(gf, *spawn, *emitMatrix, launch)
	case *grid || *merge != "":
		code = runGrid(gf)
	default:
		code = runExperiments(*exp, *seed, *quick, output.Format == "csv", gridDef.Parallel)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
	}
	if err := stopObs(); err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
	}
	if *cacheStats {
		st := speccache.Shared().Stats()
		fmt.Fprintf(os.Stderr, "lbbench: speccache: %s\n", st)
		fmt.Fprintf(os.Stderr, "lbbench: solve paths: closed-form %d, dense %d, lanczos %d, inverse-power (CG) %d\n",
			st.Solves.ClosedForm, st.Solves.Dense, st.Solves.Lanczos, st.Solves.InversePower)
	}
	os.Exit(code)
}

// checkFlagCombos rejects contradictory flag combinations (exitConflict)
// and out-of-range counts (exitBadCount) up front. Returns code 0 when the
// combination is coherent.
func checkFlagCombos(grid bool, spawn int, emitMatrix, shard, resume, out, merge, units string, streamAgg bool, launch *cliflags.Launch) (string, int) {
	switch {
	case spawn < 0:
		return fmt.Sprintf("-spawn %d: shard count must be positive", spawn), exitBadCount
	case spawn > 0 && !grid:
		return "-spawn orchestrates grid sweeps — pass -grid with the sweep's flags", exitConflict
	case spawn > 0 && shard != "":
		return "-spawn and -shard conflict: the orchestrator owns the shard split (its children get -shard)", exitConflict
	case spawn > 0 && units != "":
		return "-spawn and -units conflict: the orchestrator owns the unit windows (its stolen sub-shards get -units)", exitConflict
	case spawn > 0 && resume != "":
		return "-spawn and -resume conflict: the orchestrator resumes each shard from its own journal automatically", exitConflict
	case spawn > 0 && merge != "":
		return "-spawn and -merge conflict: the orchestrator merges its shard journals automatically", exitConflict
	case spawn > 0 && emitMatrix == "" && out == "":
		return "-spawn needs -out DIR: the directory holding the per-shard journals", exitConflict
	case emitMatrix != "" && spawn <= 0:
		return "-emit-matrix needs -spawn m to size the shard split", exitConflict
	case emitMatrix != "" && emitMatrix != "github":
		return fmt.Sprintf("unknown -emit-matrix %q (want github)", emitMatrix), exitUsage
	case units != "" && !grid:
		return "-units windows grid sweeps — pass -grid with the sweep's flags", exitConflict
	case (out != "" || resume != "" || shard != "" || streamAgg) && !grid && merge == "":
		return "-out, -resume, -shard and -stream-agg apply to grid sweeps — pass -grid with the sweep's flags, or -merge", exitConflict
	case merge != "" && streamAgg && out != "":
		return "-merge -stream-agg folds aggregates and journals nothing — drop -out, or drop -stream-agg to re-journal the merged cells", exitConflict
	case (launch.Launcher != "" && launch.Launcher != "local" || launch.Hosts != "" || launch.RemoteDir != "" || launch.StealAfter > 0) && spawn <= 0:
		return "-launcher/-hosts/-remote-dir/-steal-after configure the orchestrator — pass -spawn m", exitConflict
	case resume != "" && out == "":
		return "-resume without -out: re-running units nothing journals loses them on the next crash — pass -out (typically the same path, to resume in place), or use -merge for a pure render", exitConflict
	case merge != "" && resume != "":
		return "-merge and -resume are mutually exclusive (a merge already replays every journal)", exitConflict
	}
	return "", 0
}

// runSpawn is the orchestrated path: plan the m-way split, then either
// serialize it (-emit-matrix) or launch, supervise and steal — and hand the
// finished journal set to the -merge path, which renders the report.
func runSpawn(f gridFlags, m int, emitMatrix string, launch *cliflags.Launch) int {
	spec, err := f.grid.Spec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitUsage
	}
	launchers, err := launch.Launchers()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitUsage
	}
	plan, err := orchestrator.NewPlan(spec, m, f.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitUsage
	}
	// The topologies must build before m processes each discover the same
	// typo independently.
	if err := core.ValidateGridSpec(plan.Spec); err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitUsage
	}

	if emitMatrix != "" {
		if err := plan.EmitGitHub(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return exitUsage
		}
		return 0
	}

	ctx, stop := signals.Graceful(context.Background())
	sup := &orchestrator.Supervisor{
		Plan:      plan,
		Launchers: launchers,
		Policy:    launch.Policy(),
		Log:       os.Stderr,
		Tracer:    f.tracer,
	}
	err = sup.Run(ctx)
	interrupted := ctx.Err() != nil
	stop()
	switch {
	case err != nil && interrupted:
		fmt.Fprintf(os.Stderr, "lbbench: interrupted — re-run the same -spawn command to resume every shard\n")
		return exitInterrupted
	case err != nil:
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return exitFailedUnits
	}
	// The merge is -merge of the journal set under the plan's grid: the
	// supervised work is done, so the merge takes signals afresh.
	f.merge, f.gridSet = sup.Journals(), true
	f.out, f.resume = "", ""
	mergeStart := f.tracer.Now()
	code := runSweep(plan.Spec, f)
	f.tracer.Complete("merge", "orchestrator", 0, mergeStart, map[string]any{"journals": len(f.merge)})
	return code
}

// runExperiments is the classic per-experiment table mode.
func runExperiments(exp string, seed int64, quick, csv bool, workers int) int {
	var ids []string
	if exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := experiments.Lookup(id); !ok {
				fmt.Fprintf(os.Stderr, "lbbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "lbbench: no experiments selected")
		return 2
	}

	opts := experiments.Options{Seed: seed, Quick: quick, Workers: workers}
	for _, id := range ids {
		runner, _ := experiments.Lookup(id)
		start := time.Now()
		table := runner(opts)
		elapsed := time.Since(start)
		var err error
		if csv {
			err = table.RenderCSV(os.Stdout)
		} else {
			err = table.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: rendering %s: %v\n", id, err)
			return 1
		}
		if !csv {
			fmt.Printf("[%s completed in %v]\n\n", id, elapsed.Round(time.Millisecond))
		}
	}
	return 0
}

// printRegistries is the -list surface: every registered experiment,
// topology, algorithm, mode, workload and scenario with a one-line
// description, so discovering a sweep dimension never requires reading
// source.
func printRegistries() {
	fmt.Println("experiments (-exp):")
	for _, id := range experiments.IDs() {
		fmt.Printf("  %s\n", id)
	}
	section := func(title string, entries [][2]string) {
		fmt.Printf("\n%s:\n", title)
		width := 0
		for _, e := range entries {
			if len(e[0]) > width {
				width = len(e[0])
			}
		}
		for _, e := range entries {
			fmt.Printf("  %-*s  %s\n", width, e[0], e[1])
		}
	}
	section("topologies (-topos)", topoparse.Descriptions())
	section("algorithms (-algos)", core.AlgorithmDescriptions())
	section("modes (-modes)", load.ModeDescriptions())
	section("workloads (-loads)", workload.Descriptions())
	section("scenarios (-scenarios)", scenario.Descriptions())
}

// gridFlags bundles the grid-mode flag values.
type gridFlags struct {
	// grid is the shared dimension/run-parameter flag group (cliflags);
	// grid.Spec() assembles the batch spec.
	grid                *cliflags.Grid
	format, out, resume string
	// merge are the -merge journal paths.
	merge          []string
	shardI, shardM int
	// unitLo/unitHi are the parsed -units window (both zero when absent;
	// unitHi zero for an unbounded tail).
	unitLo, unitHi int
	streamAgg      bool
	// tracer records the sweep's spans when -trace-out is set (nil = off).
	tracer *obs.Tracer
	// gridSet records whether -grid was given explicitly (a bare -merge
	// renders from the journals' own headers, without trusting the grid
	// flags' defaults).
	gridSet bool
}

// runGrid expands and executes one declarative sweep through the batch
// engine — restricted to its -shard slice and -units window — via runSweep.
func runGrid(f gridFlags) int {
	spec, err := f.grid.Spec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return 2
	}
	if f.shardM > 0 {
		spec, err = spec.Shard(f.shardI, f.shardM)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return 2
		}
	}
	if f.unitLo > 0 || f.unitHi > 0 {
		spec, err = spec.Range(f.unitLo, f.unitHi)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return 2
		}
	}
	return runSweep(spec, f)
}

// runSweep runs spec — streaming cells to the -out journal, replaying the
// -resume journal or the -merge'd shard journals — and emits the aggregated
// report (classic, or streaming-only aggregates with -stream-agg).
func runSweep(spec batch.Spec, f gridFlags) int {
	// -merge -stream-agg is the pure render path: fold the shard journals'
	// cells straight into the incremental aggregator and print the summary.
	// Nothing runs, no cell materializes — memory is one buffered cell per
	// journal plus the aggregates themselves.
	if f.streamAgg && len(f.merge) > 0 {
		return renderMergedAggregates(spec, f)
	}

	// The -resume/-merge journals (never both: checkFlagCombos refuses it)
	// are read fully before -out is opened, so resuming in place (-resume X
	// -out X) reads the partial journal and then rewrites it complete.
	var journal *batch.Journal
	switch {
	case len(f.merge) > 0:
		j, stats, err := batch.ReadMergedJournals(f.merge...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return 2
		}
		if stats.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "lbbench: merge: dropped %d corrupt/truncated line(s); those units will re-run\n", stats.Dropped)
		}
		switch {
		case !f.gridSet:
			// A bare -merge sweeps the journals' own grid. The flag spec is
			// all defaults here; silently resuming *that* grid would emit a
			// figure the user never swept, so derive the spec from the
			// headers (already validated mutually consistent by the merge)
			// instead.
			if len(j.Specs) == 0 {
				fmt.Fprintln(os.Stderr, "lbbench: merged journals carry no spec headers — pass -grid with the sweep's flags to name the grid")
				return 2
			}
			hdr := j.Specs[0]
			// Shard and window fields describe the journal's slice, not the
			// merged whole — a steal journal's header names a sub-range.
			hdr.ShardIndex, hdr.ShardCount = 0, 0
			hdr.UnitLo, hdr.UnitHi = 0, 0
			hdr.Workers = f.grid.Parallel
			if f.shardM > 0 {
				if hdr, err = hdr.Shard(f.shardI, f.shardM); err != nil {
					fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
					return 2
				}
			}
			spec = hdr
		case len(j.Specs) > 0:
			// Explicit -grid flags must name the journals' grid exactly —
			// dimensions and seeds included, not just run parameters, since
			// a same-parameter different-dimension resume would silently
			// drop every journal cell outside the flag grid.
			if err := batch.SameGrid(spec, j.Specs[0]); err != nil {
				fmt.Fprintf(os.Stderr, "lbbench: merge: journals do not match the -grid flags: %v\n", err)
				return 2
			}
		}
		journal = j
	case f.resume != "":
		j, err := batch.ReadJournalFile(f.resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return 2
		}
		if j.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "lbbench: journal %s: dropped %d corrupt/truncated line(s); those units will re-run\n", f.resume, j.Dropped)
		}
		// Refuse a parameter mismatch now, while the partial journal is
		// still the only copy — -out may truncate it next.
		if err := j.CheckSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return 2
		}
		journal = j
	}

	// When journal files are at stake, fail on anything the engine would
	// reject — bad dimensions, unknown algorithms, unbuildable topologies —
	// before touching them: -out truncates next, and a partial journal must
	// survive a typo'd resume invocation. (Without journal flags the engine
	// reports the same errors itself, so the topologies are not built twice
	// for nothing.) Runs after the merge/resume reads so a header-derived
	// spec is validated too.
	if f.out != "" || f.resume != "" || len(f.merge) > 0 || f.streamAgg {
		if err := core.ValidateGridSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return 2
		}
	}

	var js *batch.JSONLSink
	if f.out != "" {
		var err error
		if samePath(f.out, f.resume) || slices.ContainsFunc(f.merge, func(m string) bool { return samePath(m, f.out) }) {
			// Resume-in-place: the partial journal was fully read above, so
			// truncating and rewriting it complete is the point.
			js, err = batch.ReplaceJSONL(f.out)
		} else {
			// Fresh journal: O_EXCL, so two shard processes accidentally
			// pointed at the same path fail loudly instead of interleaving.
			js, err = batch.CreateJSONL(f.out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			return 2
		}
		// Error paths below exit non-zero anyway; the success paths close
		// explicitly so a failed fsync can fail the run.
		defer js.Close()
	}

	// SIGINT/SIGTERM cancel the sweep instead of killing the process:
	// in-flight units finish, every remaining cell is journaled with its
	// cancellation error, and the journal closes cleanly for -resume. The
	// first signal consumes the graceful path — once it fires, default
	// disposition is restored so a second Ctrl-C terminates immediately
	// instead of being swallowed while the sweep drains.
	ctx, stop := signals.Graceful(context.Background())
	defer stop()

	if f.streamAgg {
		return runGridStream(ctx, spec, journal, js, f)
	}

	var sink batch.Sink
	if js != nil {
		sink = js
	}
	report, runErr := core.GridRun(ctx, spec, core.GridResume(journal), core.GridSink(sink), core.GridTrace(f.tracer))
	if report == nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", runErr)
		return 2
	}

	if err := report.Render(f.format, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: rendering grid report: %v\n", err)
		return 1
	}
	// Wall time goes to stderr so stdout stays deterministic across worker
	// counts (and across runs).
	fmt.Fprintf(os.Stderr, "lbbench: %d units (%d failed) in %v\n",
		len(report.Cells), report.Failed(), report.Elapsed.Round(time.Millisecond))
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) && f.out != "" {
			fmt.Fprintf(os.Stderr, "lbbench: interrupted — resume with: lbbench -grid ... -resume %s -out %s\n", f.out, f.out)
		} else {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", runErr)
		}
		return 3
	}
	if code := closeJournal(js, f.out); code != 0 {
		return code
	}
	// Any failed unit means the emitted figure has holes: scripts checking
	// the exit status must not mistake a partial sweep for a complete one.
	if report.Failed() > 0 {
		return 1
	}
	return 0
}

// closeJournal closes the -out journal on the success paths, surfacing the
// fsync-and-close error in the exit code: a shard whose final lines never
// reached the platter must not report success for the merger to trust.
// (nil when there is no journal; the deferred double Close is a no-op whose
// error is deliberately discarded.)
func closeJournal(js *batch.JSONLSink, path string) int {
	if js == nil {
		return 0
	}
	if err := js.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: journal %s: %v — journal may be torn; re-run or resume before merging\n", path, err)
		return 3
	}
	return 0
}

// runGridStream executes the sweep through the streaming engine path: cells
// flow to the journal sink and the incremental aggregator only, never into
// an in-process report.
func runGridStream(ctx context.Context, spec batch.Spec, journal *batch.Journal, js *batch.JSONLSink, f gridFlags) int {
	agg := batch.NewAggSink()
	var sink batch.Sink = agg
	if js != nil {
		sink = batch.MultiSink{js, agg}
	}
	_, runErr := core.GridRun(ctx, spec, core.GridStreamOnly(), core.GridResume(journal), core.GridSink(sink), core.GridTrace(f.tracer))
	rep := agg.Report()
	if code := renderAggReport(rep, f.format); code != 0 {
		return code
	}
	fmt.Fprintf(os.Stderr, "lbbench: %d units (%d failed) folded, streaming\n", rep.Units, rep.Failed)
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) && f.out != "" {
			fmt.Fprintf(os.Stderr, "lbbench: interrupted — resume with: lbbench -grid ... -resume %s -out %s\n", f.out, f.out)
		} else {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", runErr)
		}
		return 3
	}
	if code := closeJournal(js, f.out); code != 0 {
		return code
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// renderMergedAggregates is the -merge -stream-agg path: validate and fold
// the shard journals into the aggregator and render, re-running nothing.
func renderMergedAggregates(spec batch.Spec, f gridFlags) int {
	agg := batch.NewAggSink()
	stats, err := batch.MergeJournals(agg, f.merge...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		return 2
	}
	rep := agg.Report()
	// With -grid given explicitly the flags must name the journals' grid —
	// dimensions and seeds included, not just run parameters. A bare -merge
	// trusts the headers (headerless journals have nothing to check).
	if f.gridSet && len(rep.Spec.Topologies) > 0 {
		if err := batch.SameGrid(spec, rep.Spec); err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: merge: journals do not match the -grid flags: %v\n", err)
			return 2
		}
	}
	if code := renderAggReport(rep, f.format); code != 0 {
		return code
	}
	if stats.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "lbbench: merge: dropped %d corrupt/truncated line(s)\n", stats.Dropped)
	}
	fmt.Fprintf(os.Stderr, "lbbench: merged %d journals: %d units (%d failed, %d missing)\n",
		stats.Journals, rep.Units, rep.Failed, rep.Missing())
	if rep.Missing() > 0 {
		if shards := agg.MissingShards(); len(shards) > 0 {
			fmt.Fprintf(os.Stderr, "lbbench: shard(s) %v never merged in\n", shards)
		}
		fmt.Fprintf(os.Stderr, "lbbench: merge is incomplete — resume the missing shard(s), or run -merge without -stream-agg to re-run the gaps\n")
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// renderAggReport prints a streaming aggregate report in the chosen format.
func renderAggReport(rep *batch.AggReport, format string) int {
	if err := rep.Render(format, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: rendering aggregate report: %v\n", err)
		return 1
	}
	return 0
}

// samePath reports whether a and b name the same file, so resume-in-place
// is recognized however the paths are spelled (`./x.jsonl` vs `x.jsonl`,
// absolute vs relative, through symlinks). Misclassifying here would send a
// legitimate resume to the O_EXCL open, which refuses the existing journal
// — the partial journal's only copy must never be the thing the error
// message tells the user to delete. When both paths exist the inodes
// decide; otherwise absolute-path comparison.
func samePath(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	if ia, err := os.Stat(a); err == nil {
		if ib, err := os.Stat(b); err == nil {
			return os.SameFile(ia, ib)
		}
	}
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	if err1 != nil || err2 != nil {
		return filepath.Clean(a) == filepath.Clean(b)
	}
	return aa == bb
}
