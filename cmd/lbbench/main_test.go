package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/cliflags"
	"repro/internal/core"
)

// TestCheckFlagCombos pins the flag-combination contract: every refused
// combination exits with its own code before any journal is touched, and
// the coherent ones pass.
func TestCheckFlagCombos(t *testing.T) {
	type flags struct {
		grid                                         bool
		spawn                                        int
		emitMatrix, shard, resume, out, merge, units string
		streamAgg                                    bool
		launch                                       cliflags.Launch
	}
	cases := []struct {
		name string
		f    flags
		want int
	}{
		{"experiments", flags{}, 0},
		{"grid", flags{grid: true}, 0},
		{"grid journal", flags{grid: true, out: "x.jsonl"}, 0},
		{"grid resume in place", flags{grid: true, resume: "x.jsonl", out: "x.jsonl"}, 0},
		{"grid stream-agg journal", flags{grid: true, streamAgg: true, out: "x.jsonl"}, 0},
		{"merge", flags{merge: "a.jsonl,b.jsonl"}, 0},
		{"merge re-journal", flags{merge: "a.jsonl", out: "m.jsonl"}, 0},
		{"merge stream-agg", flags{merge: "a.jsonl", streamAgg: true}, 0},
		{"spawn", flags{grid: true, spawn: 3, out: "d"}, 0},
		{"spawn stream-agg", flags{grid: true, spawn: 3, out: "d", streamAgg: true}, 0},
		{"emit matrix", flags{grid: true, spawn: 3, emitMatrix: "github"}, 0},

		{"experiments out", flags{out: "x.jsonl"}, exitConflict},
		{"experiments resume", flags{resume: "x.jsonl", out: "x.jsonl"}, exitConflict},
		{"experiments stream-agg", flags{streamAgg: true}, exitConflict},
		{"experiments shard", flags{shard: "0/3"}, exitConflict},
		{"merge stream-agg out", flags{merge: "a.jsonl", streamAgg: true, out: "m.jsonl"}, exitConflict},
		{"experiments units", flags{units: "0:4"}, exitConflict},
		{"resume without out", flags{grid: true, resume: "x.jsonl"}, exitConflict},
		{"merge with resume", flags{grid: true, merge: "a.jsonl", resume: "x.jsonl", out: "x.jsonl"}, exitConflict},
		{"spawn without grid", flags{spawn: 3, out: "d"}, exitConflict},
		{"spawn shard", flags{grid: true, spawn: 3, shard: "0/3", out: "d"}, exitConflict},
		{"spawn resume", flags{grid: true, spawn: 3, resume: "x.jsonl", out: "d"}, exitConflict},
		{"spawn merge", flags{grid: true, spawn: 3, merge: "a.jsonl", out: "d"}, exitConflict},
		{"spawn without out", flags{grid: true, spawn: 3}, exitConflict},
		{"emit matrix without spawn", flags{grid: true, emitMatrix: "github"}, exitConflict},
		{"steal without spawn", flags{grid: true, launch: cliflags.Launch{StealAfter: 1}}, exitConflict},
		{"unknown matrix", flags{grid: true, spawn: 3, out: "d", emitMatrix: "slurm"}, exitUsage},
		{"negative spawn", flags{grid: true, spawn: -1, out: "d"}, exitBadCount},
	}
	for _, c := range cases {
		f := c.f
		msg, code := checkFlagCombos(f.grid, f.spawn, f.emitMatrix, f.shard, f.resume, f.out, f.merge, f.units, f.streamAgg, &f.launch)
		if code != c.want {
			t.Errorf("%s: exit %d (%q), want %d", c.name, code, msg, c.want)
		}
		if (code == 0) != (msg == "") {
			t.Errorf("%s: exit %d with message %q", c.name, code, msg)
		}
	}
}

// explainGrid is a 16-node torus grid over every algorithm, both modes and
// four scenarios: 192 cells, each a key -explain must accept.
func explainGrid() batch.Spec {
	var algos []string
	for _, a := range core.AlgorithmDescriptions() {
		algos = append(algos, a[0])
	}
	return batch.Spec{
		Topologies: []string{"torus"},
		Algorithms: algos,
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Scenarios:  []string{"static", "poisson-arrivals", "edge-churn", "adversarial-respike"},
		Seeds:      []int64{1, 2},
		N:          16,
		MaxRounds:  64,
	}
}

// TestExplainMatchesSweep runs grids through core.GridRun and explains
// every cell by its key under the same run parameters: a failed cell must
// give the same error, and any other cell the same Outcome bit for bit,
// with a Φ trace that starts at PhiStart and ends at PhiEnd, and a report
// whose summary states the cell's rounds. The second grid is n = 1, where
// λ₂ is undefined but the sweep still runs its cells (zero rounds,
// converged): explain must report them with a one-line spectral block.
func TestExplainMatchesSweep(t *testing.T) {
	for _, tc := range []struct {
		spec          batch.Spec
		cells, failed int
	}{
		// firstorder and secondorder run continuous only: their 32
		// discrete cells fail.
		{explainGrid(), 192, 32},
		{batch.Spec{
			Topologies: []string{"hypercube", "path"},
			Algorithms: []string{"diffusion"},
			Modes:      []string{"continuous", "discrete"},
			Workloads:  []string{"spike"},
			Seeds:      []int64{1},
			N:          1,
		}, 4, 0},
	} {
		spec := tc.spec
		rep, err := core.GridRun(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, c := range rep.Cells {
			key := c.Unit.Key()
			es, u, g, err := explainUnit(spec, key)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			loads, algoSeed := u.Inputs(g.N(), es.Scale)
			res, err := core.RunUnit(es, u, g, loads, algoSeed, nil)
			if c.Err != "" || err != nil {
				if err == nil || err.Error() != c.Err {
					t.Errorf("%s: explain error %v, sweep error %q", key, err, c.Err)
				}
				failed++
				continue
			}
			o := c.Outcome
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if res.Rounds != o.Rounds || res.Converged != o.Converged || res.BoundName != o.BoundName || res.Reason != o.Reason ||
				res.RebalanceRounds != o.RebalanceRounds || !same(res.PhiStart, o.PhiStart) ||
				!same(res.PhiEnd, o.PhiEnd) || !same(res.Bound, o.Bound) ||
				!same(res.PeakPhi, o.PeakPhi) || !same(res.SteadyRMS, o.SteadyRMS) {
				t.Errorf("%s: explain %+v, sweep %+v", key, res, o)
				continue
			}
			if len(res.Trace) != res.Rounds+1 || res.Trace[0] != res.PhiStart || res.Trace[res.Rounds] != res.PhiEnd {
				t.Errorf("%s: trace of %d points for %d rounds, Φ %v → %v", key, len(res.Trace), res.Rounds, res.PhiStart, res.PhiEnd)
			}
			var out strings.Builder
			if err := printExplain(&out, es, u, g, res); err != nil {
				t.Errorf("%s: report: %v", key, err)
				continue
			}
			want := []string{fmt.Sprintf("rounds       : %d (converged: %v)\n", o.Rounds, o.Converged)}
			if g.N() < 2 {
				want = append(want, "λ₂           : undefined (n < 2)\n")
			}
			for _, line := range want {
				if !strings.Contains(out.String(), line) {
					t.Errorf("%s: report lacks %q:\n%s", key, line, out.String())
				}
			}
		}
		if len(rep.Cells) != tc.cells || failed != tc.failed {
			t.Errorf("%d cells, %d failed; want %d cells, %d failed", len(rep.Cells), failed, tc.cells, tc.failed)
		}
	}
}

// TestDisconnectedCellsEndAtOnce: topoparse's rgg does not redraw until
// connected, and at n = 20, 24 and 32 the sweep's rgg is disconnected. Every
// static cell on it, except randpair's (which ignores the edges), ends
// before round 1, unconverged, with the reason "disconnected": in the
// sweep's cells, in its journal lines (and only on those lines) and in
// -explain's report. A scenario cell on the same graph still runs.
func TestDisconnectedCellsEndAtOnce(t *testing.T) {
	for _, n := range []int{20, 24, 32} {
		spec := batch.Spec{
			Topologies: []string{"rgg"},
			Algorithms: []string{"diffusion", "dimexchange", "randpair", "firstorder", "secondorder", "roundrobin"},
			Modes:      []string{"continuous", "discrete"},
			Workloads:  []string{"spike", "uniform"},
			Scenarios:  []string{"static", "edge-churn:0.1"},
			Seeds:      []int64{1, 2},
			N:          n,
			MaxRounds:  64,
		}
		var journal strings.Builder
		rep, err := core.GridRun(context.Background(), spec, core.GridSink(batch.NewJSONLSink(&journal)))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(journal.String()), "\n")[1:] // after the spec header
		if len(lines) != len(rep.Cells) {
			t.Fatalf("n=%d: %d journal lines for %d cells", n, len(lines), len(rep.Cells))
		}
		stopped := 0
		for i, c := range rep.Cells {
			key := c.Unit.Key()
			if c.Err != "" {
				continue // firstorder and secondorder run continuous only
			}
			_, _, g, err := explainUnit(spec, key)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if g.IsConnected() {
				t.Fatalf("n=%d: the sweep's rgg is connected; pick a disconnected size", n)
			}
			want := c.Scenario == "" && c.Algorithm != "randpair"
			tagged := strings.Contains(lines[i], `"reason":"disconnected"`)
			if want != (c.Reason == core.ReasonDisconnected) || want != tagged {
				t.Errorf("%s: reason %q, journal tagged %v; want stopped %v", key, c.Reason, tagged, want)
				continue
			}
			if !want {
				if c.Rounds == 0 {
					t.Errorf("%s: ran no rounds", key)
				}
				continue
			}
			stopped++
			if c.Rounds != 0 || c.Converged || c.Bound != 0 {
				t.Errorf("%s: %d rounds, converged %v, bound %v; want 0, false, 0", key, c.Rounds, c.Converged, c.Bound)
			}
			es, u, g, _ := explainUnit(spec, key)
			loads, algoSeed := u.Inputs(g.N(), es.Scale)
			res, err := core.RunUnit(es, u, g, loads, algoSeed, nil)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var out strings.Builder
			if err := printExplain(&out, es, u, g, res); err != nil {
				t.Fatalf("%s: report: %v", key, err)
			}
			for _, line := range []string{"rounds       : 0 (converged: false)\n", "stopped      : disconnected"} {
				if !strings.Contains(out.String(), line) {
					t.Errorf("%s: report lacks %q:\n%s", key, line, out.String())
				}
			}
		}
		// Static cells that stop: diffusion, dimexchange and roundrobin in
		// both modes plus firstorder and secondorder continuous, × 2
		// workloads × 2 seeds.
		if stopped != 32 {
			t.Errorf("n=%d: %d cells stopped as disconnected, want 32", n, stopped)
		}
	}
}
