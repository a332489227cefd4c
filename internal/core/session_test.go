package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// TestSessionMatchesBalanceStatic: driving a Session by hand — Open, then
// Step/Commit to the horizon or the target — must reproduce Balance's
// Result exactly (same trace bits, same bound, same bookkeeping) on the
// full algorithm × mode matrix. Balance is itself a Session driver now, but
// this test drives the *public* stepwise API independently, so a future
// regression in either path fails here.
func TestSessionMatchesBalanceStatic(t *testing.T) {
	g := graph.Torus(4, 4)
	for _, am := range algorithmModes() {
		t.Run(am.Algo.String()+"-"+modeName(am.Mode), func(t *testing.T) {
			cfg := Config{
				Graph:     g,
				Algorithm: am.Algo,
				Mode:      am.Mode,
				Loads:     SpikeLoads(g.N(), 1e6),
				Epsilon:   1e-4,
				MaxRounds: 512,
				Seed:      7,
			}
			want, err := Balance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s.Phi() > s.Target() && s.Rounds() < s.Horizon() {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			live := s.Metrics()
			got := s.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("session drive diverges from Balance:\n got %+v\nwant %+v", got, want)
			}
			if live.PeakPhi < live.PhiStart {
				t.Fatalf("live view's peak Φ is below Φ⁰: %+v", live.Outcome)
			}
			if want := sealed(live, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("Close is not the live view, sealed:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSessionMatchesBalanceScenario: replicating the scenario round loop
// through the public Session API — SwapGraph, Step, Inject(Arrivals),
// Commit — must match Balance's scenario path trace-for-trace, across
// arrival-bearing, adversarial and churn scenarios in both modes.
func TestSessionMatchesBalanceScenario(t *testing.T) {
	g := graph.Torus(4, 4)
	aboveAtClose := 0 // cases whose live RebalanceRounds is -1 at Close
	for _, tc := range []struct {
		scenario string
		algo     Algorithm
		mode     Mode
	}{
		{"poisson-arrivals", Diffusion, Continuous},
		{"adversarial-respike:8:0.5", Diffusion, Discrete},
		{"bursty:8:0.25", RandomPartners, Discrete},
		{"edge-churn:0.2", DimensionExchange, Continuous},
		{"hotspot-drift", RoundRobinExchange, Discrete},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			sp, err := scenario.Parse(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Graph:     g,
				Algorithm: tc.algo,
				Mode:      tc.mode,
				Loads:     SpikeLoads(g.N(), 1e6),
				Epsilon:   1e-4,
				MaxRounds: 64,
				Seed:      7,
				Scenario:  sp,
			}
			want, err := Balance(cfg)
			if err != nil {
				t.Fatal(err)
			}

			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ref float64
			for _, v := range cfg.Loads {
				ref += v
			}
			// ScenarioSeed defaults to Seed, like Balance.
			inst, err := sp.New(cfg.Graph, ref, rand.New(rand.NewSource(cfg.Seed)))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < s.Horizon(); k++ {
				if err := s.SwapGraph(inst.Graph(k)); err != nil {
					t.Fatal(err)
				}
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Inject(inst.Arrivals(k, s.Loads())); err != nil {
					t.Fatal(err)
				}
				phi, err := s.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if inst.ArrivalFree() && phi <= s.Target() {
					break
				}
			}
			live := s.Metrics()
			got := s.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("session scenario drive diverges from Balance:\n got %+v\nwant %+v", got, want)
			}
			if live.Bound != 0 || live.BoundName != "" {
				t.Fatalf("scenario session reports a theorem bound: %+v", live.Outcome)
			}
			if live.RebalanceRounds < 0 {
				aboveAtClose++
			}
			if want := sealed(live, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("Close is not the live view, sealed:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	if aboveAtClose == 0 {
		t.Error("no case closed above its target: Close's -1 → 0 went unchecked")
	}
}

// sealed is what Close must report after the live view m: m itself, less
// the scenario metrics of a static session, with a RebalanceRounds of -1
// (still above the target) reported as 0.
func sealed(m Result, static bool) Result {
	if static {
		m.PeakPhi, m.SteadyRMS, m.RebalanceRounds = 0, 0, 0
	}
	m.RebalanceRounds = max(m.RebalanceRounds, 0)
	return m
}

// TestSessionProtocolErrors: the state machine must reject out-of-order
// calls instead of silently corrupting the op chain.
func TestSessionProtocolErrors(t *testing.T) {
	g := graph.Cycle(8)
	cfg := Config{Graph: g, Loads: SpikeLoads(8, 100)}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err == nil {
		t.Error("Commit before Step accepted")
	}
	if _, err := s.Inject(nil); err == nil {
		t.Error("Inject outside a round accepted")
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err == nil {
		t.Error("second Step without Commit accepted")
	}
	if err := s.SwapGraph(graph.Cycle(8)); err == nil {
		t.Error("SwapGraph mid-round accepted")
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapGraph(graph.Cycle(9)); err == nil {
		t.Error("SwapGraph to a graph of another node count accepted")
	}
	s.Close()
	if err := s.Step(); err == nil {
		t.Error("Step after Close accepted")
	}
	if _, err := s.Commit(); err == nil {
		t.Error("Commit after Close accepted")
	}
}

// TestValidateMatchesEntrypoints: Config.Validate must reject exactly what
// Balance and Open reject — one gate, identical everywhere.
func TestValidateMatchesEntrypoints(t *testing.T) {
	g := graph.Cycle(4)
	bad := []Config{
		{},
		{Graph: g, Loads: []float64{1}},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Epsilon: 2},
		{Graph: g, Loads: []float64{1, -2, 3, 4}},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Algorithm: FirstOrder, Mode: Discrete},
		{Graph: g, Loads: []float64{1e19, 0, 0, 0}, Mode: Discrete},
		{Graph: g, Loads: []float64{1 << 62, 1 << 62, 0, 0}, Mode: Discrete},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted", i)
		}
		if _, err := Balance(cfg); err == nil {
			t.Errorf("case %d: Balance accepted", i)
		}
		if _, err := Open(cfg); err == nil {
			t.Errorf("case %d: Open accepted", i)
		}
	}
	for i, good := range []Config{
		{Graph: g, Loads: []float64{4, 0, 0, 0}},
		{Graph: g, Loads: []float64{1e19, 0, 0, 0}},
		{Graph: g, Loads: []float64{1<<63 - 1024, 1023.9, 0, 0}, Mode: Discrete},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("good case %d: Validate rejected: %v", i, err)
		}
	}
}

// TestSwapGraphConservesLargeTokenCounts: SwapGraph hands a discrete
// stepper's tokens to the next stepper as they are, so an edge-churn run
// conserves 2⁶⁰ tokens exactly; a float64 round trip loses some above 2⁵³.
func TestSwapGraphConservesLargeTokenCounts(t *testing.T) {
	sc, err := scenario.Parse("edge-churn:0.2")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Hypercube(4)
	const total = 1 << 60
	s, err := Open(Config{Graph: g, Mode: Discrete, Loads: SpikeLoads(g.N(), total), Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.New(g, total, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		if err := s.SwapGraph(inst.Graph(k)); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, x := range s.sys.(Stepper[int64]).Values() {
			sum += x
		}
		if sum != total {
			t.Fatalf("round %d: %d tokens, want %d (%+d)", k+1, sum, int64(total), sum-total)
		}
	}
}

// stripWall zeroes the wall-clock field — the one intentionally
// nondeterministic cell member (excluded from every emitter for the same
// reason) — so DeepEqual checks the deterministic payload.
func stripWall(cells []batch.Cell) []batch.Cell {
	out := append([]batch.Cell(nil), cells...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestTraceScenarioGridByteIdentity: a trace:<file> scenario must ride the
// grid like any other dimension — byte-identical reports for any worker
// count, alongside static cells.
func TestTraceScenarioGridByteIdentity(t *testing.T) {
	path := t.TempDir() + "/arrivals.jsonl"
	tw, err := scenario.CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []scenario.Event{
		{Round: 0, Node: 3, Amount: 5000},
		{Round: 0, Node: 11, Amount: 125.5},
		{Round: 7, Node: 0, Amount: 9000},
		{Round: 20, Node: 15, Amount: 640},
	} {
		if err := tw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	spec := batch.Spec{
		Topologies: []string{"torus", "cycle"},
		Algorithms: []string{"diffusion", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike"},
		Scenarios:  []string{"static", "trace:" + path},
		N:          16,
		Seeds:      []int64{1, 2},
		MaxRounds:  48,
	}
	run := func(workers int) *batch.Report {
		s := spec
		s.Workers = workers
		rep, err := GridRun(context.Background(), s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Failed() > 0 {
			t.Fatalf("workers=%d: %d cells failed", workers, rep.Failed())
		}
		return rep
	}
	w1, w4 := run(1), run(4)
	if !reflect.DeepEqual(stripWall(w1.Cells), stripWall(w4.Cells)) {
		t.Fatal("trace-scenario grid differs between 1 and 4 workers")
	}
}

// TestGridRunWindowedShard: a sharded spec narrowed to a unit window — the
// supervisor's stolen sub-shard — runs exactly the window's slice of the
// shard through the real balancer, and its cells match the same units from
// an unrestricted run.
func TestGridRunWindowedShard(t *testing.T) {
	spec := batch.Spec{
		Topologies: []string{"cycle"},
		Algorithms: []string{"diffusion"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		N:          16,
		Seeds:      []int64{1, 2, 3},
	}
	full, err := GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := spec.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := shard.Range(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GridRun(context.Background(), windowed)
	if err != nil {
		t.Fatal(err)
	}
	var want []batch.Cell
	for _, c := range full.Cells {
		if windowed.Owns(c.Index) {
			want = append(want, c)
		}
	}
	if len(got.Cells) != windowed.OwnedUnitCount() {
		t.Fatalf("windowed shard ran %d cells, owns %d", len(got.Cells), windowed.OwnedUnitCount())
	}
	if !reflect.DeepEqual(stripWall(got.Cells), stripWall(want)) {
		t.Fatal("windowed shard cells diverge from the unrestricted run's slice")
	}
}

// TestBoundNamedOnlyWhenPositive: a Result names a theorem exactly when a
// positive bound applies, for every algorithm and mode. A flat start (Φ⁰ =
// 0) is at or under either discrete threshold, so Theorems 6 and 14 bound
// nothing there.
func TestBoundNamedOnlyWhenPositive(t *testing.T) {
	g := graph.Torus(4, 4)
	flat := make([]float64, g.N())
	for i := range flat {
		flat[i] = 100
	}
	for _, am := range algorithmModes() {
		for _, start := range []struct {
			name  string
			loads []float64
		}{{"flat", flat}, {"spike", SpikeLoads(g.N(), 1e6)}} {
			res, err := Balance(Config{Graph: g, Algorithm: am.Algo, Mode: am.Mode, Loads: start.loads, Epsilon: 1e-4, MaxRounds: 64})
			if err != nil {
				t.Fatal(err)
			}
			if (res.Bound > 0) != (res.BoundName != "") {
				t.Errorf("%v/%v/%s: bound %v named %q", am.Algo, am.Mode, start.name, res.Bound, res.BoundName)
			}
		}
	}
}

// TestDaemonSessionWindow drives a daemon session (one with a per-round
// consumer) in lockstep with a plain one past 4·SteadyWindow rounds, with
// arrivals. The plain session keeps its full trace; the daemon keeps none.
// Below 4·SteadyWindow rounds the daemon's SteadyRMS is the plain
// session's last-quarter value bit for bit; past that it is the mean over
// the last SteadyWindow potentials, summed oldest first. Every other field
// of the live and the sealed Result agrees.
func TestDaemonSessionWindow(t *testing.T) {
	g := graph.Torus(4, 4)
	cfg := Config{Graph: g, Loads: SpikeLoads(g.N(), 1e6), Epsilon: 1e-9, Scenario: mustScenario(t, "poisson-arrivals")}
	plain, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	consumed := 0
	cfg.OnRound = func(Round) { consumed++ }
	daemon, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.N())
	check := func(got, want Result) {
		t.Helper()
		if got.Trace != nil || len(want.Trace) != want.Rounds+1 {
			t.Fatalf("round %d: daemon trace of %d points, plain trace of %d", want.Rounds, len(got.Trace), len(want.Trace))
		}
		wantRMS := want.SteadyRMS
		if len(want.Trace)/4 > SteadyWindow {
			var sum float64
			for _, p := range want.Trace[len(want.Trace)-SteadyWindow:] {
				sum += math.Sqrt(p / n)
			}
			wantRMS = sum / SteadyWindow
		}
		if math.Float64bits(got.SteadyRMS) != math.Float64bits(wantRMS) {
			t.Fatalf("round %d: daemon SteadyRMS %v, want %v", want.Rounds, got.SteadyRMS, wantRMS)
		}
		got.Trace, got.SteadyRMS = want.Trace, want.SteadyRMS
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: daemon Result diverges:\n got %+v\nwant %+v", want.Rounds, got.Outcome, want.Outcome)
		}
	}
	const rounds = 4*SteadyWindow + 600
	for k := 0; k < rounds; k++ {
		var arrivals []scenario.Arrival
		if k%7 == 0 {
			arrivals = []scenario.Arrival{{Node: k % g.N(), Amount: float64(100 + k%13)}}
		}
		for _, s := range []*Session{plain, daemon} {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Inject(arrivals); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		check(daemon.Metrics(), plain.Metrics())
	}
	check(daemon.Close(), plain.Close())
	if consumed != rounds {
		t.Fatalf("the consumer saw %d rounds, want %d", consumed, rounds)
	}
}
