package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestGridTracedByteIdentical: tracing is strictly out-of-band — a sharded
// sweep run with a live tracer, shared by the default pool's concurrent
// workers or held by one, must produce journals and a report byte-identical
// to the untraced run, while the trace itself carries one sweep span and one
// span per unit; on one worker the unit spans cover ≥ 0.9 of the sweep span.
func TestGridTracedByteIdentical(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testGridTraced(t, workers) })
	}
}

func testGridTraced(t *testing.T, workers int) {
	spec := batch.Spec{
		Topologies: []string{"cycle", "star"},
		Algorithms: []string{"diffusion", "dimexchange"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		Seeds:      []int64{1, 2},
		N:          128,
		Workers:    workers,
	}
	dir := t.TempDir()

	run := func(name string, tr *obs.Tracer) (journal, report []byte) {
		path := filepath.Join(dir, name+".jsonl")
		sink, err := batch.CreateJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := GridRun(context.Background(), spec, GridSink(sink), GridTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		journal, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rep.RenderCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := rep.RenderJSON(&out); err != nil {
			t.Fatal(err)
		}
		return journal, out.Bytes()
	}

	plainJournal, plainReport := run("plain", nil)

	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)
	tracedJournal, tracedReport := run("traced", tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plainJournal, tracedJournal) {
		t.Error("journal bytes differ between traced and untraced runs")
	}
	if !bytes.Equal(plainReport, tracedReport) {
		t.Error("report bytes differ between traced and untraced runs")
	}

	events, err := obs.ReadEvents(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	var sweeps, units int
	dur := map[string]int64{}
	for _, e := range events {
		dur[e.Cat] += e.Dur
		if e.Ph == "X" && (e.Ts < 0 || e.Dur < 1 || e.Name == "") {
			t.Errorf("malformed span %+v", e)
		}
		switch e.Cat {
		case "sweep":
			sweeps++
		case "unit":
			units++
		}
	}
	wantUnits := len(spec.Topologies) * len(spec.Algorithms) * len(spec.Seeds)
	if sweeps != 1 {
		t.Errorf("trace has %d sweep spans, want 1", sweeps)
	}
	if units != wantUnits {
		t.Errorf("trace has %d unit spans, want %d", units, wantUnits)
	}
	if workers == 1 && float64(dur["unit"]) < 0.9*float64(dur["sweep"]) {
		t.Errorf("unit spans cover %dµs of the %dµs sweep span, want ≥ 0.9", dur["unit"], dur["sweep"])
	}
}

// TestGridResumeSkipsUnitSpans: replayed units never re-run, so they must
// not fabricate unit spans — the trace shows the work of this process only.
func TestGridResumeSkipsUnitSpans(t *testing.T) {
	spec := batch.Spec{
		Topologies: []string{"cycle"},
		Algorithms: []string{"diffusion"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		Seeds:      []int64{1, 2},
		N:          16,
	}
	path := filepath.Join(t.TempDir(), "full.jsonl")
	sink, err := batch.CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GridRun(context.Background(), spec, GridSink(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := batch.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)
	if _, err := GridRun(context.Background(), spec, GridResume(journal), GridTrace(tr)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Cat == "unit" {
			t.Fatalf("fully-resumed sweep emitted unit span %q", e.Name)
		}
	}
}

// TestSessionHotLoopZeroAllocs is the gate behind "telemetry off is free":
// with no Phases attached, the serial Step+Commit round loop must not
// allocate, for every algorithm × mode core builds a reusable round for.
// A regression here means instrumentation leaked into the hot path (e.g. a
// time.Time escaping, or an unconditional map for span args), a stepper
// builds a closure per round, or a Potential copies the load vector.
// The torus is regular, so its Diffusion rows gate Algorithm 1's
// constant-divisor round body; the de Bruijn rows gate its general body.
func TestSessionHotLoopZeroAllocs(t *testing.T) {
	torus := graph.Torus(4, 4)
	cases := []struct {
		algo Algorithm
		mode Mode
		g    *graph.G // nil: the torus
	}{
		{Diffusion, Continuous, nil},
		{Diffusion, Discrete, nil},
		{Diffusion, Continuous, graph.DeBruijn(4)},
		{Diffusion, Discrete, graph.DeBruijn(4)},
		{DimensionExchange, Continuous, nil},
		{DimensionExchange, Discrete, nil},
		{RandomPartners, Continuous, nil},
		{RandomPartners, Discrete, nil},
		{RoundRobinExchange, Continuous, nil},
		{RoundRobinExchange, Discrete, nil},
		{FirstOrder, Continuous, nil},
		{SecondOrder, Continuous, nil},
	}
	for _, tc := range cases {
		g, name := torus, tc.algo.String()+"/"+tc.mode.String()
		if tc.g != nil {
			g, name = tc.g, name+"/irregular"
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(Config{
				Graph:     g,
				Algorithm: tc.algo,
				Mode:      tc.mode,
				Loads:     workload.Continuous(workload.Spike, g.N(), 1e6, rand.New(rand.NewSource(1))),
				Epsilon:   1e-9, // never converges within the measured rounds
				Workers:   1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// 100 runs keeps the Φ trace inside its initial capacity, so the
			// only allocations measured are the round loop's own.
			avg := testing.AllocsPerRun(100, func() {
				if err := s.Step(); err != nil {
					panic(err)
				}
				if _, err := s.Commit(); err != nil {
					panic(err)
				}
			})
			if avg != 0 {
				t.Fatalf("untraced Step+Commit allocates %v times per round, want 0", avg)
			}
		})
	}
}

// TestSessionPhasesAccounting: with Phases attached the same loop fills
// per-phase wall time that sums over the phases actually exercised.
func TestSessionPhasesAccounting(t *testing.T) {
	g := graph.Torus(4, 4)
	var ph obs.Phases
	cfg := Config{
		Graph:     g,
		Algorithm: Diffusion,
		Mode:      Continuous,
		Loads:     workload.Continuous(workload.Spike, g.N(), 1e6, rand.New(rand.NewSource(1))),
		Epsilon:   1e-9,
		Workers:   1,
		Phases:    &ph,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ph.Count(obs.PhaseStep); got != rounds {
		t.Fatalf("step phase count %d, want %d", got, rounds)
	}
	if got := ph.Count(obs.PhaseCommit); got != rounds {
		t.Fatalf("commit phase count %d, want %d", got, rounds)
	}
	if ph.Count(obs.PhaseSpectra) == 0 {
		t.Fatal("Open did not record the spectra solve phase")
	}
	if ph.Total() <= 0 {
		t.Fatal("phase accounting recorded no wall time")
	}
}
