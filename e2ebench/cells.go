package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/scenario"
)

// cellsBench runs independent cells of Algorithm 1, each driven through the
// public Session API from Open to Close: the cell and churn workloads.
type cellsBench struct {
	o        options
	topology string
	n        int
	mode     core.Mode
	eps      float64
	scenario scenario.Spec

	g    *graph.G
	next int // index of the next cell; every cell draws its own start
}

// newCell: static continuous cells on a 2¹⁴-node hypercube to ε = 1e-6,
// serial rounds. The size keeps more than 100 cells in a 20 s window so the
// p90 has ten samples beyond it.
func newCell(o options) bench {
	b := &cellsBench{o: o, topology: "hypercube", n: 1 << 14, mode: core.Continuous, eps: 1e-6}
	if o.small {
		b.n = 1 << 10
	}
	return b
}

// newChurn: discrete cells on a 4096-node random 4-regular graph under
// edge-churn:0.1 (every round draws a subgraph keeping 90% of the edges),
// run to ε·Φ⁰ with ε = 1e-3, serial rounds. Cell i uses scenario seed
// seed+i.
func newChurn(o options) bench {
	sc, err := scenario.Parse("edge-churn:0.1")
	if err != nil {
		panic(err) // a constant spec
	}
	b := &cellsBench{o: o, topology: "random-regular", n: 4096, mode: core.Discrete, eps: 1e-3, scenario: sc}
	if o.small {
		b.n = 256
	}
	return b
}

func (b *cellsBench) nodes() int { return b.g.N() }

func (b *cellsBench) setUp(st *setupStats) error {
	g, err := buildTimed(st, b.topology, b.n)
	if err != nil {
		return err
	}
	b.g = g
	s, err := openTimed(st, b.config(0, 1))
	if err != nil {
		return err
	}
	s.Close()
	return nil
}

// config is cell i: a spike of 1000·n load on a seeded node over uniform
// noise (whole tokens in discrete mode).
func (b *cellsBench) config(i, workers int) core.Config {
	rng := rand.New(rand.NewSource(parallel.DeriveSeed(b.o.seed, i)))
	n := b.g.N()
	loads := make([]float64, n)
	for j := range loads {
		if b.mode == core.Discrete {
			loads[j] = float64(rng.Intn(100))
		} else {
			loads[j] = rng.Float64()
		}
	}
	loads[rng.Intn(n)] += 1000 * float64(n)
	return core.Config{
		Graph:        b.g,
		Algorithm:    core.Diffusion,
		Mode:         b.mode,
		Loads:        loads,
		Epsilon:      b.eps,
		Seed:         1,
		Workers:      workers,
		Scenario:     b.scenario,
		ScenarioSeed: b.o.seed + int64(i),
	}
}

// drive runs one cell to completion the way core.Balance does, timing the
// scenario's subgraph draw into w when timed is set.
func (b *cellsBench) drive(cfg core.Config, timed bool, w *window) (*core.Session, core.Result, error) {
	s, err := core.Open(cfg)
	if err != nil {
		return nil, core.Result{}, err
	}
	horizon := s.Horizon()
	if cfg.Scenario.IsStatic() {
		for s.Phi() > s.Target() && s.Rounds() < horizon {
			if err := s.Step(); err != nil {
				return nil, core.Result{}, err
			}
			if _, err := s.Commit(); err != nil {
				return nil, core.Result{}, err
			}
		}
		return s, s.Close(), nil
	}
	c := s.Config()
	var ref float64
	for _, v := range c.Loads {
		ref += v
	}
	inst, err := c.Scenario.New(c.Graph, ref, rand.New(rand.NewSource(c.ScenarioSeed)))
	if err != nil {
		return nil, core.Result{}, err
	}
	for k := 0; k < horizon; k++ {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		g := inst.Graph(k)
		if timed {
			w.graphDraw += time.Since(t0)
		}
		if err := s.SwapGraph(g); err != nil {
			return nil, core.Result{}, err
		}
		if err := s.Step(); err != nil {
			return nil, core.Result{}, err
		}
		if _, err := s.Inject(inst.Arrivals(k, s.Loads())); err != nil {
			return nil, core.Result{}, err
		}
		phi, err := s.Commit()
		if err != nil {
			return nil, core.Result{}, err
		}
		if inst.ArrivalFree() && phi <= s.Target() {
			break
		}
	}
	return s, s.Close(), nil
}

// verify checks one finished cell: load is conserved (tokens exactly,
// continuous load within 1e-9 relative), the target is reached, and a
// static cell stays within its theorem bound.
func (b *cellsBench) verify(cfg core.Config, s *core.Session, res core.Result) error {
	var before, after float64
	for _, v := range cfg.Loads {
		if b.mode == core.Discrete {
			v = math.Trunc(v)
		}
		before += v
	}
	for _, v := range s.Loads() {
		after += v
	}
	switch {
	case b.mode == core.Discrete && after != before:
		return fmt.Errorf("tokens not conserved: %v before, %v after", before, after)
	case math.Abs(after-before) > 1e-9*before:
		return fmt.Errorf("load not conserved: %v before, %v after", before, after)
	case !res.Converged:
		return fmt.Errorf("target not reached in %d rounds (Φ %v → %v)", res.Rounds, res.PhiStart, res.PhiEnd)
	case res.Bound > 0 && float64(res.Rounds) > res.Bound:
		return fmt.Errorf("%d rounds exceed the %s bound %.1f", res.Rounds, res.BoundName, res.Bound)
	}
	return nil
}

// check compares configurations on the first cells: a static cell's final
// state is bit-identical at one round worker and at the CPU count, and a
// churn cell's manual drive returns exactly core.Balance's result.
func (b *cellsBench) check() error {
	var w window
	if b.scenario.IsStatic() {
		var sums [2]string
		for k, workers := range []int{1, max(2, b.o.workers)} {
			cfg := b.config(0, workers)
			s, res, err := b.drive(cfg, false, &w)
			if err != nil {
				return err
			}
			if err := b.verify(cfg, s, res); err != nil {
				return err
			}
			sums[k] = checksum(s.Loads())
		}
		if sums[0] != sums[1] {
			return fmt.Errorf("final state checksum %s at 1 round worker, %s at %d", sums[0], sums[1], max(2, b.o.workers))
		}
		return nil
	}
	for i := 0; i < 3; i++ {
		cfg := b.config(i, 1)
		s, res, err := b.drive(cfg, false, &w)
		if err != nil {
			return err
		}
		if err := b.verify(cfg, s, res); err != nil {
			return err
		}
		want, err := core.Balance(cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res, want) {
			return fmt.Errorf("cell %d: Session drive (%d rounds, Φ %v) differs from core.Balance (%d rounds, Φ %v)",
				i, res.Rounds, res.PhiEnd, want.Rounds, want.PhiEnd)
		}
	}
	return nil
}

func (b *cellsBench) measure(deadline time.Time, tr *obs.Tracer, w *window) error {
	start := time.Now()
	tid := tr.AcquireTID()
	defer tr.ReleaseTID(tid)
	for {
		i := b.next
		b.next++
		cfg := b.config(i, 1)
		var ph *obs.Phases
		if tr != nil {
			ph = &obs.Phases{}
			cfg.Phases = ph
		}
		spanStart := tr.Now()
		t0 := time.Now()
		s, res, err := b.drive(cfg, tr != nil, w)
		lat := time.Since(t0)
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if tr != nil {
			tr.Complete(fmt.Sprintf("cell %d", i), "cell", tid, spanStart, map[string]any{"rounds": res.Rounds, "n": b.g.N()})
			ph.EmitSpans(tr, tid, spanStart)
		}
		w.attempted++
		if err := b.verify(cfg, s, res); err != nil {
			w.fail(fmt.Errorf("cell %d: %w", i, err))
		}
		w.latencies = append(w.latencies, ms(lat))
		w.rounds += int64(res.Rounds)
		w.rates = append(w.rates, float64(res.Rounds)/lat.Seconds())
		if !time.Now().Before(deadline) {
			break
		}
	}
	w.elapsed = time.Since(start)
	return nil
}

// checksum is FNV-64a over the raw float bits of a load vector.
func checksum(v []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
