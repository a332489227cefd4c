// Package experiments implements the reproduction harness: one function per
// experiment in the registry that `lbbench -list` prints, each regenerating
// the series that validates a theorem or lemma of the paper (or a comparison
// the paper makes against prior work). Every experiment returns a
// trace.Table whose rows pair the measured quantity with the paper's bound,
// so "who wins, by roughly what factor" can be read off directly; the
// README's "Experiment tables" section shows how to run them.
//
// All experiments are deterministic given Options.Seed. Options.Quick
// shrinks sweeps for use inside testing.B benchmarks.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives every randomized component (default 1).
	Seed int64
	// Quick shrinks parameter sweeps (fewer sizes, fewer repetitions) so a
	// run finishes in benchmark-friendly time.
	Quick bool
	// Workers is the pool width used to fan an experiment's parameter
	// sweep out across goroutines (≤ 0 selects GOMAXPROCS). Results are
	// identical for any value: every sweep cell draws from its own RNG
	// stream derived from Seed and the cell index.
	Workers int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// sweep fans body(i, rng) over every cell index in [0, n) across Workers
// goroutines. Each cell gets an independent deterministic RNG stream
// derived from Seed and i, so tables do not depend on a shared generator's
// visit order — or on Workers. Callers collect per-cell row values inside
// body and emit them in index order afterwards.
func (o Options) sweep(n int, body func(i int, rng *rand.Rand)) {
	parallel.ForDynamic(n, o.Workers, func(i int) {
		body(i, rand.New(rand.NewSource(parallel.DeriveSeed(o.seed(), i))))
	})
}

// balance runs cfg through core.Balance — the Session every grid sweep and
// lbserved also run on — capped at maxRounds rounds, with serial rounds:
// every graph the tables step is far below batch.RoundParallelMinN. The
// experiments build their configurations themselves, so a rejected one is
// a programming error.
func balance(cfg core.Config, maxRounds int) core.Result {
	cfg.MaxRounds = maxRounds
	res, err := core.Balance(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// roundsTo is balance reduced to the comparison tables' round count:
// the rounds taken to reach the target, or maxRounds+1 when the cap was hit
// first.
func roundsTo(cfg core.Config, maxRounds int) int {
	if res := balance(cfg, maxRounds); res.Converged {
		return res.Rounds
	}
	return maxRounds + 1
}

// stepUntil is the round loop for steppers core does not build — the
// asynchronous and dimension-class schedules — and for E9/E10, whose probe
// trials and timed run share one RNG stream: it steps sys until Φ ≤ target
// or maxRounds rounds have run, returning the rounds run and whether the
// target was reached.
func stepUntil(sys core.System, target float64, maxRounds int) (int, bool) {
	for t := 0; ; t++ {
		if sys.Potential() <= target {
			return t, true
		}
		if t == maxRounds {
			return t, false
		}
		sys.Step()
	}
}

// roundsToFraction is roundsTo for a bare stepper: stepUntil to frac·Φ⁰.
func roundsToFraction(sys core.System, frac float64, maxRounds int) int {
	if rounds, ok := stepUntil(sys, frac*sys.Potential(), maxRounds); ok {
		return rounds
	}
	return maxRounds + 1
}

// row holds one table row's values until the sweep finishes; nil rows
// (cells that declined to report) are skipped by emit.
type row []interface{}

// emit appends the collected rows to t in deterministic cell order.
func emit(t *trace.Table, rows []row) {
	for _, r := range rows {
		if r != nil {
			t.AddRowf(r...)
		}
	}
}

// Runner is the signature shared by all experiments.
type Runner func(Options) *trace.Table

// registry maps experiment ids (e.g. "E3", "A1") to runners; populated by
// init functions in the per-area files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %s", id))
	}
	registry[id] = r
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs returns all registered experiment ids, sorted with E* before A*.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E-experiments before A-ablations, then numeric order.
		pi, pj := out[i][0], out[j][0]
		if pi != pj {
			return pi == 'E'
		}
		var ni, nj int
		fmt.Sscanf(out[i][1:], "%d", &ni)
		fmt.Sscanf(out[j][1:], "%d", &nj)
		return ni < nj
	})
	return out
}
