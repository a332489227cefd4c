// Package batch is the parallel batch-experiment engine: it takes a
// declarative grid specification (topologies × algorithms × modes ×
// workloads × scenarios × seeds), expands it into independent run units, fans the units
// out over internal/parallel's worker pool with per-unit deterministic RNG
// streams, and aggregates the outcomes into a single report with per-cell
// convergence statistics (rounds vs. the theorem bound, final discrepancy,
// wall time).
//
// The engine is sink-driven: finished cells can additionally be streamed,
// one at a time and in deterministic expansion order (a sequencing layer
// reorders out-of-order completions for any worker count), to a Sink —
// JSONLSink for a one-line-per-cell journal on disk, AggSink for
// incremental aggregates, MultiSink to fan out. JSONL journals
// are the unit of crash recovery: Resume replays a journal's completed
// unit Keys and re-enqueues only the missing or failed cells, merging old
// and new into a report byte-identical to an uninterrupted run.
//
// Sweeps shard across processes: Spec.Shard(i, m) restricts a run to the
// units whose expansion index is ≡ i (mod m) — disjoint and exhaustive by
// construction — and MergeJournals k-way-merges the m per-shard journals
// back into the exact global expansion order, failing loudly on overlap or
// grid mismatch. For grids whose cells must never materialize (the classic
// Report is O(units) memory), ResumeStream + AggSink fold per-cell statistics
// incrementally — bit-identical to the Report's aggregates — straight from
// the live stream or from merged journals.
//
// The package is deliberately algorithm-agnostic: a RunFunc executes one
// unit, so the engine never imports internal/core (which wires it up as
// core.GridRun) and any harness — the experiments suite, the CLIs, the
// root benchmarks — can reuse the same expansion, pooling, streaming and
// aggregation machinery with its own run body.
package batch

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/load"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Spec declares a sweep grid. Every combination of one entry per dimension
// becomes one run unit; the expansion is exhaustive and duplicate-free
// (duplicate entries within a dimension are rejected).
type Spec struct {
	// Topologies are topoparse names ("cycle", "torus", "hypercube", …).
	Topologies []string `json:"topologies"`
	// N is the approximate node count per topology (default 64; families
	// with rigid sizes round up exactly as topoparse does).
	N int `json:"n"`
	// Algorithms are core algorithm names ("diffusion", "dimexchange",
	// "randpair", "firstorder", "secondorder", "roundrobin").
	Algorithms []string `json:"algorithms"`
	// Modes are load models: "continuous", "discrete".
	Modes []string `json:"modes"`
	// Workloads are workload kind names ("spike", "uniform", …).
	Workloads []string `json:"workloads"`
	// Scenarios are scenario descriptions ("static", "poisson-arrivals:0.05",
	// "adversarial-respike", "edge-churn:0.2", …) — the time-varying
	// dimension: each unit's run injects that scenario's arrivals and
	// topology churn between rounds. Default {"static"}, which reproduces
	// the pre-scenario engine exactly (same unit keys, same RNG streams,
	// same journal bytes).
	Scenarios []string `json:"scenarios,omitempty"`
	// Seeds are the per-repetition seeds (default {1}). Each seed is one run
	// unit per cell; the report aggregates across seeds.
	Seeds []int64 `json:"seeds"`
	// Scale is the total (spike) or per-node (i.i.d.) load magnitude
	// (default 1e6).
	Scale float64 `json:"scale"`
	// Epsilon is the convergence target Φ ≤ ε·Φ⁰ (default 1e-3).
	Epsilon float64 `json:"epsilon"`
	// MaxRounds caps each run (0 lets the runner pick its theorem-derived
	// default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// ShardIndex/ShardCount restrict a run to one deterministic slice of the
	// expansion: unit u belongs to shard i of m iff u.Index % m == i, so the
	// m shards are disjoint and exhaustive by construction. ShardCount ≤ 1
	// means unsharded. Set them through Shard; they are recorded in journal
	// headers so a merger can tell which slice each journal covers.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// UnitLo/UnitHi further restrict ownership to the half-open expansion
	// window [UnitLo, UnitHi) — the work-stealing supervisor's carve: a
	// stolen sub-shard keeps the victim's ShardIndex/ShardCount and narrows
	// the window to the units the victim never journaled. UnitHi == 0 means
	// unbounded. Both zero (the default) is the whole expansion, so legacy
	// specs and journal headers are unchanged. Set them through Range; they
	// are recorded in journal headers like the shard fields.
	UnitLo int `json:"unit_lo,omitempty"`
	UnitHi int `json:"unit_hi,omitempty"`
	// Workers sets the unit-level pool width (≤ 0 lets WorkerSplit pick
	// it). It affects scheduling only: results are identical for any value.
	Workers int `json:"-"`
}

// Shard returns a copy of s restricted to shard i of m. The assignment
// partitions by expansion index (round-robin), so the m shard specs together
// cover every unit exactly once — run each in its own process with its own
// journal, then MergeJournals the results. Shards may be empty when m
// exceeds the unit count; an empty shard runs nothing and journals only its
// header, which merges cleanly.
func (s Spec) Shard(i, m int) (Spec, error) {
	if m <= 0 {
		return Spec{}, fmt.Errorf("batch: shard count %d must be positive", m)
	}
	if i < 0 || i >= m {
		return Spec{}, fmt.Errorf("batch: shard index %d out of range [0, %d)", i, m)
	}
	s.ShardIndex, s.ShardCount = i, m
	return s, nil
}

// Range returns a copy of s restricted to expansion indices in the
// half-open window [lo, hi); hi == 0 leaves the upper end unbounded. The
// window composes with the shard fields: a ranged shard owns the indices
// that pass both filters. This is how a supervisor reassigns a dead
// shard's unstarted tail — the sub-shard keeps the victim's identity and
// narrows the window, so the resulting journals stay disjoint and merge
// back into exact global order.
func (s Spec) Range(lo, hi int) (Spec, error) {
	if lo < 0 {
		return Spec{}, fmt.Errorf("batch: negative unit range start %d", lo)
	}
	if hi != 0 && hi <= lo {
		return Spec{}, fmt.Errorf("batch: empty unit range [%d, %d)", lo, hi)
	}
	s.UnitLo, s.UnitHi = lo, hi
	return s, nil
}

// Owns reports whether this spec's shard-and-window assignment owns
// expansion index idx — the one ownership rule behind ownedUnits,
// OwnedUnitCount and the supervisor's steal arithmetic.
func (s Spec) Owns(idx int) bool {
	if idx < s.UnitLo || (s.UnitHi > 0 && idx >= s.UnitHi) {
		return false
	}
	return s.ShardCount <= 1 || idx%s.ShardCount == s.ShardIndex
}

// WithDefaults returns s with the documented defaults filled in — the spec
// the engine will actually run. Exposed for orchestrators that must
// reproduce the effective grid outside the engine (shard CLI flags, journal
// layouts, CI matrix entries).
func (s Spec) WithDefaults() Spec { return s.withDefaults() }

// withDefaults fills the documented defaults without mutating the receiver.
func (s Spec) withDefaults() Spec {
	if s.N <= 0 {
		s.N = 64
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []string{"static"}
	}
	if s.Scale <= 0 {
		s.Scale = 1e6
	}
	if s.Epsilon <= 0 {
		s.Epsilon = 1e-3
	}
	return s
}

// Unit is one expanded run: a single (topology, algorithm, mode, workload,
// scenario, seed) combination at a fixed position in the grid.
type Unit struct {
	// Index is the unit's position in expansion order.
	Index int `json:"index"`
	// Topology, Algorithm and Mode are the normalized spec names.
	Topology  string `json:"topology"`
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"`
	// Workload is the parsed initial-distribution kind.
	Workload workload.Kind `json:"-"`
	// WorkloadName is Workload.String(), kept for emitters.
	WorkloadName string `json:"workload"`
	// Scenario is the canonical scenario string, with one exception: the
	// static scenario is stored as "" (and omitted from JSON), so unit
	// keys, seed streams and journal bytes of scenario-free sweeps are
	// byte-identical to those of the pre-scenario engine — old journals
	// replay and merge without translation.
	Scenario string `json:"scenario,omitempty"`
	// ScenarioSpec is the parsed scenario (zero value for static).
	ScenarioSpec scenario.Spec `json:"-"`
	// Seed is the unit's repetition seed from Spec.Seeds.
	Seed int64 `json:"seed"`
}

// Key is the unit's stable identity string. RNG streams are derived from it
// (not from Index), so a unit's result does not change when other
// dimensions are added to the grid around it. Static units keep the
// five-segment legacy form; a non-static scenario appends one segment.
func (u Unit) Key() string {
	k := fmt.Sprintf("%s/%s/%s/%s/s%d", u.Topology, u.Algorithm, u.Mode, u.WorkloadName, u.Seed)
	if u.Scenario != "" {
		k += "/" + u.Scenario
	}
	return k
}

// CellKey is the unit's identity without the seed — the aggregation key.
func (u Unit) CellKey() string {
	k := fmt.Sprintf("%s/%s/%s/%s", u.Topology, u.Algorithm, u.Mode, u.WorkloadName)
	if u.Scenario != "" {
		k += "/" + u.Scenario
	}
	return k
}

// ScenarioSeed is the unit's scenario RNG root — stream 2 of the unit's
// key-derived seed sequence (0 is the workload draw, 1 the algorithm), so
// a scenario's randomness never perturbs the other streams and is
// identical for any worker count or shard split.
func (u Unit) ScenarioSeed() int64 {
	return parallel.DeriveSeed(u.seedBase(), 2)
}

// Inputs returns the unit's initial loads on n nodes at magnitude scale and
// its algorithm seed: streams 0 and 1 of its key-derived seed sequence, so
// a cell's numbers survive the grid growing around it. The sweep and
// lbbench -explain both start a unit from here.
func (u Unit) Inputs(n int, scale float64) (loads []float64, algoSeed int64) {
	base := u.seedBase()
	loads = workload.Continuous(u.Workload, n, scale, rand.New(rand.NewSource(parallel.DeriveSeed(base, 0))))
	return loads, parallel.DeriveSeed(base, 1)
}

// seedBase hashes the unit key into the root of its private seed sequence.
func (u Unit) seedBase() int64 {
	h := fnv.New64a()
	h.Write([]byte(u.Key()))
	return int64(h.Sum64())
}

// Validate checks spec without running anything: N, Scale and MaxRounds
// must be finite and ≥ 0 and Epsilon in [0, 1), every dimension must be non-empty and
// duplicate-free after normalization, modes and workloads must parse, and
// the seed list must not repeat — the same up-front rejection
// Expand applies, exposed so CLIs can fail fast (before truncating a journal
// file) instead of expanding to a zero-unit or duplicated sweep.
func (s Spec) Validate() error {
	_, err := Expand(s)
	return err
}

// validParams rejects run parameters the defaults would otherwise paper
// over: withDefaults replaces a negative ε or count as it does 0, so these
// checks run first. Zero keeps its "default" meaning.
func (s Spec) validParams() error {
	switch {
	case math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) || s.Scale < 0:
		return fmt.Errorf("batch: scale %v must be finite and ≥ 0 (0 = default)", s.Scale)
	case math.IsNaN(s.Epsilon) || s.Epsilon < 0 || s.Epsilon >= 1:
		return fmt.Errorf("batch: epsilon %v must be in [0, 1) (0 = default)", s.Epsilon)
	case s.N < 0:
		return fmt.Errorf("batch: node count %d must be ≥ 0 (0 = default)", s.N)
	case s.MaxRounds < 0:
		return fmt.Errorf("batch: round cap %d must be ≥ 0 (0 = default)", s.MaxRounds)
	}
	return nil
}

// Expand validates spec and produces the exhaustive, duplicate-free unit
// list in deterministic nested order (topology, algorithm, mode, workload,
// scenario, seed — the last dimension varying fastest).
func Expand(spec Spec) ([]Unit, error) {
	if err := spec.validParams(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	if err := spec.validShard(); err != nil {
		return nil, err
	}
	spec, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	for _, d := range spec.nameDims() {
		if len(*d.names) == 0 {
			return nil, fmt.Errorf("batch: spec has no %s entries", d.dim)
		}
	}
	for _, m := range spec.Modes {
		if _, err := load.ParseMode(m); err != nil {
			return nil, fmt.Errorf("batch: %w", err)
		}
	}
	kinds := make([]workload.Kind, len(spec.Workloads))
	for i, name := range spec.Workloads {
		k, err := workload.ParseKind(name)
		if err != nil {
			return nil, fmt.Errorf("batch: %w", err)
		}
		kinds[i] = k
	}
	scnNames, scnSpecs, err := parseScenarios(spec.Scenarios)
	if err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	for _, s := range spec.Seeds {
		if seen[s] {
			return nil, fmt.Errorf("batch: duplicate seed %d", s)
		}
		seen[s] = true
	}

	units := make([]Unit, 0, len(spec.Topologies)*len(spec.Algorithms)*len(spec.Modes)*len(kinds)*len(scnNames)*len(spec.Seeds))
	for _, topo := range spec.Topologies {
		for _, alg := range spec.Algorithms {
			for _, mode := range spec.Modes {
				for wi, kind := range kinds {
					for si, scn := range scnNames {
						for _, seed := range spec.Seeds {
							units = append(units, Unit{
								Index:        len(units),
								Topology:     topo,
								Algorithm:    alg,
								Mode:         mode,
								Workload:     kind,
								WorkloadName: spec.Workloads[wi],
								Scenario:     scn,
								ScenarioSpec: scnSpecs[si],
								Seed:         seed,
							})
						}
					}
				}
			}
		}
	}
	return units, nil
}

// parseScenarios normalizes and parses the scenario dimension. Entries are
// canonicalized (defaults applied) before the duplicate check, so
// "bursty" and "bursty:16:0.25" cannot silently expand to two copies of
// one process; the static scenario canonicalizes to "" (the legacy
// journal-compatible encoding — see Unit.Scenario).
func parseScenarios(in []string) ([]string, []scenario.Spec, error) {
	names := make([]string, len(in))
	specs := make([]scenario.Spec, len(in))
	seen := map[string]bool{}
	for i, r := range in {
		sp, err := scenario.Parse(r)
		if err != nil {
			return nil, nil, fmt.Errorf("batch: %w", err)
		}
		canon := sp.String()
		if seen[canon] {
			return nil, nil, fmt.Errorf("batch: duplicate scenario entry %q (canonical form %q)", r, canon)
		}
		seen[canon] = true
		specs[i] = sp
		if !sp.IsStatic() {
			names[i] = canon
		}
	}
	return names, specs, nil
}

// CanonicalScenarios returns the spec's scenario dimension in display
// canonical form ("static" spelled out) — what SameGrid compares and the
// emitters serialize, stable across spellings of the same process.
func (s Spec) CanonicalScenarios() ([]string, error) {
	names, _, err := parseScenarios(s.withDefaults().Scenarios)
	if err != nil {
		return nil, err
	}
	for i, n := range names {
		if n == "" {
			names[i] = "static"
		}
	}
	return names, nil
}

// headerCanonical returns s with an all-static scenario dimension elided —
// the legacy serialization, so journals of scenario-free sweeps (defaulted
// or spelled "static" explicitly) carry headers byte-identical to the
// pre-scenario engine's. Lists the parser rejects pass through untouched;
// expansion reports the real error.
func (s Spec) headerCanonical() Spec {
	if len(s.Scenarios) == 0 {
		return s
	}
	names, _, err := parseScenarios(s.Scenarios)
	if err != nil {
		return s
	}
	for _, n := range names {
		if n != "" {
			return s
		}
	}
	s.Scenarios = nil
	return s
}

// validShard rejects shard fields set inconsistently (bypassing Shard).
func (s Spec) validShard() error {
	switch {
	case s.ShardCount < 0:
		return fmt.Errorf("batch: negative shard count %d", s.ShardCount)
	case s.ShardCount == 0 && s.ShardIndex != 0:
		return fmt.Errorf("batch: shard index %d without a shard count", s.ShardIndex)
	case s.ShardCount > 0 && (s.ShardIndex < 0 || s.ShardIndex >= s.ShardCount):
		return fmt.Errorf("batch: shard index %d out of range [0, %d)", s.ShardIndex, s.ShardCount)
	case s.UnitLo < 0:
		return fmt.Errorf("batch: negative unit range start %d", s.UnitLo)
	case s.UnitHi < 0:
		return fmt.Errorf("batch: negative unit range end %d", s.UnitHi)
	case s.UnitHi > 0 && s.UnitHi <= s.UnitLo:
		return fmt.Errorf("batch: empty unit range [%d, %d)", s.UnitLo, s.UnitHi)
	}
	return nil
}

// UnitCount is the size of the full expansion (every dimension length
// multiplied out), computable without building the units. Orchestrators use
// it to size a shard split before spawning anything.
func (s Spec) UnitCount() int {
	s = s.withDefaults()
	return len(s.Topologies) * len(s.Algorithms) * len(s.Modes) * len(s.Workloads) * len(s.Scenarios) * len(s.Seeds)
}

// OwnedUnitCount is how many of the expansion's units this spec's
// shard-and-window assignment owns (the full count when unsharded and
// unwindowed) — the denominator of a shard's progress display.
func (s Spec) OwnedUnitCount() int {
	total := s.UnitCount()
	lo, hi := s.UnitLo, s.UnitHi
	if hi == 0 || hi > total {
		hi = total
	}
	if lo >= hi {
		return 0
	}
	if s.ShardCount <= 1 {
		return hi - lo
	}
	// Count of idx in [0, x) with idx % m == i.
	upTo := func(x int) int {
		if x <= s.ShardIndex {
			return 0
		}
		return (x-s.ShardIndex-1)/s.ShardCount + 1
	}
	return upTo(hi) - upTo(lo)
}

// ownedUnits filters units down to the receiver's shard and window.
// Unrestricted specs keep the slice as-is.
func (s Spec) ownedUnits(units []Unit) []Unit {
	if s.ShardCount <= 1 && s.UnitLo == 0 && s.UnitHi == 0 {
		return units
	}
	mine := make([]Unit, 0, s.OwnedUnitCount())
	for _, u := range units {
		if s.Owns(u.Index) {
			mine = append(mine, u)
		}
	}
	return mine
}

// Canonical returns s with every name a user types in its one spelling:
// each topology, algorithm, mode and workload entry trimmed and lowercased.
// It rejects an empty or a duplicate entry, so an expansion is
// duplicate-free by construction; an empty dimension passes, for Expand
// to refuse. Scenarios keep their case, because a
// trace:<file> entry holds a path; scenario.Parse gives them their
// canonical form. Expand, BuildGraphs, SameGrid and the CLIs read names
// only through here; each dimension's own table (topoparse, core's
// algorithms, load's modes, workload's kinds) then checks them.
func (s Spec) Canonical() (Spec, error) {
	for _, d := range s.nameDims() {
		if len(*d.names) == 0 {
			continue
		}
		out := make([]string, 0, len(*d.names))
		for _, name := range *d.names {
			name = strings.ToLower(strings.TrimSpace(name))
			if name == "" {
				return Spec{}, fmt.Errorf("batch: empty %s entry", d.dim)
			}
			if slices.Contains(out, name) {
				return Spec{}, fmt.Errorf("batch: duplicate %s entry %q", d.dim, name)
			}
			out = append(out, name)
		}
		*d.names = out
	}
	return s, nil
}

// nameDim is one name dimension of a spec: its name in messages and its
// entries.
type nameDim struct {
	dim   string
	names *[]string
}

// nameDims lists s's name dimensions in expansion order.
func (s *Spec) nameDims() []nameDim {
	return []nameDim{{"topology", &s.Topologies}, {"algorithm", &s.Algorithms}, {"mode", &s.Modes}, {"workload", &s.Workloads}}
}
