// Package orchestrator turns the sharding primitives (Spec.Shard, JSONL
// shard journals, MergeJournals) into an actual multi-process system: it
// plans a shard split for a grid spec, spawns and supervises the m local
// shard subprocesses (restarting dead ones against their own journals),
// tails the journals for shard-aware live progress, and merges the finished
// journals into a final report byte-identical to a single-process sweep.
// The same plan serializes as a GitHub Actions matrix, so the exact split
// the orchestrator runs locally is what CI runs as matrix jobs.
package orchestrator

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/batch"
)

// Shard is one planned slice of the sweep: which units it owns and where it
// journals them.
type Shard struct {
	// Index/Count name the slice (units with expansion index ≡ Index mod
	// Count).
	Index, Count int
	// Journal is the shard's JSONL journal path, under the plan's Dir.
	Journal string
	// Units is how many units the shard owns — the denominator of its
	// progress display. Zero for empty shards (m > unit count), which
	// journal a lone header and merge cleanly.
	Units int
}

// Plan is a fully-resolved multi-process sweep: the grid, the m-way shard
// split, and the journal layout. The supervisor executes it locally; the
// emitters serialize it for CI and clusters.
type Plan struct {
	// Spec is the unsharded grid spec, defaults applied. Shard specs derive
	// from it.
	Spec batch.Spec
	// Dir is the output directory holding the per-shard journals (and the
	// supervisor's per-shard stderr logs).
	Dir string
	// Format is the final report's render format ("table", "csv", "json").
	// It never reaches the shard children (their stdout is discarded; the
	// journal is the product) — only the merge step the emitted scripts end
	// with. Empty means the CLI default.
	Format string
	// Shards are the m planned shards, in index order.
	Shards []Shard
}

// NewPlan validates spec, splits it m ways and lays the journals out under
// dir (which is not created here — the supervisor and the CLI do that when
// they actually spawn). The spec must expand: planning a grid that cannot
// run is the same error running it would be, surfaced before any process
// exists.
func NewPlan(spec batch.Spec, m int, dir string) (*Plan, error) {
	if m <= 0 {
		return nil, fmt.Errorf("orchestrator: shard count %d must be positive", m)
	}
	if spec.ShardCount > 0 {
		return nil, fmt.Errorf("orchestrator: spec is already sharded (%d/%d) — plan from the unsharded grid", spec.ShardIndex, spec.ShardCount)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Spec: spec.WithDefaults(), Dir: dir}
	for i := 0; i < m; i++ {
		sharded, err := p.Spec.Shard(i, m)
		if err != nil {
			return nil, err
		}
		p.Shards = append(p.Shards, Shard{
			Index:   i,
			Count:   m,
			Journal: filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i)),
			Units:   sharded.OwnedUnitCount(),
		})
	}
	return p, nil
}

// TotalUnits is the full expansion size across all shards.
func (p *Plan) TotalUnits() int { return p.Spec.UnitCount() }

// GridArgs are the lbbench flags that reproduce p.Spec in grid mode —
// exactly the flags a shard subprocess (or a CI matrix entry) needs in
// front of its -shard/-out pair. Floats round-trip through 'g' formatting,
// so the child parses back bit-equal values.
func (p *Plan) GridArgs() []string {
	s := p.Spec
	args := []string{
		"-grid",
		"-topos", strings.Join(s.Topologies, ","),
		"-algos", strings.Join(s.Algorithms, ","),
		"-modes", strings.Join(s.Modes, ","),
		"-loads", strings.Join(s.Workloads, ","),
		"-scenarios", strings.Join(s.Scenarios, ","),
		"-n", strconv.Itoa(s.N),
		"-seeds", joinSeeds(s.Seeds),
		"-scale", strconv.FormatFloat(s.Scale, 'g', -1, 64),
		"-eps", strconv.FormatFloat(s.Epsilon, 'g', -1, 64),
	}
	if s.MaxRounds > 0 {
		args = append(args, "-rounds", strconv.Itoa(s.MaxRounds))
	}
	if s.Workers > 0 {
		args = append(args, "-parallel", strconv.Itoa(s.Workers))
	}
	// Round workers are a pure scheduling knob (results are byte-identical
	// for any value), but the children should run the split the plan was
	// made with; "auto" re-tunes per child against its own shard's shape.
	switch {
	case s.RoundWorkers < 0:
		args = append(args, "-round-workers", "auto")
	case s.RoundWorkers > 1:
		args = append(args, "-round-workers", strconv.Itoa(s.RoundWorkers))
	}
	return args
}

// ShardArgs are the flags for one shard's fresh run: the grid, its slice,
// its journal. When resume is true the shard restarts against its own
// journal (the supervisor's retry path, and the orchestrator's own
// restart-after-crash path).
func (p *Plan) ShardArgs(i int, resume bool) []string {
	sh := p.Shards[i]
	args := append(p.GridArgs(), "-shard", fmt.Sprintf("%d/%d", sh.Index, sh.Count))
	if resume {
		args = append(args, "-resume", sh.Journal)
	}
	return append(args, "-out", sh.Journal)
}

// Tasks builds the initial task list the supervisor schedules: one
// whole-shard task per planned shard, labeled s0..s{m-1}. Steals append to
// this list at run time; it is the starting point, not the final shape.
func (p *Plan) Tasks() []*Task {
	tasks := make([]*Task, len(p.Shards))
	for i, sh := range p.Shards {
		tasks[i] = &Task{
			Shard:   sh,
			Journal: sh.Journal,
			Units:   sh.Units,
			Label:   fmt.Sprintf("s%d", sh.Index),
		}
	}
	return tasks
}

// TaskArgs are the lbbench flags for one attempt of t: the grid, the
// shard slice, the unit window when the task is a stolen sub-range, its
// provenance tag, and its journal. A whole-shard task without origin
// produces exactly the classic ShardArgs flag list, so the local launcher
// path spawns byte-identical command lines to the pre-Launcher supervisor.
func (p *Plan) TaskArgs(t *Task, resume bool) []string {
	args := append(p.GridArgs(), "-shard", fmt.Sprintf("%d/%d", t.Shard.Index, t.Shard.Count))
	if t.Lo > 0 || t.Hi > 0 {
		if t.Hi > 0 {
			args = append(args, "-units", fmt.Sprintf("%d:%d", t.Lo, t.Hi))
		} else {
			args = append(args, "-units", fmt.Sprintf("%d:", t.Lo))
		}
	}
	if t.Origin != "" {
		args = append(args, "-origin", t.Origin)
	}
	if resume {
		args = append(args, "-resume", t.Journal)
	}
	return append(args, "-out", t.Journal)
}

// JournalPaths lists the per-shard journals in shard order — the argument
// to MergeJournals once every shard is done.
func (p *Plan) JournalPaths() []string {
	paths := make([]string, len(p.Shards))
	for i, sh := range p.Shards {
		paths[i] = sh.Journal
	}
	return paths
}

func joinSeeds(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(parts, ",")
}
