// Package orchestrator turns the sharding primitives (Spec.Shard, JSONL
// shard journals) into an actual multi-process system: it plans a shard
// split for a grid spec as one Task per shard, spawns and supervises the
// tasks through the Launchers it is given (restarting dead ones against
// their own journals, stealing from stalled ones), tails the journals for
// task-aware live progress, and hands back the finished journal set
// (Supervisor.Journals). It does not merge them: the caller does, through
// batch.MergeJournals — lbbench -spawn runs the same path as lbbench
// -merge, so the report is byte-identical to a single-process sweep. The
// same plan serializes as a GitHub Actions matrix whose entries carry each
// task's exact command line (Plan.TaskArgs), so the split the orchestrator
// runs locally is what CI runs as matrix jobs.
package orchestrator

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/batch"
)

// Shard names one planned slice of the sweep: the units with expansion
// index ≡ Index mod Count.
type Shard struct {
	Index, Count int
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
	// Tasks are the m whole-shard tasks, in shard order, labeled
	// s0..s{m-1}, each journaling to shard-i.jsonl under Dir. Empty shards
	// (m > unit count) own zero units, journal a lone header and merge
	// cleanly. The supervisor starts from this list and appends stolen
	// sub-shards to its own copy at run time.
	Tasks []*Task
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
		p.Tasks = append(p.Tasks, &Task{
			Shard:   Shard{Index: i, Count: m},
			Journal: filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i)),
			Units:   sharded.OwnedUnitCount(),
			Label:   fmt.Sprintf("s%d", i),
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
	return args
}

// TaskArgs are the lbbench flags for one attempt of t: the grid, the
// shard slice, the unit window when the task is a stolen sub-range, and its
// journal. A whole-shard task gets the classic shard flag list (grid,
// -shard i/m, -out), which is also what each CI matrix entry runs.
func (p *Plan) TaskArgs(t *Task, resume bool) []string {
	args := append(p.GridArgs(), "-shard", fmt.Sprintf("%d/%d", t.Shard.Index, t.Shard.Count))
	if t.Lo > 0 || t.Hi > 0 {
		if t.Hi > 0 {
			args = append(args, "-units", fmt.Sprintf("%d:%d", t.Lo, t.Hi))
		} else {
			args = append(args, "-units", fmt.Sprintf("%d:", t.Lo))
		}
	}
	if resume {
		args = append(args, "-resume", t.Journal)
	}
	return append(args, "-out", t.Journal)
}

func joinSeeds(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(parts, ",")
}
