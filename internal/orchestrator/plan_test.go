package orchestrator

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/batch"
)

func testSpec() batch.Spec {
	return batch.Spec{
		Topologies: []string{"cycle", "path"},
		Algorithms: []string{"diffusion"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike", "uniform"},
		Seeds:      []int64{1, 2},
		N:          16,
	}
}

func TestNewPlanSplitsExhaustively(t *testing.T) {
	spec := testSpec() // 2*1*1*2*2 = 8 units
	p, err := NewPlan(spec, 3, "out")
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalUnits() != 8 {
		t.Fatalf("TotalUnits = %d, want 8", p.TotalUnits())
	}
	sum := 0
	for i, pt := range p.Tasks {
		if pt.Shard != (Shard{Index: i, Count: 3}) || pt.Label != "s"+strconv.Itoa(i) {
			t.Fatalf("task %d mislabeled: %+v", i, pt)
		}
		if pt.Lo != 0 || pt.Hi != 0 {
			t.Fatalf("task %d is not a whole planned shard: %+v", i, pt)
		}
		if want := filepath.Join("out", "shard-"+strconv.Itoa(i)+".jsonl"); pt.Journal != want {
			t.Fatalf("shard %d journal = %q, want %q", i, pt.Journal, want)
		}
		sum += pt.Units
	}
	if sum != 8 {
		t.Fatalf("shard unit counts sum to %d, want 8", sum)
	}
}

// TestNewPlanEmptyShards: m beyond the unit count plans empty shards (they
// journal a lone header and merge cleanly) rather than failing.
func TestNewPlanEmptyShards(t *testing.T) {
	p, err := NewPlan(testSpec(), 10, "out")
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, pt := range p.Tasks {
		if pt.Units == 0 {
			empty++
		}
	}
	if empty != 2 {
		t.Fatalf("%d empty shards, want 2 (10 shards, 8 units)", empty)
	}
}

func TestNewPlanRejects(t *testing.T) {
	if _, err := NewPlan(testSpec(), 0, "out"); err == nil {
		t.Fatal("m=0 accepted")
	}
	sharded, err := testSpec().Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(sharded, 3, "out"); err == nil {
		t.Fatal("already-sharded spec accepted")
	}
	bad := testSpec()
	bad.Topologies = nil
	if _, err := NewPlan(bad, 3, "out"); err == nil {
		t.Fatal("unexpandable spec accepted")
	}
}

// TestShardArgsRoundTrip: a planned shard's flags must reproduce the spec's
// effective values exactly — floats included — or the children would sweep
// a subtly different grid than the merge validates against.
func TestShardArgsRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.Epsilon = 1e-5 / 3 // not representable as a short decimal
	spec.Scale = 12345.6789
	spec.MaxRounds = 77
	spec.Workers = 4
	p, err := NewPlan(spec, 2, "d")
	if err != nil {
		t.Fatal(err)
	}
	args := p.TaskArgs(p.Tasks[1], false)
	get := func(flag string) string {
		for i, a := range args {
			if a == flag && i+1 < len(args) {
				return args[i+1]
			}
		}
		t.Fatalf("flag %s missing from %v", flag, args)
		return ""
	}
	if eps, err := strconv.ParseFloat(get("-eps"), 64); err != nil || eps != spec.Epsilon {
		t.Fatalf("-eps %q does not round-trip to %v", get("-eps"), spec.Epsilon)
	}
	if sc, err := strconv.ParseFloat(get("-scale"), 64); err != nil || sc != spec.Scale {
		t.Fatalf("-scale %q does not round-trip to %v", get("-scale"), spec.Scale)
	}
	if get("-shard") != "1/2" || get("-rounds") != "77" || get("-parallel") != "4" {
		t.Fatalf("bad shard args: %v", args)
	}
	if get("-out") != filepath.Join("d", "shard-1.jsonl") {
		t.Fatalf("bad -out: %v", args)
	}
	if strings.Contains(strings.Join(args, " "), "-resume") {
		t.Fatalf("fresh args carry -resume: %v", args)
	}
	resumed := strings.Join(p.TaskArgs(p.Tasks[1], true), " ")
	if !strings.Contains(resumed, "-resume "+filepath.Join("d", "shard-1.jsonl")) {
		t.Fatalf("resume args missing -resume: %v", resumed)
	}
}
