package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// TestRegistryRoundTrip: every scenario kind must have a registered name
// that parses back, and the count sentinel must cover every declared
// constant — adding a generator without registering it fails here, not at
// sweep time.
func TestRegistryRoundTrip(t *testing.T) {
	err := verifyRegistry(int(kindCount),
		func(i int) string { return Kind(i).String() },
		func(s string) (int, error) {
			k, err := ParseKind(s)
			return int(k), err
		})
	if err != nil {
		t.Fatalf("scenario registry: %v", err)
	}
}

// TestWorkloadRegistryRoundTrip applies the same quick-check to the
// workload registry — the two registries share one exhaustiveness
// invariant and now share one test for it.
func TestWorkloadRegistryRoundTrip(t *testing.T) {
	err := verifyRegistry(len(workload.AllKinds()),
		func(i int) string { return workload.Kind(i).String() },
		func(s string) (int, error) {
			k, err := workload.ParseKind(s)
			return int(k), err
		})
	if err != nil {
		t.Fatalf("workload registry: %v", err)
	}
}

// verifyRegistry checks a kind registry for the two tests above: every kind
// index in [0, n) must stringify to a real name (not the "Kind(i)" fallback,
// which means a constant was added without a String case), the name must
// parse back to the same index, and index n itself must hit the fallback
// (which means the registry's count sentinel covers every declared
// constant). Returns the first violation.
func verifyRegistry(n int, name func(i int) string, parse func(s string) (int, error)) error {
	for i := 0; i < n; i++ {
		s := name(i)
		if strings.Contains(s, "(") {
			return fmt.Errorf("kind %d has no registered name (String() = %q)", i, s)
		}
		j, err := parse(s)
		if err != nil {
			return fmt.Errorf("kind %d (%q) does not parse back: %v", i, s, err)
		}
		if j != i {
			return fmt.Errorf("kind %d (%q) parses to %d", i, s, j)
		}
	}
	if s := name(n); !strings.Contains(s, "(") {
		return fmt.Errorf("kind %d (%q) is named but not counted by the registry sentinel", n, s)
	}
	return nil
}

// TestParseCanonicalRoundTrip: Parse∘String is the identity, defaults
// included, for every registered kind and for explicit parameters.
func TestParseCanonicalRoundTrip(t *testing.T) {
	var cases []string
	for _, name := range Names() {
		if name == "trace" {
			// The bare kind name is not parseable — trace always carries
			// a path, case preserved.
			name = "trace:testdata/Events.jsonl"
		}
		cases = append(cases, name)
	}
	cases = append(cases,
		"poisson-arrivals:0.05", "bursty:32:0.5", "adversarial-respike:4:1",
		"hotspot-drift:0.1:2", "edge-churn:0.25", "periodic-failures:16:3",
		"  Adversarial-Respike  ", "bursty:32")
	for _, in := range cases {
		sp, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		canon := sp.String()
		sp2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) (canonical of %q): %v", canon, in, err)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("canonical %q re-parses to %+v, want %+v", canon, sp2, sp)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"", "wat", "static:1", "poisson-arrivals:0", "poisson-arrivals:x",
		"bursty:1.5", "edge-churn:2", "bursty:8:0.5:9", "periodic-failures:0",
		"trace", "trace:", "trace:a,b.jsonl", "trace:has space.jsonl",
		"poisson-arrivals:nan", "poisson-arrivals:inf", "poisson-arrivals:+Inf",
		"bursty:32:nan", "bursty:32:inf", "hotspot-drift:nan", "adversarial-respike:8:infinity",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

// TestDescriptionsCoverEveryKind: the -list surface must describe every
// registered kind (matched on the base name before any parameter syntax).
func TestDescriptionsCoverEveryKind(t *testing.T) {
	desc := map[string]bool{}
	for _, d := range Descriptions() {
		base := strings.SplitN(d[0], "[", 2)[0]
		base = strings.SplitN(base, ":", 2)[0] // trace:<file.jsonl> → trace
		desc[base] = true
	}
	for _, name := range Names() {
		if !desc[name] {
			t.Errorf("no description for scenario %q", name)
		}
	}
}

// TestInstanceDeterminism: the same seed must produce the same arrival and
// graph schedule; a different seed must not (for the randomized kinds).
func TestInstanceDeterminism(t *testing.T) {
	base := graph.Torus(4, 4)
	loads := make([]float64, base.N())
	loads[3] = 100
	for _, name := range []string{
		"poisson-arrivals", "bursty:2:0.5", "adversarial-respike:2:0.5",
		"hotspot-drift", "edge-churn:0.3", "periodic-failures:2:3",
	} {
		sp, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(seed int64) (fp []uint64, arr [][]Arrival) {
			inst, err := sp.New(base, 1000, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k := 0; k < 16; k++ {
				fp = append(fp, inst.Graph(k).Fingerprint())
				arr = append(arr, inst.Arrivals(k, loads))
			}
			return fp, arr
		}
		fp1, arr1 := run(7)
		fp2, arr2 := run(7)
		if !reflect.DeepEqual(fp1, fp2) || !reflect.DeepEqual(arr1, arr2) {
			t.Fatalf("%s: same seed, different schedule", name)
		}
	}
}

// TestAdversarialRespikeAims: the respike must land on the currently
// most-loaded node, with the lowest index winning ties.
func TestAdversarialRespikeAims(t *testing.T) {
	base := graph.Cycle(8)
	sp, err := Parse("adversarial-respike:1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sp.New(base, 1000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	inst.Graph(0)
	loads := []float64{1, 9, 2, 9, 0, 0, 0, 0}
	arr := inst.Arrivals(0, loads)
	if len(arr) != 1 || arr[0].Node != 1 || arr[0].Amount != 500 {
		t.Fatalf("respike = %+v, want node 1 amount 500", arr)
	}
}

// TestChurnScenariosAreArrivalFree: topology-churn scenarios inject
// nothing (their runs may stop early on the balance target), while the
// arrival scenarios do not claim that.
func TestChurnScenariosAreArrivalFree(t *testing.T) {
	base := graph.Cycle(8)
	for name, wantFree := range map[string]bool{
		"static": true, "edge-churn": true, "periodic-failures": true,
		"poisson-arrivals": false, "bursty": false,
		"adversarial-respike": false, "hotspot-drift": false,
	} {
		sp, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sp.New(base, 100, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if inst.ArrivalFree() != wantFree {
			t.Errorf("%s: ArrivalFree = %v, want %v", name, inst.ArrivalFree(), wantFree)
		}
	}
}

// TestPeriodicFailuresHoldsPerPeriod: the failed edge set must persist for
// the whole period, then redraw.
func TestPeriodicFailuresHoldsPerPeriod(t *testing.T) {
	base := graph.Torus(4, 4)
	sp, err := Parse("periodic-failures:4:3")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sp.New(base, 100, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	g0 := inst.Graph(0)
	for k := 1; k < 4; k++ {
		if inst.Graph(k) != g0 {
			t.Fatalf("round %d swapped graphs inside a period", k)
		}
	}
	if g4 := inst.Graph(4); g4 == g0 {
		t.Fatal("round 4 did not redraw the failure set")
	} else if g4.M() != base.M()-3 {
		t.Fatalf("redrawn graph has %d edges, want %d", g4.M(), base.M()-3)
	}
	if g0.M() != base.M()-3 {
		t.Fatalf("failed graph has %d edges, want %d", g0.M(), base.M()-3)
	}
}

// TestStaticIsNoOp: the zero Spec is static, returns the base graph and no
// arrivals.
func TestStaticIsNoOp(t *testing.T) {
	var sp Spec
	if !sp.IsStatic() || sp.String() != "static" {
		t.Fatalf("zero Spec = %q, IsStatic %v", sp.String(), sp.IsStatic())
	}
	base := graph.Cycle(4)
	inst, err := sp.New(base, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Graph(5) != base || inst.Arrivals(5, []float64{1, 2, 3, 4}) != nil {
		t.Fatal("static scenario is not a no-op")
	}
}
