package batch_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/batch"
)

// recase flips the case of the ASCII letters of names whose bit in mask is
// set and pads each entry with whitespace mask picks: a spelling the
// normalizer must read as the original.
func recase(names []string, mask uint64) []string {
	pads := [...]string{"", " ", "\t", "  \t "}
	out := make([]string, len(names))
	for i, name := range names {
		b := []byte(name)
		for j, c := range b {
			if mask>>((i*7+j)%64)&1 == 1 && ('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
				b[j] = c ^ 0x20
			}
		}
		out[i] = pads[mask>>(i%32*2)&3] + string(b) + pads[mask>>((i+1)%32*2)&3]
	}
	return out
}

// FuzzSpecNames checks that a name's spelling never changes a sweep: a spec
// and a copy whose topology, algorithm, mode and workload entries are
// re-cased and padded expand to identical units, keys included, or both
// fail. Scenarios are shared as given, since a trace:<file> entry keeps
// its case. Each dimension is capped at four entries to keep an exec cheap.
func FuzzSpecNames(f *testing.F) {
	f.Add("torus,cycle", "diffusion,randpair", "continuous,discrete", "spike,uniform", "static,poisson-arrivals:0.05", uint64(0x5a5a5a5a))
	f.Add("Torus", "Diffusion", "Discrete", "Spike", "trace:Runs/Rec.jsonl", ^uint64(0))
	f.Add("cycle, CYCLE", "diffusion", "continuous", "spike", "static", uint64(1))
	f.Add("torus", "diffusion", "tokens", "spike", "static", uint64(2))
	f.Add("torus, ", "diffusion", "continuous", "spike", "bursty,bursty:16:0.25", uint64(3))
	f.Add("ſ,s,K", "İ", "continuous", "\xffspike", "static", uint64(0xffff))
	f.Fuzz(func(t *testing.T, topos, algos, modes, loads, scenarios string, mask uint64) {
		dims := [][]string{strings.Split(topos, ","), strings.Split(algos, ","), strings.Split(modes, ","), strings.Split(loads, ",")}
		for _, d := range dims {
			if len(d) > 4 {
				t.Skip()
			}
		}
		scn := strings.Split(scenarios, ",")
		if len(scn) > 4 {
			t.Skip()
		}
		spec := batch.Spec{Topologies: dims[0], Algorithms: dims[1], Modes: dims[2], Workloads: dims[3], Scenarios: scn, Seeds: []int64{1, 2}}
		typed := spec
		typed.Topologies, typed.Algorithms = recase(dims[0], mask), recase(dims[1], mask>>1)
		typed.Modes, typed.Workloads = recase(dims[2], mask>>2), recase(dims[3], mask>>3)
		want, errWant := batch.Expand(spec)
		got, errGot := batch.Expand(typed)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%+v expands with error %v; re-cased %+v with %v", spec, errWant, typed, errGot)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v and its re-cased %+v expand to different units", spec, typed)
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("unit %d: key %q, re-cased %q", i, want[i].Key(), got[i].Key())
			}
		}
	})
}

// TestBuildGraphsCaseInsensitive: a padded, upper-case topology name builds
// the instance its canonical name does, under the canonical name — the
// randomized families included, whose construction seed hashes the name.
func TestBuildGraphsCaseInsensitive(t *testing.T) {
	for _, name := range []string{"torus", "random-regular"} {
		want, err := batch.BuildGraphs(batch.Spec{Topologies: []string{name}, N: 16})
		if err != nil {
			t.Fatal(err)
		}
		got, err := batch.BuildGraphs(batch.Spec{Topologies: []string{"  " + strings.ToUpper(name) + " "}, N: 16})
		if err != nil {
			t.Fatal(err)
		}
		if g := got[name]; g == nil || g.Fingerprint() != want[name].Fingerprint() {
			t.Fatalf("%q builds %v, want the %s instance", strings.ToUpper(name), got, name)
		}
	}
}
