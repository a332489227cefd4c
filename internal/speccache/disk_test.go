package speccache_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/speccache"
	"repro/internal/spectral"
)

// TestDiskSpillSharesAcrossCaches: a second cache (standing in for a second
// shard process) pointed at the same directory must load the first cache's
// eigensolves from disk instead of recomputing, bit-exactly.
func TestDiskSpillSharesAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	g := graph.Torus(6, 6)

	c1 := speccache.New()
	if err := c1.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	want := c1.MustLambda2(g)
	if _, err := c1.Gamma(g); err != nil {
		t.Fatal(err)
	}
	if s := c1.Stats(); s.Computes != 1 || s.DiskHits != 0 {
		t.Fatalf("first process stats %+v, want 1 compute", s)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no spill files written: %v (%d entries)", err, len(entries))
	}

	c2 := speccache.New()
	if err := c2.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := c2.MustLambda2(g); got != want {
		t.Fatalf("disk-loaded λ₂ %v differs from computed %v", got, want)
	}
	// γ derives from the same record: it loads without a single eigensolve.
	if _, err := c2.Gamma(g); err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.Computes != 0 || s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("second process Laplacian stats %+v, want a disk hit, then a memory hit", s)
	}
	// Values loaded from disk must round-trip bit-exactly (the spill is
	// JSON, and float64s survive Go's JSON encoding exactly).
	if direct := spectral.MustLambda2(g); want != direct || c2.MustLambda2(g) != direct {
		t.Fatal("spilled value is not bit-equal to a direct eigensolve")
	}

	if s := c2.Stats().String(); !strings.Contains(s, "disk") {
		t.Fatalf("stats line hides the disk hits: %q", s)
	}
}

// TestDiskSpillGammaRoundTrips: γ derives from the spilled Laplacian
// record, so a second cache on the same directory must reproduce the first
// cache's γ bit-exactly without a single eigensolve — on a regular graph
// and on one whose degrees mix.
func TestDiskSpillGammaRoundTrips(t *testing.T) {
	dir := t.TempDir()
	graphs := []*graph.G{graph.Grid(6, 6), graph.Torus(6, 6)}

	c1 := speccache.New()
	if err := c1.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	var want [2]float64
	for i, g := range graphs {
		v, err := c1.Gamma(g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	if s := c1.Stats(); s.Computes != 2 || s.DiskHits != 0 {
		t.Fatalf("first process stats %+v, want two Laplacian records computed", s)
	}

	c2 := speccache.New()
	if err := c2.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	for i, g := range graphs {
		got, err := c2.Gamma(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("%s: γ from the spilled record %v differs from computed %v", g.Name(), got, want[i])
		}
	}
	if s := c2.Stats(); s.Computes != 0 || s.DiskHits != 2 {
		t.Fatalf("second process stats %+v, want pure disk hits", s)
	}
}

// TestDiskSpillEntryWithExtraKeysLoads: an entry that also holds a value
// the record does not use (older versions spilled γ_P as "gamma_paper")
// still loads the record as a disk hit.
func TestDiskSpillEntryWithExtraKeysLoads(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid(6, 6)
	want, err := spectral.LaplacianExtremes(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spec-%016x.json", g.Fingerprint()))
	entry := fmt.Sprintf(`{"gamma_paper":0.5,"lambda2":%v,"lambda_max":%v}`, want.Lambda2, want.LambdaMax)
	if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}

	c := speccache.New()
	if err := c.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := c.MustLambda2(g); got != want.Lambda2 {
		t.Fatalf("λ₂ from the entry = %v, want %v", got, want.Lambda2)
	}
	if s := c.Stats(); s.Computes != 0 || s.DiskHits != 1 {
		t.Fatalf("entry with extra keys did not load as a disk hit: %+v", s)
	}
}

// TestDiskSpillOlderEntryRecomputes: an entry spilled before the Laplacian
// record carried λ_max holds only "lambda2" (and "gamma"). Loading it would
// leave λ_max = 0 and a wrong γ, so the record must recompute and rewrite
// the entry with λ_max.
func TestDiskSpillOlderEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	g := graph.DeBruijn(5)
	l2 := spectral.MustLambda2(g)
	want, err := spectral.GammaOf(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spec-%016x.json", g.Fingerprint()))
	if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"gamma":%v,"lambda2":%v}`, want, l2)), 0o644); err != nil {
		t.Fatal(err)
	}

	c := speccache.New()
	if err := c.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := c.Gamma(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("γ from an older spill entry = %v, want %v", got, want)
	}
	if s := c.Stats(); s.Computes != 1 || s.DiskHits != 0 {
		t.Fatalf("older entry counted as a disk hit: %+v", s)
	}
	if raw := readFile(t, path); !strings.Contains(raw, `"lambda_max":`) {
		t.Fatalf("recompute did not write λ_max to the entry: %s", raw)
	}
}

// TestDiskSpillCorruptEntryRecomputes: torn or garbage spill files must
// degrade to a recompute, never to an error or a wrong value.
func TestDiskSpillCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	g := graph.Cycle(20)

	seed := speccache.New()
	if err := seed.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	want := seed.MustLambda2(g)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected exactly one spill file, got %d (%v)", len(entries), err)
	}
	path := filepath.Join(dir, entries[0].Name())
	if err := os.WriteFile(path, []byte(`{"lambda2": tor`), 0o644); err != nil {
		t.Fatal(err)
	}

	c := speccache.New()
	if err := c.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := c.MustLambda2(g); got != want {
		t.Fatalf("recomputed λ₂ %v differs from original %v", got, want)
	}
	if s := c.Stats(); s.Computes != 1 || s.DiskHits != 0 {
		t.Fatalf("corrupt entry was counted as a disk hit: %+v", s)
	}
	// The recompute healed the entry on disk for the next process.
	c3 := speccache.New()
	if err := c3.SetDiskDir(dir); err != nil {
		t.Fatal(err)
	}
	c3.MustLambda2(g)
	if s := c3.Stats(); s.DiskHits != 1 {
		t.Fatalf("healed entry not served from disk: %+v", s)
	}
}

// TestDiskSpillDisabledByDefault: a cache without SetDiskDir must never
// touch the filesystem.
func TestDiskSpillDisabledByDefault(t *testing.T) {
	c := speccache.New()
	c.MustLambda2(graph.Cycle(12))
	if s := c.Stats(); s.DiskHits != 0 || s.Computes != 1 {
		t.Fatalf("memory-only cache produced disk traffic: %+v", s)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
