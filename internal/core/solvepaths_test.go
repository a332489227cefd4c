package core

import (
	"context"
	"os"
	"testing"

	"repro/internal/batch"
	"repro/internal/speccache"
	"repro/internal/spectral"
	"repro/internal/topoparse"
)

// TestGridSolvePaths: a grid over every registered topology with the two
// algorithms that need spectra (diffusion for λ₂, secondorder for γ too)
// solves each graph's Laplacian once. The nine family constructors' graphs
// (eight topology names) take their closed form; the other ten take one
// dense solve at n = 64 and one Lanczos run at n = 512.
func TestGridSolvePaths(t *testing.T) {
	cache := speccache.Shared()
	if err := cache.SetDiskDir(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cache.Reset()
		_ = cache.SetDiskDir(os.Getenv(speccache.EnvDiskDir))
	})
	for _, c := range []struct {
		n    int
		want spectral.SolveCounts
	}{
		{64, spectral.SolveCounts{ClosedForm: 8, Dense: 10}},
		{512, spectral.SolveCounts{ClosedForm: 8, Lanczos: 10}},
	} {
		cache.Reset()
		before := spectral.SolveStats()
		rep, err := GridRun(context.Background(), batch.Spec{
			Topologies: topoparse.Names(),
			Algorithms: []string{"diffusion", "secondorder"},
			Modes:      []string{"continuous"},
			Workloads:  []string{"spike"},
			Seeds:      []int64{1},
			N:          c.n,
			MaxRounds:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Cells) != 36 {
			t.Fatalf("n=%d: %d cells, want 36", c.n, len(rep.Cells))
		}
		after := spectral.SolveStats()
		got := spectral.SolveCounts{
			ClosedForm:   after.ClosedForm - before.ClosedForm,
			Dense:        after.Dense - before.Dense,
			Lanczos:      after.Lanczos - before.Lanczos,
			InversePower: after.InversePower - before.InversePower,
		}
		if got != c.want {
			t.Errorf("n=%d: solves %+v, want %+v", c.n, got, c.want)
		}
	}
}
