package spectral_test

import (
	"math"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/topoparse"
)

// TestRecordBitsPinned pins λ₂, λ_max and γ_P bit for bit on the graphs a
// sweep builds for every registered topology: at n = 64 the non-family
// graphs take the dense path, at n = 512 the Lanczos path. Any change to the
// eigensolvers (reduction, QL, the Lanczos start vector or its check
// cadence) that moves a bit fails here.
func TestRecordBitsPinned(t *testing.T) {
	pinned := []struct {
		name                     string
		n                        int
		lambda2, lambdaMax, gamP uint64
	}{
		{"path", 64, 0x3f63bc390d250400, 0x400ffb10f1bcb6bf, 0x3feffd8878de5b60},            // closed form
		{"cycle", 64, 0x3f83b92e176d6d80, 0x4010000000000000, 0x3feff62368f44949},           // closed form
		{"grid", 64, 0x3fc37ca1866b95d0, 0x401ec835e79946a3, 0x3fefabcd413391f9},            // closed form
		{"torus", 64, 0x3fe2bec333018866, 0x4020000000000000, 0x3feed413cccfe77a},           // closed form
		{"torus3d", 64, 0x3fffffffffffffdc, 0x4028000000000002, 0x3fed555555555558},         // dense Householder+QL
		{"hypercube", 64, 0x4000000000000000, 0x4028000000000000, 0x3fed555555555555},       // closed form
		{"debruijn", 64, 0x3fd95a1ab1a51c47, 0x401df4b2a741322c, 0x3fef352f2a72d71c},        // dense Householder+QL
		{"ccc", 64, 0x3fd29b3b85d70633, 0x4017fffffffffffd, 0x3fef39882fc1b513},             // dense Householder+QL
		{"butterfly", 64, 0x3fe8722191a02d37, 0x401fffffffffffff, 0x3fee78dde6e5fd2d},       // dense Householder+QL
		{"complete", 64, 0x4050000000000000, 0x4050000000000000, 0x3fe7df7df7df7df8},        // closed form
		{"star", 64, 0x3ff0000000000000, 0x4050000000000000, 0x3fefdf7df7df7df8},            // closed form
		{"tree", 64, 0x3f81705d6ce71749, 0x4016317c0d64851f, 0x3feffa2fe0dbb2f8},            // dense Householder+QL
		{"random-regular", 64, 0x3fe9c30c189848cf, 0x401d7a165c1a51b9, 0x3fee63cf3e767b73},  // dense Householder+QL
		{"petersen", 64, 0x4000000000000000, 0x4014000000000000, 0x3feaaaaaaaaaaaab},        // closed form
		{"barbell", 64, 0x3fae2b80d8d06698, 0x4040f8751fc9cbdc, 0x3feffc3a8fe4e5fa},         // dense Householder+QL
		{"lollipop", 64, 0x3f7bc71d6824ae08, 0x404580130d081fb6, 0x3feffd8d1fd993fe},        // dense Householder+QL
		{"smallworld", 64, 0x3fbe95c4cbc8e9bc, 0x401ba8af74437b34, 0x3fefc7e014cc3bb8},      // dense Householder+QL
		{"rgg", 64, 0x3fe2981e1db61cf0, 0x4038943a389eb0f1, 0x3fefaba0f970215c},             // dense Householder+QL
		{"path", 512, 0x3f03bd38bab70000, 0x400fffec42c74549, 0x3feffff62163a2a4},           // closed form
		{"cycle", 512, 0x3f23bd2c8da48000, 0x4010000000000000, 0x3fefffd885a6e4b7},          // closed form
		{"grid", 512, 0x3f93133f29564cc0, 0x401fd9d981ad5366, 0x3feff630fabe8af1},           // closed form
		{"torus", 512, 0x3fb2fc815c2d2450, 0x401fd9d981ad5366, 0x3fefda06fd47a5b7},          // closed form
		{"torus3d", 512, 0x3fe2bec333018870, 0x4028000000000000, 0x3fef380d333544fb},        // implicit Lanczos
		{"hypercube", 512, 0x4000000000000000, 0x4032000000000000, 0x3fee38e38e38e38e},      // closed form
		{"debruijn", 512, 0x3fc90d0d049bab26, 0x401f263f6821ce18, 0x3fef9bc81a70e8df},       // implicit Lanczos
		{"ccc", 512, 0x3fbfab7b2ff33f9a, 0x4017352f2a72d71e, 0x3fefab8c0cd57756},            // implicit Lanczos
		{"butterfly", 512, 0x3fd37ca1866b95c0, 0x401ec835e79946a2, 0x3fef641af3cca352},      // implicit Lanczos
		{"complete", 512, 0x4080000000000000, 0x4080000000000000, 0x3fe7fbfdfeff7fc0},       // closed form
		{"star", 512, 0x3ff0000000000000, 0x4080000000000000, 0x3feffbfdfeff7fc0},           // closed form
		{"tree", 512, 0x3f5041a283c91df8, 0x4016c28dccb7e6d7, 0x3fefff52993a8249},           // implicit Lanczos
		{"random-regular", 512, 0x3fe120c04b2d09e0, 0x401dcb6839a3dc79, 0x3feeedf3fb4d2f62}, // implicit Lanczos
		{"petersen", 512, 0x4000000000000000, 0x4014000000000000, 0x3feaaaaaaaaaaaab},       // closed form
		{"barbell", 512, 0x3f7fc0bd88dc9323, 0x40701fe03f42771c, 0x3feffff01fa13b92},        // implicit Lanczos
		{"lollipop", 512, 0x3f1e1da4b0cc6b7c, 0x40756000090b5603, 0x3feffff6164ddf49},       // implicit Lanczos
		{"smallworld", 512, 0x3fb45226107ed814, 0x401fcc452f0ebfb4, 0x3fefdcbc9ba769dc},     // implicit Lanczos
		{"rgg", 512, 0x3fd443c903214707, 0x40428eb255629951, 0x3fefe42c3c4f6178},            // implicit Lanczos
	}
	graphs := map[int]map[string]*graph.G{}
	for _, n := range []int{64, 512} {
		gs, err := batch.BuildGraphs(batch.Spec{Topologies: topoparse.Names(), N: n})
		if err != nil {
			t.Fatal(err)
		}
		graphs[n] = gs
	}
	if want := 2 * len(topoparse.Names()); len(pinned) != want {
		t.Fatalf("%d pinned records, want %d", len(pinned), want)
	}
	for _, p := range pinned {
		g := graphs[p.n][p.name]
		r, err := spectral.LaplacianExtremes(g)
		if err != nil {
			t.Fatalf("%s n=%d: %v", p.name, p.n, err)
		}
		gp, err := spectral.PaperGammaOf(g)
		if err != nil {
			t.Fatalf("%s n=%d: γ_P: %v", p.name, p.n, err)
		}
		for _, c := range []struct {
			what string
			got  float64
			want uint64
		}{{"λ₂", r.Lambda2, p.lambda2}, {"λ_max", r.LambdaMax, p.lambdaMax}, {"γ_P", gp, p.gamP}} {
			if bits := math.Float64bits(c.got); bits != c.want {
				t.Errorf("%s n=%d (%s): %s = %v (%#016x), want %v (%#016x)",
					p.name, p.n, r.Path, c.what, c.got, bits, math.Float64frombits(c.want), c.want)
			}
		}
	}
}
