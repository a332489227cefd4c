package topoparse

import "testing"

// FuzzBuild checks that Build never panics on any name and size, that every
// graph it returns is simple with endpoints in [0, N), and that the same
// inputs always build the same graph. n is folded into [1, 512] so each
// exec stays cheap. The seed corpus in testdata/fuzz/FuzzBuild holds every
// name, the smallworld n=5 size that used to panic, an unknown name and the
// retired aliases (ring, mesh, clique, line, bintree, regular), which Build
// now refuses.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, n int, seed int64) {
		n = int(uint(n)%512) + 1
		g, err := Build(name, n, seed)
		if err != nil {
			return
		}
		for _, e := range g.Edges() {
			if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= g.N() || e.V >= g.N() {
				t.Fatalf("Build(%q, %d, %d): edge %v outside a simple graph on %d nodes", name, n, seed, e, g.N())
			}
		}
		again, err := Build(name, n, seed)
		if err != nil {
			t.Fatalf("Build(%q, %d, %d) failed on the second call: %v", name, n, seed, err)
		}
		if g.Fingerprint() != again.Fingerprint() {
			t.Fatalf("Build(%q, %d, %d) is not deterministic", name, n, seed)
		}
	})
}
