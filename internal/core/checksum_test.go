//go:build !race

package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/topoparse"
	"repro/internal/workload"
)

// stateChecksumBaseline pins the final load state of one fixed work profile
// per topology × algorithm × mode × n: a spike of 1e6·n on node 0, seed 1,
// one serial stepper from newSystem, 1 + clamp(2²²/n, 64, 4096) Steps, then
// FNV-64a over the Float64bits (continuous) or token values (discrete). Any
// change to a kernel's operation order, rounding or RNG draw order moves
// them.
//
// First-order diffusion is deliberately absent: its round accumulates
// acc += α·(ℓⱼ−ℓᵢ), a multiply-add Go may fuse into one FMA on some
// architectures and not others, so its bits are not portable. The kernels
// below only add, subtract and divide.
var stateChecksumBaseline = map[string]string{
	"torus/diffusion/continuous/n1024":        "f91850a26a5c2298",
	"torus/diffusion/discrete/n1024":          "c42ea2b944322788",
	"torus/dimexchange/continuous/n1024":      "83fbda67a346e917",
	"torus/dimexchange/discrete/n1024":        "2aa15cfae78c9dd4",
	"torus/randpair/continuous/n1024":         "12ca40e11e069921",
	"torus/randpair/discrete/n1024":           "0a3f80f67ac7c1b3",
	"torus/diffusion/continuous/n4096":        "f687ad6a8e963bd5",
	"torus/diffusion/discrete/n4096":          "197a7396aa7d7df4",
	"torus/dimexchange/continuous/n4096":      "58b4efea0bdf60cb",
	"torus/dimexchange/discrete/n4096":        "78f2ed0d89014463",
	"torus/randpair/continuous/n4096":         "e6e6faa07c31117f",
	"torus/randpair/discrete/n4096":           "bf7411fba1491481",
	"torus/diffusion/continuous/n16384":       "6b62184dad7cf5a5",
	"torus/diffusion/discrete/n16384":         "c02662a5fff6826c",
	"torus/dimexchange/continuous/n16384":     "24a6767a645a3910",
	"torus/dimexchange/discrete/n16384":       "0665942fc17bc6d1",
	"torus/randpair/continuous/n16384":        "5a0f595888d18f4f",
	"torus/randpair/discrete/n16384":          "5c85c9ddb9fa9bc3",
	"hypercube/diffusion/continuous/n1024":    "0dde0fe8d14ae00d",
	"hypercube/diffusion/discrete/n1024":      "6bf497418eb2c96f",
	"hypercube/dimexchange/continuous/n1024":  "4cdfc63cbfdcab25",
	"hypercube/dimexchange/discrete/n1024":    "d82c875fb67d61e3",
	"hypercube/randpair/continuous/n1024":     "12ca40e11e069921",
	"hypercube/randpair/discrete/n1024":       "0a3f80f67ac7c1b3",
	"hypercube/diffusion/continuous/n4096":    "1c98d472e0ffea3b",
	"hypercube/diffusion/discrete/n4096":      "50f92856ee68b6ba",
	"hypercube/dimexchange/continuous/n4096":  "12369c9729a9beea",
	"hypercube/dimexchange/discrete/n4096":    "295a2bc0bf567439",
	"hypercube/randpair/continuous/n4096":     "e6e6faa07c31117f",
	"hypercube/randpair/discrete/n4096":       "bf7411fba1491481",
	"hypercube/diffusion/continuous/n16384":   "0f50af840e5d4c3e",
	"hypercube/diffusion/discrete/n16384":     "d948f4e66b6fe92d",
	"hypercube/dimexchange/continuous/n16384": "c17bae4bd343783a",
	"hypercube/dimexchange/discrete/n16384":   "2651a1c416cb9da9",
	"hypercube/randpair/continuous/n16384":    "5a0f595888d18f4f",
	"hypercube/randpair/discrete/n16384":      "5c85c9ddb9fa9bc3",
}

// TestStateChecksumsMatchBaseline re-runs every pinned work profile and
// requires its final-state checksum to equal the recorded one: the
// cross-change byte-identity gate for the diffusion, dimension-exchange and
// random-pairing kernels at sizes the reference-kernel tests do not reach.
// The table takes about a minute under the race detector, so this file is
// built without it; plain `go test ./...` runs it.
func TestStateChecksumsMatchBaseline(t *testing.T) {
	ran := 0
	for _, topo := range []string{"torus", "hypercube"} {
		for _, size := range []int{1024, 4096, 16384} {
			g, err := topoparse.Build(topo, size, 1)
			if err != nil {
				t.Fatal(err)
			}
			loads := workload.Continuous(workload.Spike, g.N(), 1e6*float64(g.N()), nil)
			rounds := 1 + min(max(1<<22/g.N(), 64), 4096)
			for _, algo := range []Algorithm{Diffusion, DimensionExchange, RandomPartners} {
				for _, mode := range []Mode{Continuous, Discrete} {
					key := fmt.Sprintf("%s/%s/%s/n%d", topo, algo, mode, g.N())
					want, ok := stateChecksumBaseline[key]
					if !ok {
						t.Fatalf("%s: no pinned checksum", key)
					}
					sys, err := newSystem(Config{Graph: g, Algorithm: algo, Mode: mode, Loads: loads, Seed: 1, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					for r := 0; r < rounds; r++ {
						sys.Step()
					}
					h := fnv.New64a()
					var buf [8]byte
					for _, b := range loadBits(t, sys, mode) {
						binary.LittleEndian.PutUint64(buf[:], b)
						h.Write(buf[:])
					}
					if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
						t.Errorf("%s: state checksum %s after %d rounds, baseline %s", key, got, rounds, want)
					}
					ran++
				}
			}
		}
	}
	if ran != len(stateChecksumBaseline) {
		t.Fatalf("checked %d profiles, baseline pins %d", ran, len(stateChecksumBaseline))
	}
}
