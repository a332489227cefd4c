package main

import "repro/internal/batch"

// Example_explain pins the whole report of one small unit. amd64 only: the
// spectrum's rounding residue and the trace's shortest-form floats are the
// bits this architecture computes.
func Example_explain() {
	base := batch.Spec{N: 5, Scale: 1000, Epsilon: 0.01}
	runExplain(base, "cycle/diffusion/discrete/spike/s1", nil)
	// Output:
	// unit         : cycle/diffusion/discrete/spike/s1
	// graph        : cycle(5){n=5 m=5 δ=2}
	// connected    : true
	// diameter     : 2
	// λ₂           : 1.381966 (closed form)
	// λ₂ closed    : 1.381966 (Δ = 0)
	// λ_max        : 3.618034
	// γ (α=1/(δ+1)): 0.53934466  (eigen gap µ = 0.460655)
	// expansion    : Cheeger bounds [0.690983, 2.35114]
	// Theorem 4    : T(ε=0.01) = 26.7 rounds
	// Theorem 6    : residual threshold Φ* = 1852.43
	// expansion ex.: 1
	// spectrum     :
	//   λ_1   = -2.9897674e-30
	//   λ_2   = 1.381966
	//   λ_3   = 1.381966
	//   λ_4   = 3.618034
	//   λ_5   = 3.618034
	// algorithm    : diffusion (discrete)
	// workload     : spike, scale 1000
	// Φ            : 800000 → 6894 (ε target 0.01)
	// rounds       : 11 (converged: true)
	// paper bound  : 70.3 rounds (Theorem 6) — measured/bound = 0.157
	//
	// round,phi
	// 0,800000
	// 1,393750
	// 2,223974
	// 3,140806
	// 4,93086
	// 5,63014
	// 6,42894
	// 7,29816
	// 8,20454
	// 9,14166
	// 10,9744
	// 11,6894
}
