package perfbench

import (
	"path/filepath"
	"strings"
	"testing"
)

func baseReport() *Report {
	return &Report{
		Version:       1,
		CalibrationNs: 1000,
		Rounds: []RoundResult{
			{Topology: "torus", Algorithm: "diffusion", Mode: "continuous", N: 1024, RoundWorkers: 1, NsPerRound: 5000},
			{Topology: "torus", Algorithm: "randpair", Mode: "discrete", N: 4096, RoundWorkers: 8, NsPerRound: 20000},
		},
		Sweeps: []SweepResult{
			{Name: "many-small", UnitWorkers: 4, RoundWorkers: 1, CellsPerSec: 50},
		},
	}
}

func TestCompareIdentical(t *testing.T) {
	res, err := Compare(baseReport(), baseReport(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("identical reports flagged: %+v", res)
	}
	if res.Scale != 1 {
		t.Fatalf("scale = %v, want 1", res.Scale)
	}
	if len(res.Deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(res.Deltas))
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	cur := baseReport()
	cur.Rounds[0].NsPerRound *= 2 // 100% slower
	res, err := Compare(baseReport(), cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || len(res.Regressions) != 1 {
		t.Fatalf("2× slowdown not flagged: %+v", res)
	}
	if res.Regressions[0].Key != cur.Rounds[0].Key() {
		t.Fatalf("flagged %s, want %s", res.Regressions[0].Key, cur.Rounds[0].Key())
	}
}

func TestCompareFlagsThroughputDrop(t *testing.T) {
	cur := baseReport()
	cur.Sweeps[0].CellsPerSec /= 2 // half the throughput
	res, err := Compare(baseReport(), cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || len(res.Regressions) != 1 || res.Regressions[0].Kind != "cells_per_sec" {
		t.Fatalf("throughput drop not flagged: %+v", res)
	}
}

// TestCompareNormalizesMachineSpeed: a uniformly 2× slower machine (the
// calibration anchor doubled along with every measurement) is not a
// regression — only movement relative to the anchor is.
func TestCompareNormalizesMachineSpeed(t *testing.T) {
	cur := baseReport()
	cur.CalibrationNs *= 2
	for i := range cur.Rounds {
		cur.Rounds[i].NsPerRound *= 2
	}
	for i := range cur.Sweeps {
		cur.Sweeps[i].CellsPerSec /= 2
	}
	res, err := Compare(baseReport(), cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("uniform 2× slowdown (slower machine) flagged as regression: %+v", res)
	}
	// And a real regression still shows through the machine scaling.
	cur.Rounds[1].NsPerRound *= 2
	if res, err = Compare(baseReport(), cur, 0.25); err != nil || len(res.Regressions) != 1 {
		t.Fatalf("regression hidden by machine scaling: %+v (err %v)", res, err)
	}
}

func TestCompareMissingCoverageFails(t *testing.T) {
	cur := baseReport()
	cur.Rounds = cur.Rounds[:1]
	cur.Sweeps = nil
	res, err := Compare(baseReport(), cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || len(res.Missing) != 2 {
		t.Fatalf("shrunk coverage not flagged: %+v", res)
	}
}

func TestCompareExtraCoverageIsFree(t *testing.T) {
	cur := baseReport()
	cur.Rounds = append(cur.Rounds, RoundResult{
		Topology: "hypercube", Algorithm: "diffusion", Mode: "continuous",
		N: 1024, RoundWorkers: 1, NsPerRound: 123456,
	})
	res, err := Compare(baseReport(), cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || len(res.Deltas) != 3 {
		t.Fatalf("added coverage penalized: %+v", res)
	}
}

func TestCompareRejectsBadAnchors(t *testing.T) {
	cur := baseReport()
	cur.CalibrationNs = 0
	if _, err := Compare(baseReport(), cur, 0.25); err == nil {
		t.Fatal("zero calibration anchor accepted")
	}
	if _, err := Compare(baseReport(), baseReport(), 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
}

// TestRunSmoke drives the real harness on a tiny grid: checks the report
// shape, the built-in checksum identity across worker counts, and that the
// result round-trips through Compare cleanly against itself.
func TestRunSmoke(t *testing.T) {
	rep, err := Run(Config{
		Topologies:       []string{"torus"},
		Algorithms:       []string{"diffusion", "dimexchange"},
		Modes:            []string{"continuous", "discrete"},
		Sizes:            []int{64},
		RoundWorkersList: []int{1, 3},
		RoundsBudget:     1, // clamps to 64 rounds per sample
		Samples:          1,
		SkipSweeps:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CalibrationNs <= 0 {
		t.Fatalf("calibration anchor %v", rep.CalibrationNs)
	}
	if len(rep.Rounds) != 8 { // 2 algos × 2 modes × 2 worker counts
		t.Fatalf("got %d round measurements, want 8", len(rep.Rounds))
	}
	for _, r := range rep.Rounds {
		if r.NsPerRound <= 0 || r.RoundsTimed != 64 {
			t.Fatalf("bad measurement %+v", r)
		}
		if r.Checksum == "" || r.Checksum == "unavailable" || !strings.ContainsAny(r.Checksum, "0123456789abcdef") {
			t.Fatalf("bad checksum in %+v", r)
		}
	}
	res, err := Compare(rep, rep, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("report does not match itself: %+v", res)
	}
}

// TestCompareWarnsOnCoreCountMismatch: reports from machines of different
// shape still compare, but loudly — the calibration anchor divides out
// clock speed, not parallel hardware.
func TestCompareWarnsOnCoreCountMismatch(t *testing.T) {
	base := baseReport()
	base.NumCPU, base.GOMAXPROCS = 8, 8
	cur := baseReport()
	cur.NumCPU, cur.GOMAXPROCS = 1, 1
	res, err := Compare(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("shape mismatch failed the gate: %+v", res)
	}
	if len(res.Warnings) != 2 {
		t.Fatalf("got %d warnings, want NumCPU + GOMAXPROCS: %v", len(res.Warnings), res.Warnings)
	}
	var buf strings.Builder
	res.Render(&buf, 0.25)
	if !strings.Contains(buf.String(), "WARNING") || !strings.Contains(buf.String(), "8 CPUs") {
		t.Fatalf("warnings not rendered: %q", buf.String())
	}

	// Matching shapes — or legacy reports that never recorded them — stay
	// silent.
	if res, err = Compare(baseReport(), baseReport(), 0.25); err != nil || len(res.Warnings) != 0 {
		t.Fatalf("spurious warnings: %v (err %v)", res.Warnings, err)
	}
}

// TestCompareGatesSpectra: a missing λ₂ row fails like any shrunk coverage,
// a slow-but-present row beyond the noise floor is a regression, and a
// solver-path change warns even when the timing happens to pass.
func TestCompareGatesSpectra(t *testing.T) {
	withSpectra := func() *Report {
		r := baseReport()
		r.Spectra = []SpectralResult{
			{Topology: "hypercube", N: 1 << 20, Lambda2: 2, ElapsedNs: 2500, Path: "closed-form"},
			{Topology: "debruijn", N: 1 << 20, Lambda2: 0.17, ElapsedNs: 9e9, Path: "lanczos"},
		}
		return r
	}

	cur := withSpectra()
	cur.Spectra = cur.Spectra[:1]
	res, err := Compare(withSpectra(), cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || len(res.Missing) != 1 || res.Missing[0] != "lambda2:debruijn/n1048576" {
		t.Fatalf("missing λ₂ row not flagged: %+v", res)
	}

	cur = withSpectra()
	cur.Spectra[1].ElapsedNs *= 3
	if res, err = Compare(withSpectra(), cur, 0.25); err != nil || res.OK() || len(res.Regressions) != 1 || res.Regressions[0].Kind != "lambda2_ns" {
		t.Fatalf("3× slower Lanczos solve not flagged: %+v (err %v)", res, err)
	}

	// Sub-floor rows (the closed-form microsecond solves) never enter the
	// ratio gate: a 100× "slowdown" at that scale is timer noise.
	cur = withSpectra()
	cur.Spectra[0].ElapsedNs *= 100
	if res, err = Compare(withSpectra(), cur, 0.25); err != nil || !res.OK() {
		t.Fatalf("noise-floor λ₂ timing gated: %+v (err %v)", res, err)
	}

	// Falling off the fast path flips Path and warns.
	cur = withSpectra()
	cur.Spectra[0].Path = "dense"
	res, err = Compare(withSpectra(), cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "dense") {
		t.Fatalf("path change not warned: %v", res.Warnings)
	}
}

// TestRunLargeSizes drives the large-n surface at toy scale: each topology
// × large size contributes one serial diffusion row plus one λ₂ solve with
// a recorded path — closed-form for the torus, and never dense-free-floating
// "unknown".
func TestRunLargeSizes(t *testing.T) {
	rep, err := Run(Config{
		Topologies:       []string{"torus"},
		Algorithms:       []string{"diffusion"},
		Modes:            []string{"continuous"},
		Sizes:            []int{64},
		LargeSizes:       []int{256},
		RoundWorkersList: []int{1},
		RoundsBudget:     1,
		Samples:          1,
		SkipSweeps:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("got %d round rows, want regular + large: %+v", len(rep.Rounds), rep.Rounds)
	}
	large := rep.Rounds[1]
	if large.N != 256 || large.RoundWorkers != 1 || large.RoundsTimed != 8 || large.NsPerRound <= 0 {
		t.Fatalf("bad large row %+v", large)
	}
	if len(rep.Spectra) != 1 {
		t.Fatalf("got %d spectra, want 1: %+v", len(rep.Spectra), rep.Spectra)
	}
	spec := rep.Spectra[0]
	if spec.Key() != "lambda2:torus/n256" || spec.Lambda2 <= 0 || spec.ElapsedNs <= 0 {
		t.Fatalf("bad spectral row %+v", spec)
	}
	if spec.Path != "closed-form" {
		t.Fatalf("torus λ₂ took the %q path, want closed-form", spec.Path)
	}
	if res, err := Compare(rep, rep, 0.25); err != nil || !res.OK() {
		t.Fatalf("large-n report does not match itself: %+v (err %v)", res, err)
	}
}

// TestAlgorithm1ChecksumsMatchBaseline pins the Algorithm 1 kernel's bits
// across changes: it re-runs the serial diffusion rows of the committed
// BENCH_PR7.json (torus and hypercube, n ∈ {1024, 4096}, both modes) and
// requires each final-state checksum to equal the recorded one. Compare
// gates timings only, so without this a kernel rewrite could change the
// trajectory unnoticed. Only Algorithm 1 rows are pinned: its round has
// no multiply-add that a compiler could fuse differently on another
// architecture.
func TestAlgorithm1ChecksumsMatchBaseline(t *testing.T) {
	base, err := ReadFile(filepath.Join("..", "..", "BENCH_PR7.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, r := range base.Rounds {
		want[r.Key()] = r.Checksum
	}
	rep, err := Run(Config{
		Topologies:       []string{"torus", "hypercube"},
		Algorithms:       []string{"diffusion"},
		Sizes:            []int{1024, 4096},
		RoundWorkersList: []int{1},
		Samples:          1,
		SkipSweeps:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 8 { // 2 topologies × 2 sizes × 2 modes
		t.Fatalf("got %d round rows, want 8", len(rep.Rounds))
	}
	for _, r := range rep.Rounds {
		w, ok := want[r.Key()]
		if !ok {
			t.Errorf("%s: no row in BENCH_PR7.json", r.Key())
		} else if r.Checksum != w {
			t.Errorf("%s: state checksum %s, BENCH_PR7.json has %s", r.Key(), r.Checksum, w)
		}
	}
}
