package main

import (
	"strings"
	"testing"

	"repro/internal/batch"
)

// FuzzExplainKey feeds arbitrary -explain keys to explainUnit on a 16-node
// base spec. It must never panic, and a key it accepts must name exactly
// one unit whose Key() is the input itself. Keys whose scenario part
// mentions trace: are skipped, so the fuzzer opens no files. The seeds are
// the keys of TestExplainMatchesSweep's grid plus malformed ones.
//
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzExplainKey$' -fuzztime 10m -parallel 2 ./cmd/lbbench
func FuzzExplainKey(f *testing.F) {
	units, err := batch.Expand(explainGrid())
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range units {
		f.Add(u.Key())
	}
	for _, key := range []string{
		"", "s", "s01", "torus/diffusion/continuous/spike", "torus/diffusion/continuous/spike/s",
		"//////", "torus//continuous/spike/s1", "torus/diffusion/continuous/spike/s1/",
		"torus/diffusion/continuous/spike/s1/static/x", "Torus/diffusion/continuous/spike/s1",
		"torus/diffusion/continuous/spike/s+1", "torus/diffusion/continuous/spike/s1/edge-churn:0.1",
	} {
		f.Add(key)
	}
	base := batch.Spec{N: 16}
	f.Fuzz(func(t *testing.T, key string) {
		if parts := strings.SplitN(key, "/", 6); len(parts) == 6 && strings.Contains(parts[5], "trace:") {
			t.Skip()
		}
		spec, u, g, err := explainUnit(base, key)
		if err != nil {
			return
		}
		if u.Key() != key {
			t.Fatalf("explainUnit(%q) accepted unit %q", key, u.Key())
		}
		all, err := batch.Expand(spec)
		if err != nil {
			t.Fatalf("explainUnit(%q) returned a spec Expand rejects: %v", key, err)
		}
		if len(all) != 1 || all[0].Key() != key {
			t.Fatalf("explainUnit(%q) returned a spec of %d units", key, len(all))
		}
		if g == nil {
			t.Fatalf("explainUnit(%q) returned no graph", key)
		}
	})
}
