package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs"
)

// benchmarkFile is the shape of BENCHMARK.json at the repo root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRegistryMatchesBenchmarkJSON keeps the harness's workload and metric
// registry and BENCHMARK.json in step.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, registry %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), registry %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		r := endToEnd[i]
		if m.Name != r.name || m.Unit != r.unit || m.Better != r.better || m.Bound != r.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, registry %+v", i, m, r)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		r := perLayer[i]
		if m.Name != r.name || m.Unit != r.unit || m.Better != r.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, registry %+v", i, m, r)
		}
	}
}

// TestWorkloadsSmoke runs every workload at tiny sizes, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, finite and in the declared unit.
func TestWorkloadsSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			name := def.name
			want := map[string]string{}
			if traced {
				name += "/traced"
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			t.Run(name, func(t *testing.T) {
				o := options{seed: 3, window: 200 * time.Millisecond, workers: 2, small: true, workDir: t.TempDir()}
				var tr *obs.Tracer
				var buf bytes.Buffer
				if traced {
					tr = obs.NewTracer(&buf)
				}
				res, err := runWorkload(def, o, tr, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.validate(); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printResult(&out, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", line.Correct, line.Attempted, line.Failed, res.failures)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s in %q, BENCHMARK.json declares %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				if len(lines) != len(want)+1 {
					t.Errorf("%d output lines, want one per metric plus the result line", len(lines))
				}
				if traced {
					path := filepath.Join(t.TempDir(), "trace.json")
					if err := writeTrace(path, &buf); err != nil {
						t.Fatal(err)
					}
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					var doc struct {
						TraceEvents []obs.Event `json:"traceEvents"`
					}
					if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
						t.Fatalf("trace does not parse as {\"traceEvents\":[...]}: %v (%d events)", err, len(doc.TraceEvents))
					}
				}
			})
		}
	}
}

// TestTimedSinkJournalBytes checks that a journal written through the
// timing wrapper is byte-identical to a bare JSONLSink journal, spec
// header included.
func TestTimedSinkJournalBytes(t *testing.T) {
	spec := batch.Spec{
		Topologies: []string{"torus", "hypercube"},
		Algorithms: []string{"diffusion", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike"},
		Scenarios:  []string{"static", "poisson-arrivals"},
		N:          16,
		Seeds:      []int64{1, 2},
		Workers:    2,
	}
	var bare, timed bytes.Buffer
	if _, err := core.GridRun(context.Background(), spec, core.GridSink(batch.NewJSONLSink(&bare))); err != nil {
		t.Fatal(err)
	}
	ts := &timedSink{sink: batch.NewJSONLSink(&timed)}
	if _, err := core.GridRun(context.Background(), spec, core.GridSink(ts)); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(bare.Bytes(), []byte(`{"spec":`)) {
		t.Fatalf("bare journal has no spec header: %.80s", bare.String())
	}
	if !bytes.Equal(bare.Bytes(), timed.Bytes()) {
		t.Fatalf("journals differ:\nbare:  %.200s\ntimed: %.200s", bare.String(), timed.String())
	}
	if ts.busy <= 0 {
		t.Errorf("timed sink recorded no write time")
	}
}
