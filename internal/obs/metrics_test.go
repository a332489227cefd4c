package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "Requests.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instance.
	if again := r.Counter("reqs_total", "Requests."); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "Depth.")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestCounterLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("steals_total", "Steals.", L("backend", "a"))
	b := r.Counter("steals_total", "Steals.", L("backend", "b"))
	if a == b {
		t.Fatal("distinct label sets shared a counter")
	}
	a.Inc()
	a.Inc()
	b.Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE steals_total counter",
		`steals_total{backend="a"} 2`,
		`steals_total{backend="b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 5.605 {
		t.Fatalf("sum = %v, want 5.605", got)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 5.605",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCollectFuncs(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.CounterFunc("solves_total", "Solves.", func() float64 { return n }, L("path", "dense"))
	r.GaugeFunc("temp", "Temp.", func() float64 { return 36.6 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `solves_total{path="dense"} 7`) {
		t.Errorf("missing counter func value:\n%s", out)
	}
	if !strings.Contains(out, "temp 36.6") {
		t.Errorf("missing gauge func value:\n%s", out)
	}
}

func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "N.")
	h := r.Histogram("v", "V.", ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if b[i] < want[i]*0.999 || b[i] > want[i]*1.001 {
			t.Fatalf("bucket[%d] = %v, want ~%v", i, b[i], want[i])
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "M.", L("k", `a"b\c`)).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `m_total{k="a\"b\\c"} 1`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "B.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_hist", "B.", ExpBuckets(0.001, 2, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) / 100)
	}
}
