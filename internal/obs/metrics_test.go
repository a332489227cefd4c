package obs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
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

// TestHistogramRegistrationBounds: a repeated, +Inf or NaN bound at
// registration exposes neither a duplicate nor a NaN le series — exactly
// one bucket line per distinct finite bound, plus the one +Inf bucket.
func TestHistogramRegistrationBounds(t *testing.T) {
	r := NewRegistry()
	r.Histogram("x", "X.", []float64{1, 1, math.Inf(1), math.NaN()}).Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "x_bucket"); got != 2 {
		t.Errorf("%d bucket lines, want 2:\n%s", got, out)
	}
	for _, want := range []string{`x_bucket{le="1"} 0` + "\n", `x_bucket{le="+Inf"} 1` + "\n"} {
		if got := strings.Count(out, want); got != 1 {
			t.Errorf("%q appears %d times, want once:\n%s", want, got, out)
		}
	}
}

// checkHistogram asserts that the bucket lookup over bounds agrees with
// sort.SearchFloat64s on every value of vs, and that ObserveAll leaves the
// bucket counts, Count and Sum bit-identical to looping Observe, both from
// an empty histogram and from one already holding a sum. A NaN or
// infinite sample pins every later sum to NaN or ±Inf, so the samples of
// moderate size get a comparison of their own.
func checkHistogram(t *testing.T, bounds, vs []float64) {
	t.Helper()
	h := newHistogram(bounds)
	var moderate []float64
	for _, v := range vs {
		if got, want := h.bucket(v), sort.SearchFloat64s(bounds, v); got != want {
			t.Fatalf("bounds %v: bucket(%v) = %d, want %d", bounds, v, got, want)
		}
		if math.Abs(v) < 1e300 {
			moderate = append(moderate, v)
		}
	}
	for _, sample := range [][]float64{vs, moderate} {
		one, all := newHistogram(bounds), newHistogram(bounds)
		for pass := 0; pass < 2; pass++ {
			for _, v := range sample {
				one.Observe(v)
			}
			all.ObserveAll(sample)
			for i := range bounds {
				if a, b := one.counts[i].Load(), all.counts[i].Load(); a != b {
					t.Fatalf("bounds %v, pass %d: bucket %d holds %d after ObserveAll, %d after Observe", bounds, pass, i, b, a)
				}
			}
			if a, b := one.inf.Load(), all.inf.Load(); a != b {
				t.Fatalf("bounds %v, pass %d: +Inf bucket holds %d after ObserveAll, %d after Observe", bounds, pass, b, a)
			}
			if one.Count() != all.Count() {
				t.Fatalf("pass %d: Count %d after ObserveAll, %d after Observe", pass, all.Count(), one.Count())
			}
			if a, b := math.Float64bits(one.Sum()), math.Float64bits(all.Sum()); a != b {
				t.Fatalf("pass %d: Sum %v (%#x) after ObserveAll, %v (%#x) after Observe", pass, all.Sum(), b, one.Sum(), a)
			}
		}
	}
}

// TestHistogramBucket: the exponent-table bucket lookup is
// sort.SearchFloat64s on negative, subnormal, duplicated, infinite and NaN
// bounds, at every bound, its neighbours, ±0, subnormals, ±Inf and NaN;
// ObserveAll matches looping Observe bit for bit and does not allocate.
func TestHistogramBucket(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	boundSets := [][]float64{
		ExpBuckets(1, 2, 18),
		ExpBuckets(1e-4, 4, 14),
		ExpBuckets(1e-6, 4, 14),
		ExpBuckets(0.001, 10, 64),
		ExpBuckets(1, 1.01, 300),
		{-1e300, -1, -sub, 0, sub, 1e-310, 2.2250738585072014e-308, 1, 1e300},
		{-3, -2, -1},
		{math.Copysign(0, -1), 0, 0, 1, 1, 1, 2},
		{sub, 2 * sub, 3 * sub},
		{0.5, 0.75, 1, math.Inf(1)},
		{math.MaxFloat64},
		{math.NaN(), 1, 2},
		{0},
		nil,
	}
	rng := rand.New(rand.NewSource(1))
	for _, bounds := range boundSets {
		bounds = append([]float64(nil), bounds...)
		sort.Float64s(bounds)
		vs := []float64{0, math.Copysign(0, -1), sub, -sub, 3 * sub, 1e-310, 2.2250738585072014e-308,
			math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, 1, 1.5, 1e6}
		for _, b := range bounds {
			vs = append(vs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), -b)
		}
		for i := 0; i < 200; i++ {
			vs = append(vs, math.Ldexp(rng.Float64(), rng.Intn(80)-40), -rng.ExpFloat64())
		}
		checkHistogram(t, bounds, vs)
	}

	h := newHistogram(ExpBuckets(1, 2, 64))
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = 1000 * rng.Float64()
	}
	if a := testing.AllocsPerRun(10, func() { h.ObserveAll(vs) }); a != 0 {
		t.Fatalf("ObserveAll with 64 bounds: %v allocations per call, want 0", a)
	}
}

// floatsOf decodes b as little-endian float64 bit patterns (at most max).
func floatsOf(b []byte, max int) []float64 {
	var out []float64
	for len(b) >= 8 && len(out) < max {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		b = b[8:]
	}
	return out
}

// FuzzHistogramBucket: checkHistogram on arbitrary sorted bounds and
// values, each given as raw float64 bit patterns.
func FuzzHistogramBucket(f *testing.F) {
	enc := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(ExpBuckets(1, 2, 18)...), enc(0, 1, 1.5, 1000, 1e9, math.NaN()))
	f.Add(enc(-1, 0, math.SmallestNonzeroFloat64, 1e-310, 1), enc(math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0.5, math.Inf(1)))
	f.Add(enc(0, 0, math.Inf(1)), enc(math.Inf(-1), 0, 1e308))
	f.Fuzz(func(t *testing.T, rawBounds, rawValues []byte) {
		bounds := floatsOf(rawBounds, 128)
		sort.Float64s(bounds)
		checkHistogram(t, bounds, floatsOf(rawValues, 256))
	})
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

// BenchmarkHistogramObserveAll folds one round of lbserved's backlog
// histogram: 2¹⁴ depths around 1000 into its 18 exponential buckets.
func BenchmarkHistogramObserveAll(b *testing.B) {
	h := newHistogram(ExpBuckets(1, 2, 18))
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 1<<14)
	for i := range vs {
		vs[i] = 1000 * rng.Float64()
	}
	b.ReportAllocs()
	for b.Loop() {
		h.ObserveAll(vs)
	}
}
