package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func testConfig(t testing.TB) core.Config {
	t.Helper()
	g := graph.Torus(4, 4)
	return core.Config{
		Graph:     g,
		Algorithm: core.Diffusion,
		Mode:      core.Continuous,
		Loads:     make([]float64, g.N()),
		Epsilon:   1e-3,
		Seed:      7,
	}
}

func testTrace(t *testing.T) []scenario.Event {
	t.Helper()
	return []scenario.Event{
		{Round: 0, Node: 3, Amount: 5000},
		{Round: 0, Node: 11, Amount: 125.5},
		{Round: 4, Node: 0, Amount: 9000},
		{Round: 9, Node: 15, Amount: 640},
	}
}

// TestReplayMatchesSessionDrive: the served replay path must reproduce the
// scenario engine's injection point exactly — the Φ trajectory and final
// load vector of a replayed trace are bit-identical to driving a
// core.Session by hand with the same events, and to core.Balance running
// the same file as a trace:<file> scenario. It also closes the
// record→replay loop: what the server records while replaying is
// byte-identical to the trace it was fed.
func TestReplayMatchesSessionDrive(t *testing.T) {
	const rounds = 24
	events := testTrace(t)
	cfg := testConfig(t)

	var recorded bytes.Buffer
	rec := scenario.NewTraceWriter(&recorded)
	srv, err := New(Options{Config: cfg, Replay: events, Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	var gotPhi []float64
	for i := 0; i < rounds; i++ {
		phi, err := srv.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		gotPhi = append(gotPhi, phi)
	}

	// Reference: the same events through the raw Session API.
	ref, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantPhi []float64
	for k := 0; k < rounds; k++ {
		var arr []scenario.Arrival
		for _, e := range events {
			if e.Round == k {
				arr = append(arr, scenario.Arrival{Node: e.Node, Amount: e.Amount})
			}
		}
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Inject(arr); err != nil {
			t.Fatal(err)
		}
		phi, err := ref.Commit()
		if err != nil {
			t.Fatal(err)
		}
		wantPhi = append(wantPhi, phi)
	}
	for i := range wantPhi {
		if gotPhi[i] != wantPhi[i] {
			t.Fatalf("round %d: served Φ %v != session Φ %v", i+1, gotPhi[i], wantPhi[i])
		}
	}
	m := srv.Metrics()
	wantLoads := ref.Loads()
	if len(m.Nodes) != len(wantLoads) {
		t.Fatalf("metrics nodes len %d, want %d", len(m.Nodes), len(wantLoads))
	}
	for i := range wantLoads {
		if m.Nodes[i] != wantLoads[i] {
			t.Fatalf("node %d: served load %v != session load %v", i, m.Nodes[i], wantLoads[i])
		}
	}

	// The same file as a grid scenario: Balance(trace:<file>) must agree on
	// the lifetime peak and final potential.
	path := t.TempDir() + "/trace.jsonl"
	tw, err := scenario.CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.Parse("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.Scenario = sp
	bcfg.MaxRounds = rounds
	res, err := core.Balance(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakPhi != m.PeakPhi {
		t.Fatalf("Balance(trace) peak Φ %v != served peak Φ %v", res.PeakPhi, m.PeakPhi)
	}
	if res.PhiEnd != m.Phi {
		t.Fatalf("Balance(trace) final Φ %v != served Φ %v", res.PhiEnd, m.Phi)
	}

	// Record→replay round trip: the recording of the replay is the trace.
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded.Bytes(), committed) {
		t.Fatalf("re-recorded trace differs from source:\n got %q\nwant %q", recorded.String(), committed)
	}
}

// TestHandlerIngest: the HTTP surface — single and batched arrivals are
// queued and injected next round, malformed requests are rejected, metrics
// and health are served.
func TestHandlerIngest(t *testing.T) {
	srv, err := New(Options{Config: testConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/arrive", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(`{"node":3,"amt":100}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single arrival: status %d", resp.StatusCode)
	}
	if resp := post(`[{"node":0,"amt":1},{"node":15,"amt":2.5}]`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch arrival: status %d", resp.StatusCode)
	}
	for _, bad := range []string{
		`{"node":99,"amt":1}`,                      // node out of range
		`{"node":0,"amt":0}`,                       // non-positive amount
		`{"node":0,"amt":-3}`,                      // negative amount
		`{"node":-1,"amt":1}`,                      // negative node
		`not json`,                                 // garbage
		`[{"node":0,"amt":1},{"node":99,"amt":1}]`, // batch with one bad item
	} {
		if resp := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/arrive"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /arrive: status %d, want 405", resp.StatusCode)
		}
	}

	observed := mBacklog.Count()
	if _, err := srv.StepRound(); err != nil {
		t.Fatal(err)
	}
	if got := mBacklog.Count() - observed; got != 16 {
		t.Fatalf("a round observed %d backlog depths, want one per node (16)", got)
	}
	var m Metrics
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.ArrivalsTotal != 3 {
		t.Fatalf("arrivals_total = %d, want 3", m.ArrivalsTotal)
	}
	if m.LoadInjected != 103.5 {
		t.Fatalf("load_injected = %v, want 103.5", m.LoadInjected)
	}
	if m.Round != 1 || m.Pending != 0 {
		t.Fatalf("round %d pending %d, want 1 and 0", m.Round, m.Pending)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK    bool `json:"ok"`
		Round int  `json:"round"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.OK || health.Round != 1 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestArriveQueueBound: once the arrival queue is full, a request that
// would overflow it is refused whole with a 429 and a JSON error, counted
// in lbserved_arrivals_rejected_total, and leaves the queue untouched; a
// round drains the queue and /arrive accepts again.
func TestArriveQueueBound(t *testing.T) {
	old := maxPending
	maxPending = 4
	t.Cleanup(func() { maxPending = old })
	srv, err := New(Options{Config: testConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/arrive", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc
	}
	three := `[{"node":0,"amt":1},{"node":1,"amt":1},{"node":2,"amt":1}]`
	if code, doc := post(three); code != http.StatusAccepted || doc["queued"] != 3.0 {
		t.Fatalf("first batch: status %d %v, want 202 queued 3", code, doc)
	}
	rejected := mArrivalsRejected.Value()
	code, doc := post(`[{"node":3,"amt":1},{"node":4,"amt":1}]`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflowing batch: status %d, want 429", code)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "arrival queue full") {
		t.Fatalf("429 body %v lacks the queue-full error", doc)
	}
	if got := mArrivalsRejected.Value() - rejected; got != 2 {
		t.Fatalf("lbserved_arrivals_rejected_total grew by %d, want 2", got)
	}
	if p := srv.Metrics().Pending; p != 3 {
		t.Fatalf("pending %d after a refused request, want 3", p)
	}
	// Filling the queue exactly is still accepted; one more is not.
	if code, _ := post(`{"node":5,"amt":1}`); code != http.StatusAccepted {
		t.Fatalf("arrival filling the queue: status %d, want 202", code)
	}
	if code, _ := post(`{"node":6,"amt":1}`); code != http.StatusTooManyRequests {
		t.Fatalf("arrival past a full queue: status %d, want 429", code)
	}

	if _, err := srv.StepRound(); err != nil {
		t.Fatal(err)
	}
	if code, doc := post(three); code != http.StatusAccepted || doc["queued"] != 3.0 {
		t.Fatalf("after a round drained the queue: status %d %v, want 202 queued 3", code, doc)
	}
	if m := srv.Metrics(); m.ArrivalsTotal != 4 || m.Pending != 3 {
		t.Fatalf("arrivals_total %d pending %d, want 4 and 3", m.ArrivalsTotal, m.Pending)
	}
}

// TestRunDrains: Run serves HTTP, accepts an arrival, and returns nil — a
// clean graceful drain — once its context is cancelled.
func TestRunDrains(t *testing.T) {
	srv, err := New(Options{
		Config:         testConfig(t),
		Addr:           "127.0.0.1:0",
		DrainTimeout:   10 * time.Second,
		DrainMaxRounds: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for serverURL(srv) == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(serverURL(srv)+"/arrive", "application/json", strings.NewReader(`{"node":5,"amt":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("arrival during run: status %d", resp.StatusCode)
	}
	// Let the free-running loop inject and balance a little.
	for {
		if m := srv.Metrics(); m.ArrivalsTotal >= 1 && m.Round >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("round loop never injected the arrival")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil (clean drain)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	m := srv.Metrics()
	if !m.Draining {
		t.Error("metrics does not report drained state")
	}
	if m.Phi > m.Target && m.Phi > m.PeakPhi*srv.opts.Config.Epsilon {
		t.Errorf("drain left Φ %v above target %v and ε·peak %v", m.Phi, m.Target, m.PeakPhi*srv.opts.Config.Epsilon)
	}
}

// TestReplayValidation: a replay trace targeting nodes outside the graph is
// rejected at construction.
func TestReplayValidation(t *testing.T) {
	cfg := testConfig(t)
	_, err := New(Options{Config: cfg, Replay: []scenario.Event{{Round: 0, Node: 16, Amount: 1}}})
	if err == nil {
		t.Fatal("accepted a replay event beyond the graph")
	}
}

// serverURL returns s's base URL once Run is listening ("" before).
func serverURL(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.addr == nil {
		return ""
	}
	return "http://" + s.addr.String()
}

// TestPrometheusExposition: after a few rounds every registry series sits
// under its own # HELP and # TYPE header (a histogram's as _bucket, _sum,
// _count), and the round counter and backlog histogram (+Inf) are there.
func TestPrometheusExposition(t *testing.T) {
	srv, err := New(Options{Config: testConfig(t), Replay: testTrace(t)})
	for i := 0; err == nil && i < 5; i++ {
		_, err = srv.StepRound()
	}
	var buf strings.Builder
	if err == nil {
		err = obs.Default().WritePrometheus(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	var help, family, kind string
	for _, line := range strings.Split(strings.TrimSuffix(prom, "\n"), "\n") {
		f := strings.Fields(line)
		name, _, _ := strings.Cut(f[0], "{")
		if kind == "histogram" {
			name = regexp.MustCompile(`_(bucket|sum|count)$`).ReplaceAllString(name, "")
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help = f[2]
		case strings.HasPrefix(line, "# TYPE "):
			family, kind = f[2], f[3]
			if help != family {
				t.Errorf("# TYPE %s without its # HELP", family)
			}
		case name != family:
			t.Errorf("series %q outside its header (under %q)", line, family)
		}
	}
	for _, want := range []string{"\n# TYPE lbserved_rounds_total counter\n", "\n# TYPE lbserved_backlog_depth histogram\n",
		"\nlbserved_backlog_depth_bucket{le=\"+Inf\"} "} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestArriveRoundIsInjectionRound: while the round loop free-runs, every
// 202's "round" names the round that injects the arrival — the round the
// recording files it under. Each arrival carries a distinct amount, so
// the recording identifies it. The graph is large enough (2¹² nodes) that
// most requests land while a round is in progress.
func TestArriveRoundIsInjectionRound(t *testing.T) {
	const posters, requests = 4, 60
	var recorded bytes.Buffer
	rec := scenario.NewTraceWriter(&recorded)
	cfg := testConfig(t)
	cfg.Graph = graph.Hypercube(12)
	cfg.Loads = make([]float64, cfg.Graph.N())
	srv, err := New(Options{Config: cfg, Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var stop atomic.Bool
	looped := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := srv.StepRound(); err != nil {
				looped <- err
				return
			}
		}
		looped <- nil
	}()

	reported := make([]map[float64]int, posters) // amount → the 202's round
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		reported[p] = make(map[float64]int)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				a := float64(2*(p*requests+r) + 1) // this request's amounts: a and a+1
				body := fmt.Sprintf(`[{"node":%d,"amt":%v},{"node":%d,"amt":%v}]`, r%16, a, (r+p)%16, a+1)
				resp, err := http.Post(ts.URL+"/arrive", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var doc struct {
					Round int `json:"round"`
				}
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("POST %s: status %d, %v", body, resp.StatusCode, err)
					return
				}
				reported[p][a], reported[p][a+1] = doc.Round, doc.Round
			}
		}(p)
	}
	wg.Wait()
	stop.Store(true)
	if err := <-looped; err != nil {
		t.Fatal(err)
	}
	if _, err := srv.StepRound(); err != nil { // land what the loop left queued
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := scenario.ReadTrace(&recorded)
	if err != nil {
		t.Fatal(err)
	}
	landed := make(map[float64]int, len(events))
	for _, e := range events {
		landed[e.Amount] = e.Round
	}
	want := 2 * posters * requests
	if len(events) != want || len(landed) != want {
		t.Fatalf("recording holds %d events (%d distinct amounts), want %d", len(events), len(landed), want)
	}
	rounds := make(map[int]bool)
	for _, byAmount := range reported {
		for a, round := range byAmount {
			if landed[a] != round {
				t.Fatalf("arrival %v: 202 reported round %d, recorded at round %d", a, round, landed[a])
			}
			rounds[round] = true
		}
	}
	t.Logf("%d arrivals landed across %d rounds", want, len(rounds))
}

// TestBacklogMatchesSortedPick: the selected P50/P90/P99/Max are the
// values the sorted snapshot holds at those ranks, on random vectors with
// many ties, and the mean is the node-order mean.
func TestBacklogMatchesSortedPick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3000)
		distinct := 1 + rng.Intn(2*n)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = float64(rng.Intn(distinct)) * 0.5
		}
		var sum float64
		for _, v := range loads {
			sum += v
		}
		sorted := slices.Clone(loads)
		slices.Sort(sorted)
		pick := func(q float64) float64 { return sorted[max(int(math.Ceil(q*float64(n)))-1, 0)] }
		want := Backlog{Mean: sum / float64(n), P50: pick(0.50), P90: pick(0.90), P99: pick(0.99), Max: sorted[n-1]}
		if got := backlog(loads); got != want {
			t.Fatalf("n=%d, %d distinct: backlog %+v, want %+v", n, distinct, got, want)
		}
		slices.Sort(loads)
		if !slices.Equal(loads, sorted) {
			t.Fatalf("n=%d: selection changed the multiset of loads", n)
		}
	}
}

// BenchmarkStepRound times one served round of Algorithm 1 on a
// hypercube: Step, Inject (nothing queued), Commit and the metrics fold.
// The continuous 2¹⁴-node row folds every node's depth into the backlog
// histogram; the discrete 2¹⁵-node row is above backlogObserveMaxN, so
// its fold reads no loads.
func BenchmarkStepRound(b *testing.B) {
	for _, bc := range []struct {
		mode core.Mode
		dim  int
	}{{core.Continuous, 14}, {core.Discrete, 15}} {
		b.Run(fmt.Sprintf("%v/n=%d", bc.mode, 1<<bc.dim), func(b *testing.B) {
			g := graph.Hypercube(bc.dim)
			rng := rand.New(rand.NewSource(1))
			loads := make([]float64, g.N())
			for i := range loads {
				loads[i] = 1000 * rng.Float64()
			}
			srv, err := New(Options{Config: core.Config{
				Graph:     g,
				Algorithm: core.Diffusion,
				Mode:      bc.mode,
				Loads:     loads,
				Epsilon:   1e-6,
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := srv.StepRound(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetrics times one /metrics document of a served session at 10³,
// 10⁴ and 10⁵ rounds. A daemon session's SteadyRMS averages a quarter of
// its rounds up to core.SteadyWindow of them, so a scrape's cost grows
// until 4·SteadyWindow rounds and is the same from then on, however long
// the session runs.
func BenchmarkMetrics(b *testing.B) {
	for _, rounds := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			srv, err := New(Options{Config: testConfig(b)})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for range rounds {
				if _, err := srv.StepRound(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				srv.Metrics()
			}
		})
	}
}

// TestStepRoundZeroAllocs is the daemon's row beside core's
// TestSessionHotLoopZeroAllocs: a served round with nothing queued (Step,
// Inject, Commit and the metrics fold Commit runs) allocates nothing, in
// either mode.
func TestStepRoundZeroAllocs(t *testing.T) {
	for _, mode := range []core.Mode{core.Continuous, core.Discrete} {
		cfg := testConfig(t)
		cfg.Mode, cfg.Loads, cfg.Epsilon = mode, core.SpikeLoads(cfg.Graph.N(), 1e6), 1e-9
		srv, err := New(Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, err := srv.StepRound(); err != nil {
				panic(err)
			}
		})
		if avg != 0 {
			t.Errorf("%v: a served round with nothing queued allocates %v times, want 0", mode, avg)
		}
	}
}

// TestRegistryTracksServer: a replay drive moves the daemon's scraped
// series by exactly this server's work: lbserved_rounds_total by its
// rounds, lbserved_arrivals_total by its arrivals, lbserved_load_injected
// by the load they carried, and the lbserved_backlog_depth _count by
// rounds × n; lbserved_phi reads its last Φ.
func TestRegistryTracksServer(t *testing.T) {
	const rounds = 12 // past the last replay event, at round 9
	cfg, events := testConfig(t), testTrace(t)
	srv, err := New(Options{Config: cfg, Replay: events})
	if err != nil {
		t.Fatal(err)
	}
	before := scrape(t)
	var phi float64
	for i := 0; i < rounds; i++ {
		if phi, err = srv.StepRound(); err != nil {
			t.Fatal(err)
		}
	}
	after := scrape(t)
	var load float64
	for _, e := range events {
		load += e.Amount
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	for name, want := range map[string]float64{
		"lbserved_rounds_total":        rounds,
		"lbserved_arrivals_total":      float64(len(events)),
		"lbserved_backlog_depth_count": float64(rounds * cfg.Graph.N()),
	} {
		if got := delta(name); got != want {
			t.Errorf("%s grew by %v, want %v", name, got, want)
		}
	}
	if got := delta("lbserved_load_injected"); math.Abs(got-load) > 1e-9*load {
		t.Errorf("lbserved_load_injected grew by %v, want %v", got, load)
	}
	if got := after["lbserved_phi"]; got != phi {
		t.Errorf("lbserved_phi = %v, want the last round's Φ %v", got, phi)
	}
}

// scrape reads the process registry's exposition into series → value.
func scrape(t *testing.T) map[string]float64 {
	t.Helper()
	var buf strings.Builder
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// TestMetricsDocumentTracksSession pins the GET /metrics document to the
// session behind it across an injection: rebalance_rounds reads −1 from the
// round an arrival lands until Φ is back under the target, then the rounds
// that took, and phi, phi_start, peak_phi, target, converged and steady_rms
// are the session's own values every round.
func TestMetricsDocumentTracksSession(t *testing.T) {
	cfg := testConfig(t)
	cfg.Loads = core.SpikeLoads(cfg.Graph.N(), 1000)
	cfg.Epsilon = 0.05
	srv, err := New(Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	n := float64(cfg.Graph.N())
	trace := []float64{srv.sess.Phi()}
	target := srv.sess.Target()
	injectedAt, backAt := 0, -1
	var sawAbove, sawBack bool
	for round := 1; round <= 64 && !sawBack; round++ {
		// Inject once, a few rounds after the start has balanced.
		if backAt >= 0 && injectedAt == 0 && round > backAt+2 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/arrive", strings.NewReader(`{"node":5,"amt":800}`)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("round %d: POST /arrive status %d", round, rec.Code)
			}
			injectedAt, backAt = round, -1
		}
		phi, err := srv.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, phi)
		if backAt < 0 && phi <= target && round != injectedAt {
			backAt = round
			sawBack = injectedAt > 0
		}
		wantRebalance := -1
		if backAt >= 0 {
			wantRebalance = backAt - injectedAt
		} else if injectedAt > 0 {
			sawAbove = true
		}
		q := max(len(trace)/4, 1)
		var rms float64
		for _, p := range trace[len(trace)-q:] {
			rms += math.Sqrt(p / n)
		}
		want := map[string]any{
			"round":            float64(round),
			"phi":              srv.sess.Phi(),
			"phi_start":        trace[0],
			"peak_phi":         slices.Max(trace),
			"target":           target,
			"converged":        phi <= target,
			"rebalance_rounds": float64(wantRebalance),
			"steady_rms":       rms / float64(q),
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("round %d: /metrics: %v", round, err)
		}
		for k, v := range want {
			if doc[k] != v {
				t.Fatalf("round %d: /metrics %s = %v, want %v", round, k, doc[k], v)
			}
		}
	}
	if injectedAt == 0 || !sawAbove || !sawBack {
		t.Fatalf("drive never covered inject → above target → back under (injected at %d, back at %d)", injectedAt, backAt)
	}
}
