package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// FuzzArriveBody drives POST /arrive with arbitrary bodies. The handler
// must never panic and must answer 202 or 4xx. On a 202 the queue grows by
// exactly the reported "queued" count, and every arrival it queued has an
// in-range node and a positive finite amount; on any other answer the
// queue is untouched. The queue bound is lowered so the 429 path is
// reachable with small inputs, and a round drains the queue whenever it
// is half full.
//
// Seeds live in testdata/fuzz/FuzzArriveBody. Run it with
//
//	go test -run '^$' -fuzz '^FuzzArriveBody$' -fuzztime 5m -parallel 2 ./internal/serve
func FuzzArriveBody(f *testing.F) {
	old := maxPending
	maxPending = 64
	f.Cleanup(func() { maxPending = old })
	cfg := testConfig(f)
	srv, err := New(Options{Config: cfg})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	n := cfg.Graph.N()

	f.Fuzz(func(t *testing.T, body []byte) {
		if srv.Metrics().Pending >= maxPending/2 {
			if _, err := srv.StepRound(); err != nil {
				t.Fatal(err)
			}
		}
		srv.in.mu.Lock()
		before := slices.Clone(srv.in.pending)
		srv.in.mu.Unlock()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/arrive", bytes.NewReader(body)))

		srv.in.mu.Lock()
		after := slices.Clone(srv.in.pending)
		srv.in.mu.Unlock()
		if rec.Code != http.StatusAccepted {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("status %d for %q, want 202 or 4xx", rec.Code, body)
			}
			if !slices.Equal(before, after) {
				t.Fatalf("status %d for %q changed the queue: %d -> %d arrivals", rec.Code, body, len(before), len(after))
			}
			return
		}
		var resp struct {
			Queued int `json:"queued"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("202 body %q: %v", rec.Body.Bytes(), err)
		}
		if len(after) != len(before)+resp.Queued {
			t.Fatalf("202 for %q reported queued=%d, queue grew %d -> %d", body, resp.Queued, len(before), len(after))
		}
		if !slices.Equal(before, after[:len(before)]) {
			t.Fatalf("202 for %q rewrote already-queued arrivals", body)
		}
		for _, a := range after[len(before):] {
			if a.Node < 0 || a.Node >= n || !(a.Amount > 0) || math.IsInf(a.Amount, 0) {
				t.Fatalf("202 for %q queued invalid arrival %+v", body, a)
			}
		}
	})
}
