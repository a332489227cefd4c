//go:build !race

package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestServedSessionHeapFlat is the daemon's bounded-memory check: a served
// session driven for 10⁶ rounds, with an HTTP arrival every 1000 rounds,
// holds the same live heap at 10⁶ rounds as at 10⁵. A session that kept
// one Φ per round would hold 7 MB more. (Built !race: the race detector's
// shadow memory would swamp the reading.)
func TestServedSessionHeapFlat(t *testing.T) {
	const (
		early, late = 100_000, 1_000_000
		slackBytes  = 16 << 10
	)
	srv, err := New(Options{Config: testConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	liveHeap := func() uint64 {
		// Two collections: the first moves pooled objects to the victim
		// cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var atEarly uint64
	for round := 1; round <= late; round++ {
		if round%1000 == 0 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/arrive", strings.NewReader(`{"node":5,"amt":800}`)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("round %d: POST /arrive status %d", round, rec.Code)
			}
		}
		if _, err := srv.StepRound(); err != nil {
			t.Fatal(err)
		}
		if round == early {
			atEarly = liveHeap()
		}
	}
	atLate := liveHeap()
	if m := srv.Metrics(); m.Round != late || m.ArrivalsTotal != late/1000 {
		t.Fatalf("after %d rounds: /metrics reads round %d, %d arrivals", late, m.Round, m.ArrivalsTotal)
	}
	if atLate > atEarly+slackBytes || atEarly > atLate+slackBytes {
		t.Fatalf("live heap moved from %d B at round %d to %d B at round %d (more than %d B)", atEarly, early, atLate, late, slackBytes)
	}
	t.Logf("live heap %d B at round %d, %d B at round %d", atEarly, early, atLate, late)
}
