package scenario

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestTraceRoundTripBytes: write → read → rewrite must reproduce the file
// byte-for-byte. This is the invariant cmd/lbbench's TestBinaries leans on
// when it compares a re-recorded trace with the committed one.
func TestTraceRoundTripBytes(t *testing.T) {
	events := []Event{
		{Round: 0, Node: 3, Amount: 5000},
		{Round: 0, Node: 11, Amount: 125.5},
		{Round: 2, Node: 0, Amount: 0.125},
		{Round: 7, Node: 15, Amount: 9e6},
	}
	var first bytes.Buffer
	tw := NewTraceWriter(&first)
	for _, e := range events {
		if err := tw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("read back %+v, want %+v", got, events)
	}

	var second bytes.Buffer
	tw2 := NewTraceWriter(&second)
	for _, e := range got {
		if err := tw2.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("rewrite is not byte-identical:\n first %q\nsecond %q", first.String(), second.String())
	}
}

// TestTraceFileRoundTrip: the file-owning paths (CreateTrace / ReadTraceFile)
// agree with the stream paths.
func TestTraceFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	events := []Event{
		{Round: 0, Node: 1, Amount: 10},
		{Round: 3, Node: 2, Amount: 20},
	}
	tw, err := CreateTrace(path)
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
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("ReadTraceFile = %+v, want %+v", got, events)
	}
}

// TestReadTraceRejects: malformed streams fail loudly with line numbers
// instead of replaying a silently different workload.
func TestReadTraceRejects(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"garbage", "not json\n"},
		{"negative round", `{"k":-1,"node":0,"amt":1}` + "\n"},
		{"negative node", `{"k":0,"node":-2,"amt":1}` + "\n"},
		{"zero amount", `{"k":0,"node":0,"amt":0}` + "\n"},
		{"negative amount", `{"k":0,"node":0,"amt":-5}` + "\n"},
		{"nan amount", `{"k":0,"node":0,"amt":"x"}` + "\n"},
		{"round order", `{"k":3,"node":0,"amt":1}` + "\n" + `{"k":1,"node":0,"amt":1}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTrace(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
		})
	}

	// Blank lines are fine.
	got, err := ReadTrace(strings.NewReader("\n" + `{"k":0,"node":0,"amt":1}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d events, want 1", len(got))
	}
}

// TestTraceWriterRejects: the writer enforces the reader's contract, so a
// recorded trace is always replayable.
func TestTraceWriterRejects(t *testing.T) {
	tw := NewTraceWriter(&bytes.Buffer{})
	for _, e := range []Event{
		{Round: -1, Node: 0, Amount: 1},
		{Round: 0, Node: -1, Amount: 1},
		{Round: 0, Node: 0, Amount: 0},
		{Round: 0, Node: 0, Amount: math.Inf(1)},
		{Round: 0, Node: 0, Amount: math.NaN()},
	} {
		if err := tw.Append(e); err == nil {
			t.Errorf("accepted invalid event %+v", e)
		}
	}
	if err := tw.Append(Event{Round: 5, Node: 0, Amount: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Append(Event{Round: 4, Node: 0, Amount: 1}); err == nil {
		t.Error("accepted decreasing round")
	}
	if err := tw.Append(Event{Round: 5, Node: 1, Amount: 1}); err != nil {
		t.Errorf("rejected same-round event: %v", err)
	}
}

// TestTraceInstanceReplay: a trace:<file> scenario instance injects exactly
// the recorded events at the recorded rounds, nothing else, and is stable
// across re-instantiation (no hidden RNG).
func TestTraceInstanceReplay(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, []byte(
		`{"k":0,"node":1,"amt":100}`+"\n"+
			`{"k":0,"node":3,"amt":50}`+"\n"+
			`{"k":2,"node":0,"amt":7}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := Parse("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if sp.String() != "trace:"+path {
		t.Fatalf("String() = %q", sp.String())
	}
	g := graph.Cycle(4)
	inst, err := sp.New(g, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ArrivalFree() {
		t.Fatal("trace instance claims to be arrival-free")
	}
	loads := make([]float64, 4)
	wantRounds := map[int][]Arrival{
		0: {{Node: 1, Amount: 100}, {Node: 3, Amount: 50}},
		2: {{Node: 0, Amount: 7}},
	}
	for k := 0; k < 5; k++ {
		if inst.Graph(k) != g {
			t.Fatalf("round %d: trace scenario mutated the graph", k)
		}
		got := inst.Arrivals(k, loads)
		if !reflect.DeepEqual(got, wantRounds[k]) {
			t.Fatalf("round %d arrivals = %+v, want %+v", k, got, wantRounds[k])
		}
	}

	// Out-of-range node: loud error at instantiation, not a silent panic
	// mid-run.
	small := graph.Cycle(3)
	if _, err := sp.New(small, 1000, nil); err == nil {
		t.Fatal("accepted a trace targeting nodes the graph does not have")
	}
}
