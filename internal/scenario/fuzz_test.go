package scenario

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzParseStringRoundTrip fuzzes the scenario spec grammar, the string a
// sweep takes from the command line and writes into every journal row:
// whenever Parse accepts a string, each parameter is finite and the
// canonical form re-parses to the same Spec and prints the same string.
// The seed corpus (f.Add plus testdata/fuzz) covers every kind, explicit
// parameters, case and whitespace folding, trace paths and the
// non-finite values Parse must reject.
func FuzzParseStringRoundTrip(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	f.Add("trace:testdata/Events.jsonl")
	f.Add("bursty:32:0.5")
	f.Add("poisson-arrivals:nan")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return
		}
		for i, p := range sp.Params {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("Parse(%q) accepted non-finite parameter %d: %v", s, i, p)
			}
		}
		canon := sp.String()
		sp2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) (canonical of %q): %v", canon, s, err)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("canonical %q of %q re-parses to %+v, want %+v", canon, s, sp2, sp)
		}
		if again := sp2.String(); again != canon {
			t.Fatalf("canonical %q of %q prints as %q after re-parsing", canon, s, again)
		}
	})
}

// FuzzReadTrace fuzzes the JSONL arrival trace that trace:<file> scenarios
// and lbserved -replay read: whenever ReadTrace accepts an input, writing
// its events through NewTraceWriter and reading them back gives the same
// events, and rewriting that canonical output reproduces it byte for byte.
// The seed corpus (testdata/fuzz) covers blank lines, CRLF line ends,
// decreasing rounds, non-positive and overflowing amounts, and a line past
// the 1 MiB scanner limit.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`{"k":0,"node":5,"amt":12500}` + "\n" + `{"k":4,"node":0,"amt":800}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon := writeEvents(t, events)
		again, err := ReadTrace(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("rewrite of %q does not read back: %v", data, err)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("rewrite of %q reads back as %+v, want %+v", data, again, events)
		}
		if b := writeEvents(t, again); !bytes.Equal(b, canon) {
			t.Fatalf("canonical trace %q rewrites as %q", canon, b)
		}
	})
}

// writeEvents encodes events through a TraceWriter.
func writeEvents(t *testing.T, events []Event) []byte {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, e := range events {
		if err := tw.Append(e); err != nil {
			t.Fatalf("Append(%+v) of an accepted event: %v", e, err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
