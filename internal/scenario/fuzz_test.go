package scenario

import (
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
