package load

import (
	"fmt"
	"slices"
)

// Mode selects continuous (divisible) or discrete (token) load: the
// float64 or the int64 Value a run's vector holds.
type Mode int

const (
	// Continuous allows arbitrarily divisible load.
	Continuous Mode = iota
	// Discrete moves indivisible tokens (floor transfers).
	Discrete
)

// modes is Mode's name table, indexed by Mode: the String name, which
// ParseMode accepts, and the one-line -list description. It sits below
// both the sweep engine and the run facade, so each checks mode names
// against this one list.
var modes = [...][2]string{
	Continuous: {"continuous", "arbitrarily divisible load (the ideal model of §2.1)"},
	Discrete:   {"discrete", "indivisible tokens with floor transfers (§2.2/§4.2)"},
}

// String implements fmt.Stringer. Every Mode but Discrete runs as, and
// reads as, continuous.
func (m Mode) String() string {
	if m == Discrete {
		return modes[Discrete][0]
	}
	return modes[Continuous][0]
}

// ParseMode converts a canonical (lowercase) mode name into a Mode.
func ParseMode(s string) (Mode, error) {
	for m, d := range modes {
		if d[0] == s {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("load: unknown mode %q", s)
}

// ModeDescriptions returns each mode name and a one-line description —
// the -list surface.
func ModeDescriptions() [][2]string { return slices.Clone(modes[:]) }
