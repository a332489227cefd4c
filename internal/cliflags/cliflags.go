// Package cliflags centralizes the lb* CLIs' flag surfaces — the sweep
// grid's dimensions and run parameters, the report output knobs, the
// orchestrator's launcher/policy flags (lbbench -spawn), the telemetry and
// round-worker flags lbserved shares, and the parsers behind them (seed
// lists, -round-workers, -shard i/m, -units lo:hi). One registration point
// means a shared flag has one help string and one parser, instead of
// drifting copies.
package cliflags

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// SplitList splits a comma-separated flag value, dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// ParseSeeds parses a comma-separated -seeds list.
func ParseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, v := range SplitList(s) {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", v, err)
		}
		out = append(out, x)
	}
	return out, nil
}

// ParseRoundWorkers parses a -round-workers value: a non-negative worker
// count, or "auto" (encoded as −1) for the batch auto-tuner's split.
func ParseRoundWorkers(s string) (int, error) {
	if strings.EqualFold(strings.TrimSpace(s), "auto") {
		return -1, nil
	}
	w, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || w < 0 {
		return 0, fmt.Errorf("bad -round-workers %q (want a non-negative count, or 'auto')", s)
	}
	return w, nil
}

// ErrShardRange marks a -shard value that parsed but names an impossible
// slice (count ≤ 0, index outside [0, m)) — the CLIs map it to their
// out-of-range exit code, where a malformed string is plain usage.
var ErrShardRange = errors.New("shard out of range")

// ParseShard parses a -shard i/m value ("" means unsharded).
func ParseShard(s string) (i, m int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/m, e.g. 0/3)", s)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	m, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/m, e.g. 0/3)", s)
	}
	if m <= 0 {
		return 0, 0, fmt.Errorf("bad -shard %q: %w: count must be positive", s, ErrShardRange)
	}
	if i < 0 || i >= m {
		return 0, 0, fmt.Errorf("bad -shard %q: %w: index must be in [0, %d)", s, ErrShardRange, m)
	}
	return i, m, nil
}

// ParseUnits parses a -units lo:hi window ("" means unrestricted): a
// half-open expansion-index range, "lo:" for the unbounded tail — the form
// the work-stealing supervisor hands its stolen sub-shards.
func ParseUnits(s string) (lo, hi int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	los, his, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -units %q (want lo:hi, or lo: for an unbounded tail)", s)
	}
	lo, err = strconv.Atoi(strings.TrimSpace(los))
	if err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("bad -units %q: start must be a non-negative index", s)
	}
	if his = strings.TrimSpace(his); his != "" {
		hi, err = strconv.Atoi(his)
		if err != nil || hi <= lo {
			return 0, 0, fmt.Errorf("bad -units %q: end must be an index past the start (or omitted for unbounded)", s)
		}
	}
	return lo, hi, nil
}
