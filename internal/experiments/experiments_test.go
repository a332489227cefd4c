package experiments

import (
	"crypto/md5"
	"encoding/hex"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// The registry `lbbench -list` prints: E1–E19 and A1–A8 (E8/E14 live
	// in random.go).
	want := []string{
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestIDsOrdering(t *testing.T) {
	ids := IDs()
	// All E's first, numerically ordered, then A's.
	sawA := false
	prevNum := 0
	for _, id := range ids {
		if id[0] == 'A' {
			sawA = true
			continue
		}
		if sawA {
			t.Fatalf("E after A in %v", ids)
		}
		n, err := strconv.Atoi(id[1:])
		if err != nil {
			t.Fatal(err)
		}
		if n <= prevNum {
			t.Fatalf("ids not ascending: %v", ids)
		}
		prevNum = n
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("E99"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

// Every experiment must run in quick mode and produce at least one row.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, _ := Lookup(id)
			tb := r(Options{Seed: 42, Quick: true})
			if tb == nil || len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if tb.Title == "" || len(tb.Header) == 0 {
				t.Fatalf("%s table missing title/header", id)
			}
		})
	}
}

// Theorem-bound experiments must show measured ≤ bound in their ratio
// column: the quick-mode rows of E3/E19 (Theorem 4), E4/E19 (Theorem 6),
// E5 (Theorem 7), E6 (Theorem 8), E9 (Theorem 12) and E10 (Theorem 14).
func TestBoundsRespectedQuick(t *testing.T) {
	cases := []struct {
		id       string
		ratioCol string
	}{
		{"E3", "rounds/bound"},
		{"E4", "rounds/bound"},
		{"E5", "K/bound"},
		{"E6", "K/bound"},
		{"E9", "rounds/bound"},
		{"E10", "rounds/bound"},
		{"E19", "T4 ratio"},
		{"E19", "T6 ratio"},
	}
	for _, c := range cases {
		r, ok := Lookup(c.id)
		if !ok {
			t.Fatalf("%s missing", c.id)
		}
		tb := r(Options{Seed: 7, Quick: true})
		col := -1
		for i, h := range tb.Header {
			if h == c.ratioCol {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%s: no column %q in %v", c.id, c.ratioCol, tb.Header)
		}
		for _, row := range tb.Rows {
			cell := row[col]
			if cell == "" || cell == "NaN" {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				t.Fatalf("%s: unparseable ratio %q", c.id, cell)
			}
			if v > 1.0 {
				t.Fatalf("%s: measured exceeds bound (ratio %v) in row %v", c.id, v, row)
			}
		}
	}
}

// E7's Lemma 9 probability must exceed 0.5 in every row.
func TestLemma9RowsQuick(t *testing.T) {
	r, _ := Lookup("E7")
	tb := r(Options{Seed: 11, Quick: true})
	col := -1
	for i, h := range tb.Header {
		if strings.HasPrefix(h, "Pr[") {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no probability column in %v", tb.Header)
	}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("unparseable %q", row[col])
		}
		if v <= 0.5 {
			t.Fatalf("Lemma 9 violated: %v in row %v", v, row)
		}
	}
}

// A2 must show zero violations for the increasing order and nonzero
// activations overall.
func TestA2IncreasingOrderCleanQuick(t *testing.T) {
	r, _ := Lookup("A2")
	tb := r(Options{Seed: 13, Quick: true})
	var orderCol, violCol int = -1, -1
	for i, h := range tb.Header {
		switch h {
		case "order":
			orderCol = i
		case "violations":
			violCol = i
		}
	}
	if orderCol < 0 || violCol < 0 {
		t.Fatalf("columns missing in %v", tb.Header)
	}
	for _, row := range tb.Rows {
		if row[orderCol] == "increasing" && row[violCol] != "0" {
			t.Fatalf("increasing order shows violations: %v", row)
		}
	}
}

// TestShardedExperimentRowsPartitionTheTable: m shard processes running the
// same experiment must emit disjoint row subsets whose union — in order —
// is exactly the unsharded table, with every owned row bit-identical (cell
// RNG streams derive from the cell index, not from which process ran it).
func TestShardedExperimentRowsPartitionTheTable(t *testing.T) {
	r, ok := Lookup("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	full := r(Options{Seed: 42, Quick: true})

	const m = 3
	var gathered [][]string
	for i := 0; i < m; i++ {
		part := r(Options{Seed: 42, Quick: true, ShardIndex: i, ShardCount: m})
		if len(part.Rows) >= len(full.Rows) {
			t.Fatalf("shard %d emitted %d rows — no restriction applied", i, len(part.Rows))
		}
		gathered = append(gathered, part.Rows...)
	}
	if len(gathered) != len(full.Rows) {
		t.Fatalf("shards emitted %d rows total, want %d", len(gathered), len(full.Rows))
	}
	// Each full row must appear exactly once across shards, byte-identical.
	seen := map[string]int{}
	for _, row := range gathered {
		seen[strings.Join(row, "|")]++
	}
	for _, row := range full.Rows {
		key := strings.Join(row, "|")
		if seen[key] != 1 {
			t.Fatalf("row %q appears %d times across shards, want exactly once", key, seen[key])
		}
	}
}

// quickCSVDigest is the md5 of `lbbench -exp all -quick -csv` (seed 1).
const quickCSVDigest = "750c1213ca3150cf628db9045f0d7955"

// TestQuickCSVDigest renders every registered experiment exactly as
// `lbbench -exp all -quick -csv` prints it — Quick, Seed 1, CSV, in IDs()
// order — and pins the md5 of the bytes at pool widths 1 and 8, so any
// change to a kernel's floating-point op chain or an experiment's output
// fails here. It runs on amd64 only: other architectures may fuse the
// first-order scheme's multiply-add into an FMA and print different digits.
func TestQuickCSVDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, workers := range []int{1, 8} {
		h := md5.New()
		o := Options{Seed: 1, Quick: true, Workers: workers}
		for _, id := range IDs() {
			run, _ := Lookup(id)
			if err := run(o).RenderCSV(h); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != quickCSVDigest {
			t.Fatalf("lbbench -exp all -quick -csv -parallel %d md5 is %s, pinned %s; if the new output is intended, "+
				"update quickCSVDigest and record the new digest in CHANGES.md", workers, got, quickCSVDigest)
		}
	}
}
