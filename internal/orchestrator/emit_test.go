package orchestrator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// wantMatrix is the emitted matrix for testSpec split 3 ways under "out",
// pinned byte for byte: CI workflows consume this exact shape.
const wantMatrix = `{"include":[` +
	`{"index":0,"count":3,"shard":"0/3","journal":"out/shard-0.jsonl","units":3,"args":"-grid -topos cycle,path -algos diffusion -modes continuous -loads spike,uniform -scenarios static -n 16 -seeds 1,2 -scale 1e+06 -eps 0.001 -shard 0/3 -out out/shard-0.jsonl"},` +
	`{"index":1,"count":3,"shard":"1/3","journal":"out/shard-1.jsonl","units":3,"args":"-grid -topos cycle,path -algos diffusion -modes continuous -loads spike,uniform -scenarios static -n 16 -seeds 1,2 -scale 1e+06 -eps 0.001 -shard 1/3 -out out/shard-1.jsonl"},` +
	`{"index":2,"count":3,"shard":"2/3","journal":"out/shard-2.jsonl","units":2,"args":"-grid -topos cycle,path -algos diffusion -modes continuous -loads spike,uniform -scenarios static -n 16 -seeds 1,2 -scale 1e+06 -eps 0.001 -shard 2/3 -out out/shard-2.jsonl"}` +
	"]}\n"

func TestEmitGitHubMatrix(t *testing.T) {
	p, err := NewPlan(testSpec(), 3, "out")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.EmitGitHub(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != wantMatrix {
		t.Fatalf("matrix bytes changed:\n got %s\nwant %s", got, wantMatrix)
	}
	// Single line, so a setup job can pipe it into $GITHUB_OUTPUT verbatim.
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("emitted %d newlines, want exactly 1:\n%s", got, buf.String())
	}
	var m struct {
		Include []struct {
			Index   int    `json:"index"`
			Count   int    `json:"count"`
			Shard   string `json:"shard"`
			Journal string `json:"journal"`
			Units   int    `json:"units"`
			Args    string `json:"args"`
		} `json:"include"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("matrix is not JSON: %v", err)
	}
	if len(m.Include) != 3 {
		t.Fatalf("%d matrix entries, want 3", len(m.Include))
	}
	for i, e := range m.Include {
		if e.Index != i || e.Count != 3 || e.Shard != fmt.Sprintf("%d/3", i) {
			t.Fatalf("entry %d mislabeled: %+v", i, e)
		}
		if !strings.Contains(e.Args, "-shard "+e.Shard) || !strings.Contains(e.Args, "-out "+e.Journal) {
			t.Fatalf("entry %d args incomplete: %q", i, e.Args)
		}
		if !strings.HasPrefix(e.Args, "-grid ") {
			t.Fatalf("entry %d args missing -grid: %q", i, e.Args)
		}
	}
}
