package orchestrator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestEmitGitHubMatrix(t *testing.T) {
	p, err := NewPlan(testSpec(), 3, "out")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.EmitGitHub(&buf); err != nil {
		t.Fatal(err)
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
