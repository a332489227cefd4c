package orchestrator

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// matrixEntry is one GitHub Actions matrix include entry: enough to run the
// shard (`args`), to identify it (`shard`, `index`), and to name its
// artifact (`journal`).
type matrixEntry struct {
	Index   int    `json:"index"`
	Count   int    `json:"count"`
	Shard   string `json:"shard"`
	Journal string `json:"journal"`
	Units   int    `json:"units"`
	Args    string `json:"args"`
}

// EmitGitHub writes the shard plan as a single-line JSON object
// `{"include":[...]}` — the shape `strategy: matrix: ${{ fromJSON(...) }}`
// consumes, and single-line so a setup job can pass it through
// $GITHUB_OUTPUT verbatim. Each entry's `args` are the complete lbbench
// flags for that shard; the job template only prefixes the binary. The
// split is the exact one the supervisor would run locally — same shard
// assignment, same journal layout.
func (p *Plan) EmitGitHub(w io.Writer) error {
	entries := make([]matrixEntry, len(p.Shards))
	for i, sh := range p.Shards {
		entries[i] = matrixEntry{
			Index:   sh.Index,
			Count:   sh.Count,
			Shard:   fmt.Sprintf("%d/%d", sh.Index, sh.Count),
			Journal: sh.Journal,
			Units:   sh.Units,
			Args:    strings.Join(p.ShardArgs(i, false), " "),
		}
	}
	b, err := json.Marshal(struct {
		Include []matrixEntry `json:"include"`
	}{entries})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
