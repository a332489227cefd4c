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
// flags for that shard (TaskArgs of the plan's task); the job template only
// prefixes the binary. The split is the exact one the supervisor would run
// locally — same tasks, same command lines, same journal layout.
func (p *Plan) EmitGitHub(w io.Writer) error {
	entries := make([]matrixEntry, len(p.Tasks))
	for i, t := range p.Tasks {
		entries[i] = matrixEntry{
			Index:   t.Shard.Index,
			Count:   t.Shard.Count,
			Shard:   fmt.Sprintf("%d/%d", t.Shard.Index, t.Shard.Count),
			Journal: t.Journal,
			Units:   t.Units,
			Args:    strings.Join(p.TaskArgs(t, false), " "),
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
