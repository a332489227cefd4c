package batch

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/trace"
)

// Cell is one unit's recorded outcome.
type Cell struct {
	Unit
	Outcome
	// BoundRatio is Rounds/Bound (0 when no theorem bound applies).
	BoundRatio float64 `json:"bound_ratio,omitempty"`
	// RMSDiscrepancy is the final per-node root-mean-square deviation from
	// the balanced average, √(Φᵉⁿᵈ/n).
	RMSDiscrepancy float64 `json:"rms_discrepancy"`
	// Wall is the unit's execution time. It is excluded from the CSV/JSON
	// emitters so aggregated output is byte-identical across worker counts.
	Wall time.Duration `json:"-"`
	// Err is non-empty when the unit failed, panicked or was cancelled.
	Err string `json:"error,omitempty"`
}

// finish derives the per-cell statistics that depend only on the outcome.
func (c *Cell) finish(n int) {
	c.BoundRatio = boundRatio(c.Rounds, c.Bound)
	if n > 0 && c.PhiEnd >= 0 {
		c.RMSDiscrepancy = math.Sqrt(c.PhiEnd / float64(n))
	}
}

// Aggregate summarizes one grid cell (topology × algorithm × mode ×
// workload × scenario) across its seeds.
type Aggregate struct {
	Topology  string `json:"topology"`
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"`
	Workload  string `json:"workload"`
	// Scenario is the cell's scenario in the legacy encoding ("" = static,
	// omitted from JSON — scenario-free reports keep their old shape).
	Scenario string `json:"scenario,omitempty"`
	// Runs and Converged count the cell's units and how many reached their
	// target; Failed counts errored/cancelled units (excluded from means).
	Runs      int `json:"runs"`
	Converged int `json:"converged"`
	Failed    int `json:"failed,omitempty"`
	// MeanRounds and SDRounds summarize the round counts across seeds.
	MeanRounds float64 `json:"mean_rounds"`
	SDRounds   float64 `json:"sd_rounds"`
	// MeanBoundRatio is the mean rounds/bound over units with a bound
	// (0 when none of the cell's units has one).
	MeanBoundRatio float64 `json:"mean_bound_ratio,omitempty"`
	// MeanRMS is the mean final RMS discrepancy.
	MeanRMS float64 `json:"mean_rms_discrepancy"`

	// bounded counts the units contributing to MeanBoundRatio (a unit only
	// has a bound when a theorem applies to its Φ⁰, which varies per seed).
	bounded int
}

// Report is the engine's single output: every cell plus the per-grid-cell
// aggregation, in deterministic expansion order.
type Report struct {
	Spec       Spec        `json:"spec"`
	Cells      []Cell      `json:"cells"`
	Aggregates []Aggregate `json:"aggregates"`
	// Elapsed is the sweep's wall time (excluded from the deterministic
	// emitters, reported by the CLI separately).
	Elapsed time.Duration `json:"-"`
}

// Failed counts units that errored, panicked or were cancelled.
func (r *Report) Failed() int {
	n := 0
	for _, c := range r.Cells {
		if c.Err != "" {
			n++
		}
	}
	return n
}

// fold accumulates one cell into the aggregate's running sums. Until
// finalize runs, the Mean*/SD* fields hold plain sums (of rounds, squared
// rounds, bound ratios, RMS values) — the same incremental representation
// AggSink maintains cell by cell, so the streaming path and the
// materialized Report share one arithmetic sequence and produce bit-equal
// statistics.
func (a *Aggregate) fold(c Cell) {
	a.Runs++
	if c.Err != "" {
		a.Failed++
		return
	}
	if c.Converged {
		a.Converged++
	}
	// Streaming mean/variance would be scheduling-sensitive only if the
	// cell order were; it is not — cells arrive in expansion order.
	a.MeanRounds += float64(c.Rounds)
	a.SDRounds += float64(c.Rounds) * float64(c.Rounds)
	if c.Bound > 0 {
		a.MeanBoundRatio += c.BoundRatio
		a.bounded++
	}
	a.MeanRMS += c.RMSDiscrepancy
}

// finalize converts the running sums into the published statistics.
func (a *Aggregate) finalize() {
	ok := a.Runs - a.Failed
	if ok == 0 {
		a.MeanRounds, a.SDRounds, a.MeanBoundRatio, a.MeanRMS = 0, 0, 0, 0
		return
	}
	n := float64(ok)
	sum, sumSq := a.MeanRounds, a.SDRounds
	a.MeanRounds = sum / n
	variance := sumSq/n - a.MeanRounds*a.MeanRounds
	if variance < 0 {
		variance = 0
	}
	a.SDRounds = math.Sqrt(variance)
	if a.bounded > 0 {
		a.MeanBoundRatio /= float64(a.bounded)
	}
	a.MeanRMS /= n
}

// aggregate groups cells by CellKey in first-seen (expansion) order.
func (r *Report) aggregate() {
	var f cellFold
	for _, c := range r.Cells {
		f.fold(c)
	}
	r.Aggregates = f.finalized()
}

// cellFold folds cells into one Aggregate per grid cell (CellKey), in
// first-seen — expansion — order. Report.aggregate and AggSink both fold
// through it, so the materialized and the streaming report share one
// arithmetic sequence.
type cellFold struct {
	index map[string]int // CellKey → position in aggs
	aggs  []Aggregate
}

// fold accumulates c into its grid cell's running sums.
func (f *cellFold) fold(c Cell) {
	key := c.CellKey()
	i, ok := f.index[key]
	if !ok {
		if f.index == nil {
			f.index = make(map[string]int)
		}
		i = len(f.aggs)
		f.index[key] = i
		f.aggs = append(f.aggs, Aggregate{
			Topology:  c.Topology,
			Algorithm: c.Algorithm,
			Mode:      c.Mode,
			Workload:  c.WorkloadName,
			Scenario:  c.Scenario,
		})
	}
	f.aggs[i].fold(c)
}

// finalized returns the published statistics of a snapshot, leaving the
// running sums free to keep folding.
func (f *cellFold) finalized() []Aggregate {
	out := append([]Aggregate(nil), f.aggs...)
	for i := range out {
		out[i].finalize()
	}
	return out
}

// scenarioDisplay renders a stored scenario string for humans: the legacy
// empty encoding spelled out as "static".
func scenarioDisplay(s string) string {
	if s == "" {
		return "static"
	}
	return s
}

// Table renders every cell as a trace.Table, including wall times (the
// human-facing view; use RenderCSV/RenderJSON for deterministic output).
func (r *Report) Table() *trace.Table {
	t := trace.NewTable(fmt.Sprintf("batch grid — %d units", len(r.Cells)),
		"topology", "algorithm", "mode", "workload", "scenario", "seed",
		"rounds", "converged", "bound", "rounds/bound", "rms disc.", "wall", "error")
	for _, c := range r.Cells {
		bound, ratio := "-", "-"
		if c.Reason != "" {
			bound = c.Reason
		}
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.4g", c.Bound)
			ratio = fmt.Sprintf("%.4g", c.BoundRatio)
		}
		t.AddRow(c.Topology, c.Algorithm, c.Mode, c.WorkloadName,
			scenarioDisplay(c.Scenario),
			fmt.Sprintf("%d", c.Seed), fmt.Sprintf("%d", c.Rounds),
			fmt.Sprintf("%v", c.Converged), bound, ratio,
			fmt.Sprintf("%.4g", c.RMSDiscrepancy),
			c.Wall.Round(time.Microsecond).String(), c.Err)
	}
	return t
}

// aggregateTable renders per-grid-cell aggregates under title — the
// human-facing aggregate view of both Report and AggReport.
func aggregateTable(title string, aggs []Aggregate) *trace.Table {
	t := trace.NewTable(title,
		"topology", "algorithm", "mode", "workload", "scenario",
		"runs", "converged", "failed", "rounds (mean±sd)", "mean rounds/bound", "mean rms disc.")
	for _, a := range aggs {
		ratio := "-"
		if a.MeanBoundRatio > 0 {
			ratio = fmt.Sprintf("%.4g", a.MeanBoundRatio)
		}
		t.AddRow(a.Topology, a.Algorithm, a.Mode, a.Workload,
			scenarioDisplay(a.Scenario),
			fmt.Sprintf("%d", a.Runs), fmt.Sprintf("%d", a.Converged),
			fmt.Sprintf("%d", a.Failed),
			fmt.Sprintf("%.4g±%.3g", a.MeanRounds, a.SDRounds), ratio,
			fmt.Sprintf("%.4g", a.MeanRMS))
	}
	return t
}

// renderAggregateCSV writes the aggregate CSV block — the same bytes in
// Report.RenderCSV and AggReport.RenderCSV.
func renderAggregateCSV(w io.Writer, aggs []Aggregate) error {
	t := trace.NewTable("", "topology", "algorithm", "mode", "workload", "scenario",
		"runs", "converged", "failed", "mean_rounds", "sd_rounds", "mean_bound_ratio", "mean_rms_discrepancy")
	for _, a := range aggs {
		t.AddRow(a.Topology, a.Algorithm, a.Mode, a.Workload,
			scenarioDisplay(a.Scenario),
			fmt.Sprintf("%d", a.Runs), fmt.Sprintf("%d", a.Converged), fmt.Sprintf("%d", a.Failed),
			fmt.Sprintf("%.8g", a.MeanRounds), fmt.Sprintf("%.8g", a.SDRounds),
			fmt.Sprintf("%.8g", a.MeanBoundRatio), fmt.Sprintf("%.8g", a.MeanRMS))
	}
	return t.RenderCSV(w)
}

// RenderCSV writes the per-cell grid followed by a blank line and the
// aggregate block. The output is byte-identical for any worker count.
func (r *Report) RenderCSV(w io.Writer) error {
	cells := trace.NewTable("", "topology", "algorithm", "mode", "workload", "scenario", "seed",
		"rounds", "converged", "phi_start", "phi_end", "bound", "bound_name", "bound_ratio", "rms_discrepancy",
		"peak_phi", "steady_rms", "rebalance_rounds", "error")
	for _, c := range r.Cells {
		cells.AddRow(c.Topology, c.Algorithm, c.Mode, c.WorkloadName,
			scenarioDisplay(c.Scenario),
			fmt.Sprintf("%d", c.Seed), fmt.Sprintf("%d", c.Rounds),
			fmt.Sprintf("%v", c.Converged),
			fmt.Sprintf("%.8g", c.PhiStart), fmt.Sprintf("%.8g", c.PhiEnd),
			fmt.Sprintf("%.8g", c.Bound), c.BoundName,
			fmt.Sprintf("%.8g", c.BoundRatio), fmt.Sprintf("%.8g", c.RMSDiscrepancy),
			fmt.Sprintf("%.8g", c.PeakPhi), fmt.Sprintf("%.8g", c.SteadyRMS),
			fmt.Sprintf("%d", c.RebalanceRounds), c.Err)
	}
	if err := cells.RenderCSV(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return renderAggregateCSV(w, r.Aggregates)
}

// RenderJSON writes the report as indented JSON. Wall times and worker
// counts are excluded, so the bytes are identical for any worker count.
func (r *Report) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes the report in the named format: "table" (the human view —
// per-cell table plus the aggregate table), "csv" or "json" (both
// deterministic). This is the one format dispatch every consumer (the CLI's
// grid path, the orchestrator's merge) shares, which is what keeps
// "orchestrated output is byte-identical to single-process output" a
// property of one code path instead of several kept in lockstep.
func (r *Report) Render(format string, w io.Writer) error {
	switch format {
	case "table":
		if err := r.Table().Render(w); err != nil {
			return err
		}
		return aggregateTable("batch grid — aggregates across seeds", r.Aggregates).Render(w)
	case "csv":
		return r.RenderCSV(w)
	case "json":
		return r.RenderJSON(w)
	}
	return fmt.Errorf("batch: unknown format %q (want table, csv or json)", format)
}
