package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/target"
)

// Results is the schema of the machine-readable artifact cmd/dacbench
// writes (BENCH_results.json): the report of every experiment that ran.
// cmd/benchdiff compares two such artifacts to gate performance regressions
// in CI.
type Results struct {
	Table1   *Table1Report   `json:"table1,omitempty"`
	Figure1  *Figure1Report  `json:"figure1,omitempty"`
	RegAlloc *RegAllocReport `json:"regalloc,omitempty"`
	CodeSize *CodeSizeReport `json:"codesize,omitempty"`
	Hetero   *HeteroReport   `json:"hetero,omitempty"`
	// Anno tracks the annotation-container trajectory (encoded sizes per
	// writer version, fallback counts). It is recorded but never gated: its
	// numbers change exactly when the annotation schema evolves, and the
	// correctness contract is enforced by the golden corpus test instead.
	// New non-gated sections belong in this pattern — add them here and
	// leave them out of both Metrics and gatedSections. Sections an older
	// artifact carries that this schema no longer knows (host, compile,
	// tier, serve) are ignored on decode.
	Anno *AnnoReport `json:"anno,omitempty"`
}

// gatedSections are the top-level artifact keys whose metrics the
// regression gate compares (the sections Metrics flattens). Everything else
// — the annotation trajectory, sections of older artifacts, future
// tracked-only sections — is recorded but never gated, and StripUngated
// removes it generically when a baseline is refreshed.
var gatedSections = []string{"table1", "figure1", "regalloc", "codesize", "hetero"}

// StripUngated removes every non-gated top-level section from a raw results
// artifact, returning the canonical baseline form (sorted keys, indented).
// It operates on the JSON generically so future tracked-only sections are
// stripped without anyone remembering to special-case them.
func StripUngated(data []byte) ([]byte, error) {
	var all map[string]json.RawMessage
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("bench: parsing results: %w", err)
	}
	kept := make(map[string]json.RawMessage, len(gatedSections))
	for _, k := range gatedSections {
		if v, ok := all[k]; ok {
			kept[k] = v
		}
	}
	out, err := json.MarshalIndent(kept, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseResults decodes a BENCH_results.json artifact.
func ParseResults(data []byte) (*Results, error) {
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing results: %w", err)
	}
	return &r, nil
}

// Metric is one lower-is-better scalar extracted from a Results artifact:
// simulated cycles, JIT effort, spill weights, code sizes.
type Metric struct {
	Name  string
	Value float64
}

// Metrics flattens the artifact into named lower-is-better scalars, in a
// stable order. The names are hierarchical (experiment/case/quantity) so a
// regression report reads without cross-referencing the JSON. Only the
// deterministic simulated metrics are included; the annotation trajectory
// (Results.Anno) is tracked, never gated.
func (r *Results) Metrics() []Metric {
	var out []Metric
	add := func(name string, v float64) { out = append(out, Metric{Name: name, Value: v}) }

	if r.Table1 != nil {
		for _, row := range r.Table1.Rows {
			for _, cell := range row.Cells {
				base := fmt.Sprintf("table1/%s/%s/", row.Kernel, cell.Target)
				add(base+"scalar_cycles", float64(cell.ScalarCycles))
				add(base+"vector_cycles", float64(cell.VectorCycles))
			}
		}
	}
	if r.Figure1 != nil {
		for _, row := range r.Figure1.Rows {
			add(fmt.Sprintf("figure1/%s/jit_steps_annotated", row.Kernel), float64(row.JITStepsWithAnnotations))
			add(fmt.Sprintf("figure1/%s/annotation_bytes", row.Kernel), float64(row.AnnotationBytes))
		}
	}
	if r.RegAlloc != nil {
		for _, pt := range r.RegAlloc.Points {
			base := fmt.Sprintf("regalloc/r%d/", pt.IntRegs)
			add(base+"weighted_online", float64(pt.WeightedOnline))
			add(base+"weighted_split", float64(pt.WeightedSplit))
			add(base+"weighted_optimal", float64(pt.WeightedOptimal))
		}
	}
	if r.CodeSize != nil {
		for _, row := range r.CodeSize.Rows {
			base := fmt.Sprintf("codesize/%s/", row.Module)
			add(base+"total_bytes", float64(row.TotalBytes))
			archs := make([]string, 0, len(row.NativeBytes))
			for a := range row.NativeBytes {
				archs = append(archs, string(a))
			}
			sort.Strings(archs)
			for _, a := range archs {
				add(base+"native_"+a, float64(row.NativeBytes[target.Arch(a)]))
			}
		}
	}
	if r.Hetero != nil {
		add("hetero/host_only_cycles", float64(r.Hetero.HostOnlyCycles))
		add("hetero/offloaded_cycles", float64(r.Hetero.OffloadedCycles))
	}
	return out
}

// DiffOptions tunes the regression gate. The zero value is the exact gate:
// any increase at all is a regression — a meaningful choice here because
// the simulated targets are deterministic. cmd/benchdiff defaults to a
// slightly looser 2% + 2 to absorb intentional low-noise drift.
type DiffOptions struct {
	// RelTol is the allowed fractional increase of a metric before it counts
	// as a regression (0 = exact).
	RelTol float64
	// AbsTol is an absolute allowance added on top, so tiny metrics (a
	// 3-cycle kernel growing to 4) don't trip the relative gate.
	AbsTol float64
}

// DiffStatus classifies one metric comparison.
type DiffStatus string

// The comparison outcomes.
const (
	// DiffOK: within tolerance.
	DiffOK DiffStatus = "ok"
	// DiffRegression: the current value exceeds baseline by more than the
	// tolerance. Fails the gate.
	DiffRegression DiffStatus = "regression"
	// DiffImproved: the current value undercuts baseline by more than the
	// tolerance; informational (refresh the baseline to lock it in).
	DiffImproved DiffStatus = "improved"
	// DiffMissing: present in the baseline but absent from the current run —
	// an experiment silently stopped running. Fails the gate.
	DiffMissing DiffStatus = "missing"
	// DiffNew: present only in the current run; informational.
	DiffNew DiffStatus = "new"
)

// DiffRow is one compared metric.
type DiffRow struct {
	Name     string
	Baseline float64
	Current  float64
	// Delta is the fractional change (current/baseline - 1); 0 when the
	// baseline is 0 or the metric is missing on either side.
	Delta  float64
	Status DiffStatus
}

// DiffReport is the outcome of comparing a current Results artifact against
// a baseline.
type DiffReport struct {
	Options     DiffOptions
	Rows        []DiffRow
	Regressions int
	Missing     int
	Improved    int
	New         int
}

// Failed reports whether the gate should fail the build: any metric
// regressed beyond tolerance, or the baseline covers an experiment the
// current run skipped.
func (d *DiffReport) Failed() bool { return d.Regressions > 0 || d.Missing > 0 }

// Compare evaluates every baseline metric against the current run. Metrics
// are lower-is-better; a current value above baseline*(1+RelTol)+AbsTol is
// a regression, below baseline*(1-RelTol)-AbsTol an improvement.
func Compare(baseline, current *Results, opts DiffOptions) *DiffReport {
	rep := &DiffReport{Options: opts}

	cur := make(map[string]float64)
	var curOrder []string
	for _, m := range current.Metrics() {
		if _, dup := cur[m.Name]; !dup {
			curOrder = append(curOrder, m.Name)
		}
		cur[m.Name] = m.Value
	}

	seen := make(map[string]bool)
	for _, b := range baseline.Metrics() {
		if seen[b.Name] {
			continue
		}
		seen[b.Name] = true
		row := DiffRow{Name: b.Name, Baseline: b.Value}
		c, ok := cur[b.Name]
		if !ok {
			row.Status = DiffMissing
			rep.Missing++
			rep.Rows = append(rep.Rows, row)
			continue
		}
		row.Current = c
		if b.Value != 0 {
			row.Delta = c/b.Value - 1
		}
		switch {
		case c > b.Value*(1+opts.RelTol)+opts.AbsTol:
			row.Status = DiffRegression
			rep.Regressions++
		case c < b.Value*(1-opts.RelTol)-opts.AbsTol:
			row.Status = DiffImproved
			rep.Improved++
		default:
			row.Status = DiffOK
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, name := range curOrder {
		if !seen[name] {
			rep.Rows = append(rep.Rows, DiffRow{Name: name, Current: cur[name], Status: DiffNew})
			rep.New++
		}
	}
	return rep
}

// String renders the non-OK rows and a one-line verdict (the full row list
// stays available programmatically).
func (d *DiffReport) String() string {
	var b strings.Builder
	for _, row := range d.Rows {
		switch row.Status {
		case DiffOK:
			continue
		case DiffMissing:
			fmt.Fprintf(&b, "MISSING     %-46s baseline %.0f, absent from current run\n", row.Name, row.Baseline)
		case DiffNew:
			fmt.Fprintf(&b, "new         %-46s %.0f (no baseline)\n", row.Name, row.Current)
		default:
			fmt.Fprintf(&b, "%-11s %-46s %.0f -> %.0f (%+.1f%%)\n",
				strings.ToUpper(string(row.Status)), row.Name, row.Baseline, row.Current, 100*row.Delta)
		}
	}
	total := len(d.Rows)
	fmt.Fprintf(&b, "%d metrics: %d regressed, %d missing, %d improved, %d new (tolerance %.1f%% + %.0f)\n",
		total, d.Regressions, d.Missing, d.Improved, d.New, 100*d.Options.RelTol, d.Options.AbsTol)
	return b.String()
}
