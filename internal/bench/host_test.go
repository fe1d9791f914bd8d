package bench

import (
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/target"
)

func TestRunHostMeasuresEveryCell(t *testing.T) {
	r, err := RunHost(HostOptions{N: 256, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kernels.Table1Names) * len(target.Table1()); len(r.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(r.Cells), want)
	}
	for _, c := range r.Cells {
		if c.SimInstructions <= 0 || c.SimCycles <= 0 {
			t.Errorf("%s/%s: missing simulated counts: %+v", c.Kernel, c.Target, c)
		}
		if c.HostNanosPerRun <= 0 || c.SimMIPS <= 0 {
			t.Errorf("%s/%s: missing host measurements: %+v", c.Kernel, c.Target, c)
		}
		// AllocsPerRun reads process-wide counters, which tests running in
		// parallel move; the steady state's zero allocations are pinned
		// per cell by internal/sim's TestTable1CellsSteadyStateZeroAlloc.
	}
	if s := r.String(); !strings.Contains(s, "sim MIPS") || !strings.Contains(s, "saxpy_fp") {
		t.Errorf("report rendering looks wrong:\n%s", s)
	}
}

// TestHostSectionIsTrackedNotGated pins the compatibility contract of the
// host-throughput section: artifacts without it (old baselines) compare
// cleanly against artifacts with it, and none of its values ever become
// gated metrics.
func TestHostSectionIsTrackedNotGated(t *testing.T) {
	baseline := sampleResults() // pre-host schema: Host == nil
	current := clone(t, sampleResults())
	current.Host = &HostReport{
		Options: HostOptions{N: 256, Runs: 3},
		Cells: []HostCell{{
			Kernel: "saxpy_fp", Target: target.X86SSE, Runs: 3,
			SimInstructions: 1000, SimCycles: 4000,
			HostNanosPerRun: 12345, SimMIPS: 100,
		}},
	}

	for _, m := range current.Metrics() {
		if strings.HasPrefix(m.Name, "host/") {
			t.Errorf("host metric %q leaked into the gated metric set", m.Name)
		}
	}
	if got, want := len(current.Metrics()), len(baseline.Metrics()); got != want {
		t.Errorf("host section changed the gated metric count: %d != %d", got, want)
	}
	rep := Compare(baseline, current, DiffOptions{})
	if rep.Failed() {
		t.Fatalf("host section must not fail the gate:\n%s", rep)
	}
	if rep.New != 0 {
		t.Errorf("host section produced %d unexpected new gated metrics", rep.New)
	}

	// Round-tripping an artifact that carries the host section keeps it.
	if again := clone(t, current); again.Host == nil || len(again.Host.Cells) != 1 {
		t.Error("host section lost in the JSON round trip")
	}
}
