package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eSpec `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// testScale shrinks every fixed count to 1/200; the windows below are 1/200
// of BENCHMARK.json's run_seconds.
const testScale = 0.005

// TestWorkloadsMatchBenchmarkJSON runs all four workloads, untraced and
// traced, at 1/200 scale and holds what they emit to BENCHMARK.json: the
// same workloads, the same metric names and units, every correctness check
// passing.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(catalogue) {
		t.Fatalf("BENCHMARK.json names %d workloads, the catalogue has %d", len(spec.Workloads), len(catalogue))
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndSpec) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEndSpec:\n%v\n%v", spec.EndToEnd, endToEndSpec)
	}
	var wantE2E, wantLayers []string
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		wantLayers = append(wantLayers, m.Name)
		units[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(wantLayers, layerMetricNames()) {
		t.Errorf("BENCHMARK.json per_layer differs from layerMetricNames():\n%v\n%v", wantLayers, layerMetricNames())
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)

	out := t.TempDir()
	seconds := float64(spec.RunSeconds) * testScale
	for i, w := range catalogue {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the catalogue's is %q (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
		e, cleanup, err := newEnv(1, testScale, out)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		for _, pass := range []struct {
			name string
			run  func() (*result, error)
			want []string
		}{
			{"untraced", func() (*result, error) { return runUntraced(w, e, seconds) }, wantE2E},
			{"traced", func() (*result, error) { return runTraced(w, e, seconds, out) }, wantLayers},
		} {
			res, err := pass.run()
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, pass.name, err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%s %s: %d of %d operations failed: %s", w.name, pass.name, res.Failed, res.Attempted, res.FirstFail)
			}
			if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, pass.want) {
				t.Errorf("%s %s emitted\n%v\nBENCHMARK.json names\n%v", w.name, pass.name, got, pass.want)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s %s: %s has unit %q, BENCHMARK.json says %q", w.name, pass.name, name, m.Unit, units[name])
				}
			}
			if err := res.write(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A set of results compared with itself has nothing to report.
	if err := compareResults(io.Discard, out, out); err != nil {
		t.Errorf("comparing the results with themselves: %v", err)
	}
}

// TestSelfCheck runs the determinism self-check at test scale.
func TestSelfCheck(t *testing.T) {
	e, cleanup, err := newEnv(3, testScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if err := selfCheck(io.Discard, e, ""); err != nil {
		t.Fatal(err)
	}
}

// TestCompareVerdicts pins the three verdicts that matter: a regression
// beyond the bound, noise wider than the bound, and a drifted exact count.
func TestCompareVerdicts(t *testing.T) {
	spec := e2eSpec{Name: "run_us_gmean", Unit: "us", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	if bad := compareMetric(io.Discard, spec, steady, []float64{120, 121, 119}); bad != 1 {
		t.Error("a 20% slowdown over a steady base was not called a regression")
	}
	if bad := compareMetric(io.Discard, spec, steady, []float64{105, 104, 106}); bad != 0 {
		t.Error("a 5% slowdown inside the 10% bound was called a regression")
	}
	noisy := []float64{80, 100, 120, 90, 130}
	var report strings.Builder
	if bad := compareMetric(&report, spec, noisy, []float64{125, 126, 124}); bad != 0 || !strings.Contains(report.String(), "unresolved") {
		t.Errorf("a base noisier than the bound should leave the metric unresolved, got %q", report.String())
	}
	base := []*result{{Workload: "serve_run", Trace: true, Seed: 1, Exact: map[string]float64{"sim.instr_total": 10}}}
	drifted := []*result{{Workload: "serve_run", Trace: true, Seed: 1, Exact: map[string]float64{"sim.instr_total": 11}}}
	if n := compareExact(io.Discard, "serve_run", base, drifted); n != 1 {
		t.Errorf("a drifted exact count was reported %d times, want once", n)
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, %v; Python's statistics.quantiles gives 2.75, 5.5, 8.25", q1, q2, q3)
	}
}
