package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// e2eSpec is the benchmark's own copy of BENCHMARK.json's end_to_end list:
// the bound by which a metric may get worse before -compare calls it a
// regression. bench_test.go holds the two to each other.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEndSpec = []e2eSpec{
	{"ops_per_s", "1/s", "higher", 0.15},
	{"sim_mips", "Minstr/s", "higher", 0.10},
	{"run_us_gmean", "us", "lower", 0.10},
	{"run_p99_us", "us", "lower", 0.25},
	{"offline_us_gmean", "us", "lower", 0.25},
	{"online_us_gmean", "us", "lower", 0.25},
	{"warm_deploy_us_p50", "us", "lower", 0.25},
	{"disk_deploy_us_p50", "us", "lower", 0.25},
	{"heap_end_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// loadResults reads one result file, or every *.json file of a directory.
func loadResults(path string) ([]*result, error) {
	paths := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		res := &result{}
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", path)
	}
	return out, nil
}

// quartiles returns the three quartiles of a set of runs the way Python's
// statistics.quantiles(values, n=4) does, so the medians and spreads
// reported here are the ones the benchmark's contract is checked with. (The
// statistics of one run's samples are nearest-rank: see stats.go.)
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareResults prints, for every workload both sides ran, one row per
// end-to-end metric against its bound, then any drift in the exact counts.
// It returns an error when a metric regressed, a count drifted or the new
// side failed more operations.
func compareResults(w io.Writer, basePath, newPath string) error {
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	fresh, err := loadResults(newPath)
	if err != nil {
		return err
	}
	if b, n := base[0].Host, fresh[0].Host; b != n {
		fmt.Fprintf(w, "warning: host fingerprints differ, timings are not comparable\n  base %+v\n  new  %+v\n", b, n)
	}

	problems := 0
	for _, wl := range catalogue {
		bs, ns := pick(base, wl.name, false), pick(fresh, wl.name, false)
		if len(bs) > 0 && len(ns) > 0 {
			fmt.Fprintf(w, "\n%s (%d base runs, %d new runs)\n", wl.name, len(bs), len(ns))
			fmt.Fprintf(w, "  %-20s %14s %8s %14s %9s %7s  %s\n", "metric", "base median", "IQR", "new median", "worse by", "bound", "verdict")
			for _, spec := range endToEndSpec {
				problems += compareMetric(w, spec, values(bs, spec.Name), values(ns, spec.Name))
			}
			if bf, nf := failedShare(bs), failedShare(ns); nf > bf {
				fmt.Fprintf(w, "  fail_share rose from %.6f to %.6f: REGRESSED\n", bf, nf)
				problems++
			}
		}
		problems += compareExact(w, wl.name, pick(base, wl.name, true), pick(fresh, wl.name, true))
	}
	if problems > 0 {
		return fmt.Errorf("%d regression(s) or drift(s), see the report", problems)
	}
	return nil
}

func pick(rs []*result, workload string, trace bool) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(rs []*result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareMetric prints one row and returns 1 for a regression.
func compareMetric(w io.Writer, spec e2eSpec, base, fresh []float64) int {
	if len(base) == 0 || len(fresh) == 0 {
		fmt.Fprintf(w, "  %-20s missing on one side\n", spec.Name)
		return 1
	}
	q1, bm, q3 := quartiles(base)
	_, nm, _ := quartiles(fresh)
	worse := (nm - bm) / bm
	if spec.Better == "higher" {
		worse = -worse
	}
	spread := (q3 - q1) / bm
	// Unresolved: the base's own runs disagree by more than the bound, and
	// the new runs do not all read better than all of the base's.
	verdict, bad := "ok", 0
	switch {
	case spread > spec.Bound && !allBetter(spec, base, fresh):
		verdict = "unresolved"
	case worse > spec.Bound:
		verdict, bad = "REGRESSED", 1
	case worse < -spread && worse < 0:
		verdict = "better"
	}
	fmt.Fprintf(w, "  %-20s %14.4f %7.1f%% %14.4f %+8.1f%% %6.0f%%  %s\n",
		spec.Name, bm, 100*spread, nm, 100*worse, 100*spec.Bound, verdict)
	return bad
}

func allBetter(spec e2eSpec, base, fresh []float64) bool {
	bs, ns := sorted(base), sorted(fresh)
	if spec.Better == "higher" {
		return ns[0] > bs[len(bs)-1]
	}
	return ns[len(ns)-1] < bs[0]
}

// compareExact reports every exact count that differs between traced runs
// of the same seed.
func compareExact(w io.Writer, workload string, base, fresh []*result) int {
	drifts := 0
	for _, b := range base {
		for _, n := range fresh {
			if b.Seed != n.Seed {
				continue
			}
			for _, name := range sortedKeys(b.Exact) {
				if nv, ok := n.Exact[name]; ok && nv != b.Exact[name] {
					fmt.Fprintf(w, "  %s seed %d: exact count %s drifted from %v to %v: ERROR\n", workload, b.Seed, name, b.Exact[name], nv)
					drifts++
				}
			}
		}
	}
	return drifts
}
