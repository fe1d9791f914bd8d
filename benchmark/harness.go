package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// kind names an operation as its caller sees it. Every workload produces
// samples of every kind — in its timed window when the workload is about
// that operation, otherwise while it builds its own programs during set-up
// (see README.md, "where each metric comes from").
type kind int

const (
	kOp      kind = iota // one whole workload operation (timed window only)
	kRun                 // one run of an entry point
	kOffline             // source -> annotated byte stream (Engine.Compile)
	kOnline              // byte stream -> runnable, nothing cached
	kWarm                // deploy of a module whose image is cached in memory
	kDisk                // first deploy on an engine that finds the image on disk
	nKinds
)

// recorder collects latency samples per (kind, item) — an item is a cell, a
// program or a deployment — plus the simulated work behind the runs. It is
// not safe for concurrent use: every worker records into its own and the
// harness merges them.
type recorder struct {
	ns [nKinds][][]float64
	// Simulated work behind the recorded runs: instructions per run item,
	// cycles in all.
	instr   []int64
	cycles  int64
	failed  int
	failMsg string
}

// observe records one sample. A nil recorder drops it: warm-up operations
// run the same code with nothing attached.
func (r *recorder) observe(k kind, item int, d time.Duration) {
	if r == nil {
		return
	}
	r.ns[k] = grown(r.ns[k], item)
	r.ns[k][item] = append(r.ns[k][item], float64(d.Nanoseconds()))
}

// grown returns s, extended with zero values if need be to hold index i.
func grown[T any](s []T, i int) []T {
	for len(s) <= i {
		var zero T
		s = append(s, zero)
	}
	return s
}

// ran records one run together with the simulated work it did.
func (r *recorder) ran(item int, d time.Duration, instr, cycles int64) {
	if r == nil {
		return
	}
	r.observe(kRun, item, d)
	r.instr = grown(r.instr, item)
	r.instr[item] += instr
	r.cycles += cycles
}

// fail counts one failed or wrong-answer operation and keeps the first
// message for the report.
func (r *recorder) fail(format string, args ...any) {
	if r == nil {
		return
	}
	r.failed++
	if r.failMsg == "" {
		r.failMsg = fmt.Sprintf(format, args...)
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range o.ns {
		for item, s := range o.ns[k] {
			r.ns[k] = grown(r.ns[k], item)
			r.ns[k][item] = append(r.ns[k][item], s...)
		}
	}
	for item, n := range o.instr {
		r.instr = grown(r.instr, item)
		r.instr[item] += n
	}
	r.cycles += o.cycles
	r.failed += o.failed
	if r.failMsg == "" {
		r.failMsg = o.failMsg
	}
}

// bytes is the heap the samples occupy, subtracted from heap_end_mb so a
// faster system (more samples in the same window) does not read as a leak.
func (r *recorder) bytes() uint64 {
	var n uint64
	for k := range r.ns {
		for _, s := range r.ns[k] {
			n += uint64(cap(s)) * 8
		}
	}
	return n
}

func (r *recorder) count(k kind) int {
	n := 0
	for _, s := range r.ns[k] {
		n += len(s)
	}
	return n
}

func (r *recorder) all(k kind) []float64 {
	var out []float64
	for _, s := range r.ns[k] {
		out = append(out, s...)
	}
	return out
}

// gmeanUS is the geometric mean over items of each item's median, in
// microseconds.
func (r *recorder) gmeanUS(k kind) float64 {
	var per []float64
	for _, s := range r.ns[k] {
		if len(s) > 0 {
			per = append(per, median(s))
		}
	}
	return gmean(per) / 1e3
}

func p99(xs []float64) float64 { return percentile(xs, 99) }

func sum[T int64 | float64](xs []T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}

// mips is the simulated instruction rate of one run item: instructions per
// run over the median run time as the caller sees it, in millions a second.
func (r *recorder) mips(item int) float64 {
	ns := r.ns[kRun][item]
	return float64(r.instr[item]) / float64(len(ns)) / median(ns) * 1e3
}

// mipsGmean is the geometric mean of mips over the items that ran. Medians
// per item, not total instructions over total time: a sum of run times is
// at the mercy of its few slowest samples.
func (r *recorder) mipsGmean() float64 {
	var per []float64
	for item, ns := range r.ns[kRun] {
		if len(ns) > 0 {
			per = append(per, r.mips(item))
		}
	}
	return gmean(per)
}

// metric is one reported value; Samples says how many measurements are
// behind it (0 for values that are not statistics of samples).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// endToEnd computes the end-to-end metrics of BENCHMARK.json from the
// samples. It fails when a kind has no samples: every workload must feed
// every metric.
func (r *recorder) endToEnd(setupS float64, setups int, window time.Duration, windowOps int, heapMB float64) (map[string]metric, error) {
	for k := kind(0); k < nKinds; k++ {
		if r.count(k) == 0 {
			return nil, fmt.Errorf("no samples of kind %d: the workload does not feed every metric", k)
		}
	}
	if sum(r.instr) == 0 {
		return nil, errors.New("runs retired no simulated instructions")
	}
	return map[string]metric{
		"setup_s":            {setupS, "s", setups},
		"ops_per_s":          {float64(windowOps) / window.Seconds(), "1/s", windowOps},
		"sim_mips":           {r.mipsGmean(), "Minstr/s", r.count(kRun)},
		"run_us_gmean":       {r.gmeanUS(kRun), "us", r.count(kRun)},
		"run_p99_us":         {p99(r.all(kRun)) / 1e3, "us", r.count(kRun)},
		"offline_us_gmean":   {r.gmeanUS(kOffline), "us", r.count(kOffline)},
		"online_us_gmean":    {r.gmeanUS(kOnline), "us", r.count(kOnline)},
		"warm_deploy_us_p50": {median(r.all(kWarm)) / 1e3, "us", r.count(kWarm)},
		"disk_deploy_us_p50": {median(r.all(kDisk)) / 1e3, "us", r.count(kDisk)},
		"heap_end_mb":        {heapMB, "MB", 0},
	}, nil
}

// env is what a run hands its workload: the seed, the scale of the
// fixed-count parts, and a scratch directory inside the checkout for disk
// caches and journals.
type env struct {
	seed    int64
	scale   float64
	scratch string
	// virtualClock makes time-paced workloads count operations instead of
	// reading the clock; the census sets it.
	virtualClock bool
}

// dir returns the directory of that name under the scratch root, empty of
// files. A name is reused, directory tree and all, every time it is asked
// for: on ext4 the first file created in a new directory costs several
// times a file created in an old one, and by how much depends on what the
// file system did in the minutes before, which is not what a run measures.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.scratch, name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, filepath.WalkDir(d, func(path string, entry fs.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return err
		}
		return os.Remove(path)
	})
}

// scaled shrinks a fixed count for the 1/200-scale test run, never below min.
func (e *env) scaled(n, min int) int {
	if s := int(float64(n)*e.scale + 0.5); s > min {
		return s
	}
	return min
}

// state is one built instance of a workload: programs compiled, engines and
// servers up, deployments made. Building it is what setup_s times.
type state interface {
	// op executes worker w's next operation; the state keeps each worker's
	// position in its seeded operation list. With a tracer it runs the
	// traced variant: the same work through the layers' exported functions,
	// a span around each. Failures are counted on rec, not returned; an
	// error return means the harness itself cannot continue.
	op(w int, rec *recorder, tr *tracer) error
	// cycle is the number of operations after which a worker's list
	// repeats. A window ends on a multiple of it, so that every window of
	// every run holds the same mix: split_compile's largest program takes
	// fifty times its smallest, and a window that stops mid-list reads 2%
	// more or fewer operations a second for where it stopped.
	cycle() int
	// counts returns the counters of the engines and servers behind the
	// state (cache hits, compilations, evictions, ...).
	counts() map[string]float64
	close()
}

// workload is one entry of the catalogue.
type workload struct {
	name    string
	why     string
	workers int
	// build performs one complete set-up. rec receives the compile and
	// deploy samples the set-up itself produces; nil during the first,
	// process-warming set-up.
	build func(e *env, rec *recorder) (state, error)
	// layers is the traced pass's per-layer probe over the workload's own
	// programs (layers.go).
	layers func(e *env, st state, tr *tracer) (*layerReport, error)
}

var catalogue = []*workload{table1Exec, splitCompile, serveRun, serveMixed}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range catalogue {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// setupUntil repeats the set-up until it has run at least minReps times and
// for minTotal in all, and returns the last state with the median set-up
// time. Earlier states are closed. The first repetition warms the process
// (page faults, lazy runtime initialisation) and records no samples.
func setupUntil(w *workload, e *env, rec *recorder, minReps int, minTotal time.Duration) (state, float64, int, error) {
	var times []float64
	var st state
	begin := time.Now()
	for rep := 0; rep < minReps || time.Since(begin) < minTotal; rep++ {
		if st != nil {
			st.close()
		}
		r := rec
		if rep == 0 {
			r = nil
		}
		t0 := time.Now()
		var err error
		if st, err = w.build(e, r); err != nil {
			return nil, 0, 0, fmt.Errorf("set-up %d: %w", rep, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, median(times), len(times), nil
}

// window drives the workload's closed loop for d, and on to the end of each
// worker's current cycle: each worker issues its next operation when the
// previous one completes. It returns one recorder per worker and the
// operations completed.
func window(w *workload, st state, d time.Duration, tr *tracer, record bool) ([]*recorder, int, time.Duration, error) {
	recs := make([]*recorder, w.workers)
	ops := make([]int, w.workers)
	errs := make([]error, w.workers)
	var wg sync.WaitGroup
	cycle := st.cycle()
	start := time.Now()
	deadline := start.Add(d)
	for wk := 0; wk < w.workers; wk++ {
		if record {
			recs[wk] = &recorder{}
		}
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if ops[wk]%cycle == 0 && t0.After(deadline) {
					return
				}
				if err := st.op(wk, recs[wk], tr); err != nil {
					errs[wk] = err
					return
				}
				recs[wk].observe(kOp, 0, time.Since(t0))
				ops[wk]++
			}
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, n := range ops {
		total += n
	}
	return recs, total, elapsed, errors.Join(errs...)
}

// heapMB is the live heap less minus bytes. It collects twice: what a
// sync.Pool holds (net/http's buffers) survives one collection.
func heapMB(minus uint64) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-min(minus, ms.HeapAlloc)) / (1 << 20)
}

// result is one run's result file, and its last line on standard output is
// the contract's subset of it.
type result struct {
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Host     host    `json:"host"`

	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstFail string            `json:"first_failure,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Detail holds what BENCHMARK.json has no room for: per-cell and
	// per-class breakdowns, the serving ladder, mid-window heap.
	Detail map[string]metric `json:"detail,omitempty"`
	// Exact are the counts that must repeat exactly for a given seed and
	// scale; -compare reports any drift in them as an error.
	Exact map[string]float64 `json:"exact,omitempty"`
}

// runUntraced is one end-to-end run: set-up (repeated), warm-up, timed
// window, metrics.
func runUntraced(w *workload, e *env, seconds float64) (*result, error) {
	setupRec := &recorder{}
	st, setupS, setups, err := setupUntil(w, e, setupRec, e.scaled(5, 2), time.Duration(e.scale*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	defer st.close()

	total := time.Duration(seconds * float64(time.Second))
	if _, _, _, err := window(w, st, total/10, nil, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// The timed window runs as two halves with a forced collection between
	// them: heap_mid_mb against heap_end_mb is the bounded-state check.
	rec := &recorder{}
	var ops int
	var elapsed time.Duration
	var heapMid float64
	for half := 0; half < 2; half++ {
		recs, n, d, err := window(w, st, total/2, nil, true)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			rec.merge(r)
		}
		ops += n
		elapsed += d
		if half == 0 {
			heapMid = heapMB(rec.bytes())
		}
	}
	heapEnd := heapMB(rec.bytes())
	if l, ok := st.(interface{ lap(*recorder) error }); ok {
		for t0 := time.Now(); time.Since(t0) < total/10; {
			if err := l.lap(rec); err != nil {
				return nil, fmt.Errorf("lap: %w", err)
			}
		}
	}
	// A kind the window and the laps did not produce is taken from the
	// set-ups. Never from both: admissions into an idle fleet and into a
	// loaded one are two populations, and the median of their mixture jumps
	// from one to the other with the number of set-ups that fitted.
	for k := range rec.ns {
		if rec.count(kind(k)) == 0 {
			rec.ns[k] = setupRec.ns[k]
		}
	}
	rec.failed += setupRec.failed
	if rec.failMsg == "" {
		rec.failMsg = setupRec.failMsg
	}

	metrics, err := rec.endToEnd(setupS, setups, elapsed, ops, heapEnd)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: e.seed, Seconds: seconds, Host: fingerprint(),
		Correct: rec.failed == 0, Attempted: ops, Failed: rec.failed, FirstFail: rec.failMsg,
		Metrics: metrics,
		Detail: map[string]metric{
			"heap_mid_mb":   {heapMid, "MB", 0},
			"op_p50_us":     {median(rec.all(kOp)) / 1e3, "us", rec.count(kOp)},
			"op_p99_us":     {p99(rec.all(kOp)) / 1e3, "us", rec.count(kOp)},
			"fail_share":    {float64(rec.failed) / float64(max(ops, 1)), "ratio", ops},
			"sim_cycles_pi": {float64(rec.cycles) / float64(sum(rec.instr)), "cyc/instr", 0},
		},
	}
	// Workloads whose run items have names (Table 1's cells) get a row each.
	if named, ok := st.(interface{ runItems() []string }); ok {
		for i, name := range named.runItems() {
			n := len(rec.ns[kRun][i])
			res.Detail["run_us_p50."+name] = metric{median(rec.ns[kRun][i]) / 1e3, "us", n}
			res.Detail["sim_mips."+name] = metric{rec.mips(i), "Minstr/s", n}
		}
	}
	return res, nil
}

// write stores the result file and prints the report: every metric by name
// with its unit, then the contract's JSON object as the last line.
func (res *result) write(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	suffix := ""
	if res.Trace {
		suffix = ".trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s.seed%d%s.json", res.Workload, res.Seed, suffix))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d trace %t: %d operations, %d failed (%s)\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, path)
	if res.FirstFail != "" {
		fmt.Printf("first failure: %s\n", res.FirstFail)
	}
	printMetrics("", res.Metrics)
	printMetrics("  detail ", res.Detail)
	for _, name := range sortedKeys(res.Exact) {
		fmt.Printf("  exact  %-36s %v\n", name, res.Exact[name])
	}

	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]contractMetric{}}
	for name, m := range res.Metrics {
		last.Metrics[name] = contractMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(prefix string, ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		m := ms[name]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (%d samples)", m.Samples)
		}
		fmt.Printf("%s%-36s %14.4f %-10s%s\n", prefix, name, m.Value, m.Unit, samples)
	}
}
