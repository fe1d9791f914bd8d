// Command benchmark is the repository's performance benchmark: four
// long-running workloads over the split-compilation stack, driven strictly
// from outside through exported functions. BENCHMARK.json at the repository
// root names its workloads and metrics; README.md in this directory says
// why each exists and how they interact.
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go run ./benchmark -check [--workload <name>] [--seed <n>]
//	go run ./benchmark -compare <base> <new>
//
// A run prints every metric by name with its unit and, as the last line,
// the JSON object BENCHMARK.json's contract asks for.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: table1_exec, split_compile, serve_run or serve_mixed")
	seed := flag.Int64("seed", 1, "seed of the generated inputs; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for result files, traces and scratch state")
	check := flag.Bool("check", false, "determinism self-check: program-set hashes and exact counts must repeat")
	compare := flag.Bool("compare", false, "compare two sets of result files: -compare <base> <new> (files or directories)")
	flag.Parse()

	// pkg/splitvm takes defaults (lazy JIT, memory limit, disk cache, tiering,
	// compile workers, fault injection) from SPLITVM_* variables; a run with
	// one set would measure another configuration under the same names.
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "SPLITVM_") {
			fmt.Fprintf(os.Stderr, "benchmark: unset %s: the benchmark measures the defaults\n", kv)
			os.Exit(2)
		}
	}
	if err := run(*name, *seed, *seconds, *trace != 0, *out, *check, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, out string, check, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two arguments, the base and the new result files or directories")
		}
		return compareResults(os.Stdout, args[0], args[1])
	}
	e, cleanup, err := newEnv(seed, 1, out)
	if err != nil {
		return err
	}
	defer cleanup()
	if check {
		return selfCheck(os.Stdout, e, name)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var res *result
	if trace {
		res, err = runTraced(w, e, seconds, out)
	} else {
		res, err = runUntraced(w, e, seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return res.write(out)
}

// newEnv makes the run's scratch directory under out; cleanup removes it.
func newEnv(seed int64, scale float64, out string) (*env, func(), error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return nil, nil, err
	}
	return &env{seed: seed, scale: scale, scratch: scratch}, func() { os.RemoveAll(scratch) }, nil
}

// runTraced is the traced pass: alternating untraced and traced stretches of
// window on one state (their means give the tracing overhead), the per-layer
// probes, and a census — a fixed operation list on a fresh state — for the
// counts that must repeat exactly.
func runTraced(w *workload, e *env, seconds float64, out string) (*result, error) {
	st, _, _, err := setupUntil(w, e, nil, 1, 0)
	if err != nil {
		return nil, err
	}
	defer st.close()
	total := time.Duration(seconds * float64(time.Second))
	if _, _, _, err := window(w, st, total/10, nil, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Untraced and traced stretches alternate, so that whatever drifts
	// during the pass (the heap, the host) reaches both alike. Each leg's mean
	// operation time, not its median: operations differ too much in size (a
	// 64-method module beside a 1-method one) for medians of two different
	// stretches of the list to be compared.
	tr := newTracer()
	legs := [2]struct {
		rec     *recorder
		tr      *tracer
		ops     int
		elapsed time.Duration
	}{{rec: &recorder{}}, {rec: &recorder{}, tr: tr}}
	const stretches = 6
	for i := 0; i < stretches; i++ {
		leg := &legs[i%2]
		recs, n, elapsed, err := window(w, st, total*3/4/stretches, leg.tr, true)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			leg.rec.merge(r)
		}
		leg.ops += n
		leg.elapsed += elapsed
	}
	var meanOp [2]float64
	for i, leg := range legs {
		if leg.ops == 0 {
			return nil, fmt.Errorf("window of %v is too short for one operation", total)
		}
		meanOp[i] = leg.elapsed.Seconds() * 1e6 * float64(w.workers) / float64(leg.ops)
	}
	plain, traced, ops := legs[0].rec, legs[1].rec, legs[0].ops+legs[1].ops
	loose := st.counts()
	rep, err := w.layers(e, st, tr)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	exact, cst, nCensus, censusFailed, err := census(w, e)
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	cst.close()

	for name, v := range exact {
		rep.exact[name] = v
	}
	metrics := rep.metrics
	sh := shares(tr.selfTimes(), rep.split)
	for _, g := range shareGroups {
		metrics["share."+g.group+"_pct"] = metric{sh[g.group], "%", 0}
	}
	metrics["bench.generator_cpu_share"] = metric{sh["bench"], "%", 0}
	metrics["bench.trace_overhead_pct"] = metric{100 * (meanOp[1] - meanOp[0]) / meanOp[0], "%", traced.count(kOp)}
	for _, name := range exactCountNames {
		metrics[name] = metric{rep.exact[name], countUnit(name), 0}
	}
	for _, name := range looseCountNames {
		metrics[name] = metric{loose[name], countUnit(name), 0}
	}

	if err := tr.writeJSONL(filepath.Join(out, w.name+".trace.jsonl")); err != nil {
		return nil, err
	}
	failed := plain.failed + traced.failed + censusFailed
	firstFail := plain.failMsg
	if firstFail == "" {
		firstFail = traced.failMsg
	}
	rep.detail["op_mean_us.untraced"] = metric{meanOp[0], "us", plain.count(kOp)}
	rep.detail["op_mean_us.traced"] = metric{meanOp[1], "us", traced.count(kOp)}
	rep.detail["spans"] = metric{float64(len(tr.spans)), "count", 0}
	return &result{
		Workload: w.name, Trace: true, Seed: e.seed, Seconds: seconds, Host: fingerprint(),
		Correct: failed == 0, Attempted: ops + nCensus, Failed: failed, FirstFail: firstFail,
		Metrics: metrics, Detail: rep.detail, Exact: rep.exact,
	}, nil
}

// censusOps is the length of the census's operation list per workload: one
// full cycle of the in-process workloads' lists, a few hundred requests of
// the serving ones'.
var censusOps = map[string]int{"table1_exec": 18, "split_compile": 96, "serve_run": 512, "serve_mixed": 512}

// census builds a fresh state, runs a fixed number of worker 0's
// operations and returns every count that must not depend on timing, with
// the state (the caller closes it), the operations run and how many failed.
func census(w *workload, e *env) (map[string]float64, state, int, int, error) {
	// Its own scratch root: the traced pass's state is still alive and owns
	// the directories of the same names under e's.
	ce := *e
	ce.scratch = filepath.Join(e.scratch, "census")
	ce.virtualClock = true
	e = &ce
	st, err := w.build(e, nil)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	n := e.scaled(censusOps[w.name], 4)
	rec := &recorder{}
	for i := 0; i < n; i++ {
		if err := st.op(0, rec, nil); err != nil {
			st.close()
			return nil, nil, 0, 0, err
		}
	}
	counts := st.counts()
	out := map[string]float64{"sim.instr_total": float64(sum(rec.instr)), "sim.cycles_total": float64(rec.cycles)}
	for _, name := range exactCountNames {
		if v, ok := counts[name]; ok {
			out[name] = v
		}
	}
	return out, st, n, rec.failed, nil
}
