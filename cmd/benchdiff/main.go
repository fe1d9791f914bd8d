// Command benchdiff is the performance-regression gate: it compares the
// BENCH_results.json artifact of a fresh cmd/dacbench run against a
// committed baseline and exits non-zero when any cycle count, JIT effort,
// spill weight or code size regressed beyond tolerance — or when an
// experiment silently disappeared from the run.
//
// The simulated targets are deterministic, so the gate can be tight: the
// default tolerance is 2% relative plus a small absolute allowance for tiny
// metrics. After an intentional change in performance, refresh the baseline
// (-update) and commit it with the change that explains it.
//
// Usage:
//
//	benchdiff [-baseline BENCH_baseline.json] [-current BENCH_results.json]
//	          [-rel 0.02] [-abs 2] [-all] [-update]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline artifact")
	currentPath := flag.String("current", "BENCH_results.json", "artifact of the run under test")
	rel := flag.Float64("rel", 0.02, "relative tolerance (fractional increase allowed per metric)")
	abs := flag.Float64("abs", 2, "absolute tolerance added on top (for tiny metrics)")
	all := flag.Bool("all", false, "print every metric, not only the notable ones")
	update := flag.Bool("update", false, "overwrite the baseline with the current artifact and exit")
	flag.Parse()

	current, err := os.ReadFile(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v (run cmd/dacbench first)\n", err)
		os.Exit(2)
	}
	if *update {
		// The baseline only gates the deterministic simulated metrics, so
		// strip every non-gated section generically (annotation trajectory,
		// sections of older artifacts, whatever is added next): committing
		// tracked-only numbers would be meaningless churn on every refresh.
		data, err := bench.StripUngated(current)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: baseline %s refreshed from %s (non-gated sections excluded)\n", *baselinePath, *currentPath)
		return
	}
	baseline, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v (generate one with -update)\n", err)
		os.Exit(2)
	}

	base, err := bench.ParseResults(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := bench.ParseResults(current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
		os.Exit(2)
	}

	rep := bench.Compare(base, cur, bench.DiffOptions{RelTol: *rel, AbsTol: *abs})
	if *all {
		for _, row := range rep.Rows {
			fmt.Printf("%-11s %-46s %12.0f %12.0f %+7.1f%%\n",
				row.Status, row.Name, row.Baseline, row.Current, 100*row.Delta)
		}
	}
	fmt.Print(rep)
	if rep.Failed() {
		fmt.Fprintln(os.Stderr, "benchdiff: FAIL — performance regressed against the committed baseline")
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}
