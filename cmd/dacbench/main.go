// Command dacbench regenerates the evaluation artifacts of the paper: Table 1
// (split automatic vectorization), Figure 1 (the split compilation flow,
// quantified), the split register allocation claim, the bytecode compactness
// claim and the Section 3 heterogeneous offload scenario.
//
// Besides the human-readable tables it writes the reports of the experiments
// it ran to a machine-readable JSON file (per-kernel cycles and speedups,
// code sizes, spill counts), so successive runs can be tracked as a
// performance trajectory. Every number it reports is a deterministic
// simulated count; the anno experiment's annotation sizes are tracked in
// the artifact but never gated by cmd/benchdiff. Wall-clock claims come
// from the repository benchmark (benchmark/run.sh), not from this command.
//
// Usage:
//
//	dacbench -exp table1|figure1|regalloc|codesize|hetero|anno|all [-n 4096] [-frames 8]
//	         [-compile-workers 0]
//	         [-json BENCH_results.json] [-cpuprofile cpu.prof] [-memprofile mem.prof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, figure1, regalloc, codesize, hetero, anno or all")
	n := flag.Int("n", 4096, "elements per kernel invocation (table1)")
	frames := flag.Int("frames", 8, "frames for the heterogeneous scenario")
	compileWorkers := flag.Int("compile-workers", 0, "pin the JIT worker pool for every compilation in this run (0 = sized by each module, up to GOMAXPROCS); equivalent to SPLITVM_COMPILE_WORKERS")
	jsonPath := flag.String("json", "BENCH_results.json", "write the reports of the executed experiments to this JSON file (empty to skip)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	flag.Parse()

	// The worker-pool pin must be in place before the first JIT call reads
	// it (the jit package resolves the override once). CI uses this to
	// prove the gated metrics are identical under sequential and parallel
	// compilation.
	if *compileWorkers > 0 {
		os.Setenv("SPLITVM_COMPILE_WORKERS", strconv.Itoa(*compileWorkers))
	}

	// fail flushes the CPU profile before exiting: os.Exit skips deferred
	// calls, and a truncated profile of a failing run would be useless
	// exactly when it is wanted most.
	var profileOut *os.File
	fail := func(format string, args ...any) {
		if profileOut != nil {
			pprof.StopCPUProfile()
			profileOut.Close()
		}
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("dacbench: %v\n", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail("dacbench: %v\n", err)
		}
		profileOut = f
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The artifact schema is shared with cmd/benchdiff (bench.Results), so
	// successive runs can be gated against a committed baseline.
	var res bench.Results
	run := func(name string) error {
		switch name {
		case "table1":
			r, err := bench.RunTable1(bench.Table1Options{N: *n})
			if err != nil {
				return err
			}
			res.Table1 = r
			fmt.Println(r)
		case "figure1":
			r, err := bench.RunFigure1()
			if err != nil {
				return err
			}
			res.Figure1 = r
			fmt.Println(r)
		case "regalloc":
			r, err := bench.RunRegAlloc(bench.RegAllocOptions{})
			if err != nil {
				return err
			}
			res.RegAlloc = r
			fmt.Println(r)
		case "codesize":
			r, err := bench.RunCodeSize()
			if err != nil {
				return err
			}
			res.CodeSize = r
			fmt.Println(r)
		case "hetero":
			r, err := bench.RunHetero(bench.HeteroOptions{Frames: *frames})
			if err != nil {
				return err
			}
			res.Hetero = r
			fmt.Println(r)
		case "anno":
			r, err := bench.RunAnno()
			if err != nil {
				return err
			}
			res.Anno = r
			fmt.Println(r)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	experiments := []string{*exp}
	if *exp == "all" {
		experiments = []string{"table1", "figure1", "regalloc", "codesize", "hetero", "anno"}
	}
	for _, e := range experiments {
		if err := run(e); err != nil {
			fail("dacbench: %s: %v\n", e, err)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail("dacbench: %v\n", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("dacbench: %v\n", err)
		}
		fmt.Printf("dacbench: wrote heap profile to %s\n", *memProfile)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			fail("dacbench: %v\n", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fail("dacbench: %v\n", err)
		}
		fmt.Printf("dacbench: wrote %s\n", *jsonPath)
	}
}
