// Command dacbench regenerates the evaluation artifacts of the paper: Table 1
// (split automatic vectorization), Figure 1 (the split compilation flow,
// quantified), the split register allocation claim, the bytecode compactness
// claim and the Section 3 heterogeneous offload scenario.
//
// Besides the human-readable tables it writes the reports of the experiments
// it ran to a machine-readable JSON file (per-kernel cycles and speedups,
// code sizes, spill counts), so successive runs can be tracked as a
// performance trajectory.
//
// Besides the deterministic simulated metrics, the host experiment records
// how fast the simulator itself runs on this host (ns/run, allocs/run,
// simulated instructions per host-second) and the compile experiment records
// how fast the online JIT runs (ns/compile, allocs/compile, methods/sec,
// parallel-pipeline speedup) and the tier experiment records the tiered
// execution trajectory (promotion latency cold versus profile-warmed,
// tier-2 host speedup, fused superinstruction pairs, profile sizes); those
// numbers are tracked in the artifact but never gated by cmd/benchdiff.
//
// Usage:
//
//	dacbench -exp table1|figure1|regalloc|codesize|hetero|host|anno|compile|tier|all [-n 4096] [-frames 8]
//	         [-compileruns 24] [-compile-workers 0]
//	         [-json BENCH_results.json] [-cpuprofile cpu.prof] [-memprofile mem.prof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/pkg/splitvm"
	"repro/pkg/splitvm/server"
)

// serveHarness wires the svd HTTP servers into the serve experiment. The
// bench package cannot import pkg/splitvm/server (it sits below pkg/splitvm
// in the import graph), so this command supplies the constructors.
func serveHarness() *splitvm.ServeHarness {
	return &splitvm.ServeHarness{
		NewBackend: func(cacheDir, journalPath string) (http.Handler, func()) {
			opts := []splitvm.Option{}
			if cacheDir != "" {
				opts = append(opts, splitvm.WithDiskCache(cacheDir))
			}
			srv := server.New(splitvm.New(opts...), server.Config{JournalPath: journalPath})
			return srv, srv.Close
		},
		NewRouter: func(backends []string) (http.Handler, func(), error) {
			rt, err := server.NewRouter(server.RouterConfig{Backends: backends})
			if err != nil {
				return nil, nil, err
			}
			return rt, rt.Close, nil
		},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, figure1, regalloc, codesize, hetero, host, anno, compile, tier, serve or all")
	n := flag.Int("n", 4096, "elements per kernel invocation (table1, host)")
	frames := flag.Int("frames", 8, "frames for the heterogeneous scenario")
	hostRuns := flag.Int("hostruns", 16, "timed executions per cell of the host-throughput experiment")
	compileRuns := flag.Int("compileruns", 24, "timed compilations per cell of the compile-throughput experiment")
	serveRuns := flag.Int("serveruns", 48, "timed requests per latency distribution of the serve experiment")
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

	// The artifact schema is shared with cmd/benchdiff (splitvm.Results), so
	// successive runs can be gated against a committed baseline.
	var res splitvm.Results
	run := func(name string) error {
		switch name {
		case "table1":
			r, err := splitvm.RunTable1(splitvm.Table1Options{N: *n})
			if err != nil {
				return err
			}
			res.Table1 = r
			fmt.Println(r)
		case "figure1":
			r, err := splitvm.RunFigure1()
			if err != nil {
				return err
			}
			res.Figure1 = r
			fmt.Println(r)
		case "regalloc":
			r, err := splitvm.RunRegAlloc(splitvm.RegAllocOptions{})
			if err != nil {
				return err
			}
			res.RegAlloc = r
			fmt.Println(r)
		case "codesize":
			r, err := splitvm.RunCodeSize()
			if err != nil {
				return err
			}
			res.CodeSize = r
			fmt.Println(r)
		case "hetero":
			r, err := splitvm.RunHetero(splitvm.HeteroOptions{Frames: *frames})
			if err != nil {
				return err
			}
			res.Hetero = r
			fmt.Println(r)
		case "host":
			r, err := splitvm.RunHost(splitvm.HostOptions{N: *n, Runs: *hostRuns})
			if err != nil {
				return err
			}
			res.Host = r
			fmt.Println(r)
		case "anno":
			r, err := splitvm.RunAnno()
			if err != nil {
				return err
			}
			res.Anno = r
			fmt.Println(r)
		case "compile":
			r, err := splitvm.RunCompile(splitvm.CompileOptions{Runs: *compileRuns})
			if err != nil {
				return err
			}
			res.Compile = r
			fmt.Println(r)
		case "tier":
			r, err := splitvm.RunTier(splitvm.TierBenchOptions{N: *n, Runs: *hostRuns})
			if err != nil {
				return err
			}
			res.Tier = r
			fmt.Println(r)
		case "serve":
			r, err := splitvm.RunServe(splitvm.ServeOptions{Runs: *serveRuns, Harness: serveHarness()})
			if err != nil {
				return err
			}
			res.Serve = r
			fmt.Println(r)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	experiments := []string{*exp}
	if *exp == "all" {
		experiments = []string{"table1", "figure1", "regalloc", "codesize", "hetero", "host", "anno", "compile", "tier", "serve"}
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
