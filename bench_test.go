// Package repro's top-level benchmarks regenerate every evaluation artifact
// of the paper. Each benchmark wraps one experiment of internal/bench and
// reports the headline numbers as custom metrics, so that
//
//	go test -bench=. -benchmem
//
// reproduces Table 1, the quantified Figure 1, the split register allocation
// claim, the code-compactness claim and the Section 3 heterogeneous offload
// scenario in one run. Absolute values are cycles of the simulated targets,
// not wall-clock time of the host running the benchmarks.
package main

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/target"
)

// BenchmarkTable1 reproduces Table 1: run times and speedups of split
// automatic vectorization on the three simulated targets.
func BenchmarkTable1(b *testing.B) {
	var report *bench.Table1Report
	for i := 0; i < b.N; i++ {
		r, err := bench.RunTable1(bench.Table1Options{N: 4096})
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.Log("\n" + report.String())
	for _, row := range report.Rows {
		for _, cell := range row.Cells {
			b.ReportMetric(cell.Relative, row.Kernel+"_"+string(cell.Target)+"_speedup")
		}
	}
}

// BenchmarkTable1Kernels times each (kernel, target, scalar|vectorized)
// combination separately so per-cell cycle counts appear as individual
// benchmark results.
func BenchmarkTable1Kernels(b *testing.B) {
	report, err := bench.RunTable1(bench.Table1Options{N: 4096})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range report.Rows {
		for _, cell := range row.Cells {
			cell := cell
			b.Run(row.Kernel+"/"+string(cell.Target), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = cell
				}
				b.ReportMetric(float64(cell.ScalarCycles), "scalar_cycles")
				b.ReportMetric(float64(cell.VectorCycles), "vector_cycles")
				b.ReportMetric(cell.Relative, "speedup")
			})
		}
	}
}

// BenchmarkFigure1 quantifies the split compilation flow of Figure 1:
// offline analysis effort, annotation bytes, and online JIT effort with and
// without the annotations.
func BenchmarkFigure1(b *testing.B) {
	var report *bench.Figure1Report
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.Log("\n" + report.String())
	var withAnn, withoutAnn, annBytes float64
	for _, row := range report.Rows {
		withAnn += float64(row.JITStepsWithAnnotations)
		withoutAnn += float64(row.JITStepsWithoutAnnotations)
		annBytes += float64(row.AnnotationBytes)
	}
	b.ReportMetric(withAnn, "jit_steps_with_annotations")
	b.ReportMetric(withoutAnn, "jit_steps_without_annotations")
	b.ReportMetric(annBytes, "annotation_bytes")
}

// BenchmarkSplitRegAlloc reproduces the Section 4 split register allocation
// claim: spill reduction of the annotation-driven allocator versus the
// purely online baseline, across embedded register file sizes.
func BenchmarkSplitRegAlloc(b *testing.B) {
	var report *bench.RegAllocReport
	for i := 0; i < b.N; i++ {
		r, err := bench.RunRegAlloc(bench.RegAllocOptions{})
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.Log("\n" + report.String())
	b.ReportMetric(report.MaxSavings*100, "max_spill_savings_%")
	for _, p := range report.Points {
		b.ReportMetric(p.SavingsVsOnline*100, "savings_%_at_"+itoa(p.IntRegs)+"regs")
	}
}

// BenchmarkCodeSize reproduces the Section 2.1 compactness claim: deployable
// bytecode size versus JIT-generated native code size.
func BenchmarkCodeSize(b *testing.B) {
	var report *bench.CodeSizeReport
	for i := 0; i < b.N; i++ {
		r, err := bench.RunCodeSize()
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.Log("\n" + report.String())
	b.ReportMetric(report.AverageExpansion, "native_vs_bytecode_ratio")
}

// BenchmarkHeterogeneous reproduces the Section 3 scenario: the same
// deployable module on a Cell-like system, host-only versus
// annotation-guided offload of the numerical kernels.
func BenchmarkHeterogeneous(b *testing.B) {
	var report *bench.HeteroReport
	for i := 0; i < b.N; i++ {
		r, err := bench.RunHetero(bench.HeteroOptions{Frames: 4, Samples: 1024})
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.Log("\n" + report.String())
	b.ReportMetric(report.Speedup, "offload_speedup")
	b.ReportMetric(float64(report.HostOnlyCycles), "host_only_cycles")
	b.ReportMetric(float64(report.OffloadedCycles), "offloaded_cycles")
}

// BenchmarkAblationVectorizedOnScalarJIT measures the ablation the paper
// highlights in Table 1's UltraSparc/PowerPC columns: the SIMD-capable
// target forced to ignore the vector builtins (scalarization), versus using
// its vector unit.
func BenchmarkAblationVectorizedOnScalarJIT(b *testing.B) {
	speedup, err := bench.ScalarizationAblation("max_u8", 4096)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = speedup
	}
	b.ReportMetric(speedup, "simd_vs_forced_scalarization")
	if speedup <= 1 {
		b.Errorf("SIMD lowering should beat forced scalarization on %s", target.X86SSE)
	}
}

// BenchmarkHostDispatch is the wall-clock twin of the simulated-cycle
// benchmarks above: it times real host nanoseconds of the simulator's
// pre-decoded dispatch loop running each Table 1 kernel (vectorized
// bytecode) on each Table 1 target, with -benchmem showing the loop's zero
// steady-state allocations. Unlike every other benchmark in this file the
// numbers are host-dependent; compare runs with benchstat. End-to-end
// wall-clock claims come from the repository benchmark (benchmark/run.sh).
func BenchmarkHostDispatch(b *testing.B) {
	const n = 4096
	for _, name := range kernels.Table1Names {
		res, k, err := core.CompileKernel(name, core.OfflineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, tgt := range target.Table1() {
			dep, err := core.Deploy(res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
			if err != nil {
				b.Fatal(err)
			}
			in, err := kernels.NewInputs(name, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			m := dep.Machine
			args, _ := core.MarshalKernelArgs(m, in)
			b.Run(name+"/"+string(tgt.Arch), func(b *testing.B) {
				if _, err := m.Call(k.Entry, args...); err != nil {
					b.Fatal(err)
				}
				m.ResetStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Call(k.Entry, args...); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(m.Stats.Instructions)/sec/1e6, "sim_MIPS")
				}
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
