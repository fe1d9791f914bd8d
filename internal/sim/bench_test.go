// Host-throughput benchmarks of the simulator's dispatch loop. Unlike the
// repository-root benchmarks (which report deterministic simulated cycles),
// these measure real wall-clock time of the host running the interpreter, so
// `go test -bench . -benchmem ./internal/sim` + benchstat track how fast the
// simulator itself is. The steady-state loop is expected to run with zero
// allocations per call.
package sim_test

import (
	"testing"

	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/nisa"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/vm"
)

// sumProgram is a hand-written scalar loop (no JIT) summing an i32 array:
// the smallest possible steady-state workload for the dispatch loop.
func sumProgram() *nisa.Program {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: int32(i)} }
	f := &nisa.Func{
		Name:   "sum",
		Params: []cil.Type{cil.Array(cil.I32), cil.Scalar(cil.I32)},
		Ret:    cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(0), Imm: 0},
			{Op: nisa.GetArg, Kind: cil.I32, Rd: r(1), Imm: 1},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(2)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(3)},
			{Op: nisa.BranchCmp, Kind: cil.I32, Cond: nisa.CondGe, Ra: r(3), Rb: r(1), Target: 10},
			{Op: nisa.Load, Kind: cil.I32, Rd: r(4), Ra: r(0), Rb: r(3)},
			{Op: nisa.Add, Kind: cil.I32, Rd: r(2), Ra: r(2), Rb: r(4)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(5), Imm: 1},
			{Op: nisa.Add, Kind: cil.I32, Rd: r(3), Ra: r(3), Rb: r(5)},
			{Op: nisa.Jump, Target: 4},
			{Op: nisa.Ret, Kind: cil.I32, Ra: r(2)},
		},
	}
	p := nisa.NewProgram("hand")
	p.Add(f)
	return p
}

// BenchmarkDispatchScalarLoop measures the raw scalar dispatch loop on a
// hand-written program: 6 instructions per element, no calls, no vector
// unit. The interesting -benchmem number is allocs/op, which must be 0 in
// steady state.
func BenchmarkDispatchScalarLoop(b *testing.B) {
	const n = 4096
	m := sim.New(target.MustLookup(target.PPC), sumProgram())
	arr := vm.NewArray(cil.I32, n)
	for i := 0; i < n; i++ {
		arr.SetInt(i, int64(i))
	}
	addr := m.CopyInArray(arr)
	args := []sim.Value{sim.IntArg(int64(addr)), sim.IntArg(n)}
	// One warm-up call so one-time per-function work is off the clock.
	if _, err := m.Call("sum", args...); err != nil {
		b.Fatal(err)
	}
	m.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call("sum", args...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHostThroughput(b, m)
}

// BenchmarkDispatchScalarLoopTiered is the tiered twin of
// BenchmarkDispatchScalarLoop: profiling on, function promoted to tier 2
// during warm-up, so benchstat comparisons against the plain benchmark
// show what the profile counters cost and what superinstruction fusion
// buys on the host. Simulated cycles are identical by construction.
func BenchmarkDispatchScalarLoopTiered(b *testing.B) {
	const n = 4096
	m := sim.New(target.MustLookup(target.PPC), sumProgram())
	m.EnableTiering(profile.Policy{PromoteCalls: 2})
	arr := vm.NewArray(cil.I32, n)
	for i := 0; i < n; i++ {
		arr.SetInt(i, int64(i))
	}
	addr := m.CopyInArray(arr)
	args := []sim.Value{sim.IntArg(int64(addr)), sim.IntArg(n)}
	for call := 0; call < 3; call++ { // warm up past promotion
		if _, err := m.Call("sum", args...); err != nil {
			b.Fatal(err)
		}
	}
	if m.TierStats().Promotions == 0 {
		b.Fatal("warm-up did not promote")
	}
	m.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call("sum", args...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHostThroughput(b, m)
}

// BenchmarkKernelDispatch deploys each Table 1 kernel (vectorized bytecode,
// split register allocation) on each Table 1 target and times repeated
// executions of the entry point over in-place inputs. This is the wall-clock
// twin of the simulated-cycle numbers the root benchmarks report.
func BenchmarkKernelDispatch(b *testing.B) {
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
			// Marshal the inputs once; the kernels in Table 1 execute the
			// same instruction sequence regardless of array contents, so
			// re-running over the same memory is a faithful steady state.
			args, _ := core.MarshalKernelArgs(dep.Machine, in)
			b.Run(name+"/"+string(tgt.Arch), func(b *testing.B) {
				m := dep.Machine
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
				reportHostThroughput(b, m)
			})
		}
	}
}

// reportHostThroughput derives simulated-instructions-per-host-second from
// the machine's instruction counter and the benchmark's elapsed time.
func reportHostThroughput(b *testing.B, m *sim.Machine) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(m.Stats.Instructions)/sec/1e6, "sim_MIPS")
	}
}
