// Package jit implements the online half of the split compiler: the
// target-specific just-in-time compiler that translates portable bytecode
// into native code for one simulated target.
//
// The two split optimizations of the paper meet here:
//
//   - Vectorization: the portable vector builtins emitted by the offline
//     compiler are mapped one-to-one onto the target's SIMD unit when it has
//     one, and scalarized into unrolled per-lane scalar code otherwise. The
//     JIT never re-runs the dependence analysis — the offline step already
//     proved safety and said so in the bytecode (and its annotation).
//
//   - Register allocation: the annotation produced by the offline allocator
//     (internal/regalloc) orders variables by spill priority, so the online
//     assignment is a single linear pass; without the annotation the JIT
//     falls back to its plain linear-scan allocator (the baseline of the
//     split register allocation experiment).
package jit

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/target"
)

// RegAllocMode selects the register allocation strategy of the JIT.
type RegAllocMode int

// Register allocation modes.
const (
	// RegAllocOnline is the baseline purely-online allocator: linear scan
	// in interval-start order with the classic furthest-end spill
	// heuristic, no profitability weights.
	RegAllocOnline RegAllocMode = iota
	// RegAllocSplit consumes the split register allocation annotation: the
	// offline step ordered named variables by spill priority; the online
	// step assigns registers in that order in linear time. Without an
	// annotation it silently degrades to RegAllocOnline.
	RegAllocSplit
	// RegAllocOptimal recomputes full weights from the native code and
	// allocates by decreasing weight with exact interference information.
	// It stands in for an "offline optimal" allocation and serves as the
	// quality reference in the experiments (it is too slow for a real JIT).
	RegAllocOptimal
)

func (m RegAllocMode) String() string {
	switch m {
	case RegAllocOnline:
		return "online"
	case RegAllocSplit:
		return "split"
	case RegAllocOptimal:
		return "optimal"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configures a Compiler.
type Options struct {
	// RegAlloc selects the register allocation strategy.
	RegAlloc RegAllocMode
	// ForceScalarize makes the JIT ignore the target's SIMD unit and
	// scalarize every vector builtin (ablation: "the JIT simply ignores the
	// vectorization").
	ForceScalarize bool
	// MinAnnotationVersion rejects annotation sections older than this
	// schema version during load-time negotiation: they fall back to
	// online-only compilation like any section the reader cannot
	// understand. Zero (the default) accepts everything, including the
	// grandfathered v0 streams.
	MinAnnotationVersion uint32
	// CompileWorkers bounds the number of methods CompileModuleReport
	// compiles concurrently. Zero (the default) sizes the pool by the
	// module (see compileWorkers); negative or 1 compiles sequentially. The
	// generated program is bit-identical regardless of the worker count —
	// parallelism only changes wall-clock time, never code (see
	// TestCompileDeterministicAcrossWorkers).
	CompileWorkers int
}

// Compiler is a JIT compiler instance for one target.
type Compiler struct {
	Target *target.Desc
	Opts   Options
}

// New returns a JIT compiler for the given target.
func New(t *target.Desc, opts Options) *Compiler {
	return &Compiler{Target: t, Opts: opts}
}

// useSIMD reports whether vector builtins are mapped to the vector unit.
func (c *Compiler) useSIMD() bool { return c.Target.HasSIMD && !c.Opts.ForceScalarize }

// Report summarizes the load-time annotation negotiation of one module
// compilation: the per-method outcome of every annotation that was present,
// and how many of them fell back to online-only compilation because the
// reader could not (or was configured not to) consume them.
type Report struct {
	Outcomes []anno.MethodOutcome
	// Fallbacks counts annotation sections that were present but degraded
	// to online-only compilation. The compilation itself never fails on
	// them: annotations are advisory.
	Fallbacks int
}

// CompileModule compiles every method of a verified module into a native
// program for the compiler's target.
func (c *Compiler) CompileModule(mod *cil.Module) (*nisa.Program, error) {
	prog, _, err := c.CompileModuleReport(mod)
	return prog, err
}

// envCompileWorkers is the SPLITVM_COMPILE_WORKERS override, read once: it
// lets a whole process (CI proving workers=1 vs workers=N equivalence, a
// benchmark sweep) pin the worker pool without threading an option through
// every caller. Options.CompileWorkers still wins when set.
var envCompileWorkers = sync.OnceValue(func() int {
	n, err := strconv.Atoi(os.Getenv("SPLITVM_COMPILE_WORKERS"))
	if err != nil || n < 1 {
		return 0
	}
	return n
})

// minInstrsPerWorker is the least bytecode a compile worker must have to
// itself before the default pool fans out. Measured on the 2-CPU benchmark
// host with the repository benchmark's generated modules: 16 methods (~600
// instructions) compile in 75 us on the calling goroutine and 72-80 us on two
// workers when warm, and inside the benchmark's Load + cold Deploy in 110 us
// against 137 us, the pool's start-up (~12 us) and its cold scratch states
// included; 64 methods (~2600 instructions) take 476 us sequentially and
// 312 us on two workers there. The break-even lies between 300 and 1300
// instructions a worker.
const minInstrsPerWorker = 512

// compileWorkers resolves the worker count for mod. A count somebody pinned
// (Options.CompileWorkers, else SPLITVM_COMPILE_WORKERS) is used as given;
// otherwise the pool is sized by the work: as many workers as GOMAXPROCS
// allows and minInstrsPerWorker feeds, which for most modules is one — the
// calling goroutine, no pool at all.
func (c *Compiler) compileWorkers(mod *cil.Module) int {
	w := c.Opts.CompileWorkers
	if w == 0 {
		w = envCompileWorkers()
	}
	if w == 0 {
		instrs := 0
		for _, m := range mod.Methods {
			instrs += len(m.Code)
		}
		w = min(runtime.GOMAXPROCS(0), instrs/minInstrsPerWorker)
	}
	return max(1, min(w, len(mod.Methods)))
}

// methodResult is one slot of the parallel pipeline's output: results are
// written by index, so the assembled program and report are deterministic
// regardless of which worker finished first.
type methodResult struct {
	f   *nisa.Func
	err error
}

// CompileModuleReport is CompileModule plus the annotation-negotiation
// report of the build. Methods compile concurrently across a bounded worker
// pool (Options.CompileWorkers); each worker reuses one pooled scratch state
// for every method it compiles, and the emitted program is assembled in
// module method order so the result is bit-identical to a sequential
// compilation.
func (c *Compiler) CompileModuleReport(mod *cil.Module) (*nisa.Program, *Report, error) {
	prog := nisa.NewProgram(c.Target.Name)
	methods := mod.Methods
	if workers := c.compileWorkers(mod); workers <= 1 {
		st := getState()
		defer putState(st)
		for _, m := range methods {
			f, _, err := c.compileMethod(st, mod, m)
			if err != nil {
				return nil, nil, err
			}
			prog.Add(f)
		}
	} else {
		results := make([]methodResult, len(methods))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := getState()
				defer putState(st)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(methods) {
						return
					}
					r := &results[i]
					r.f, _, r.err = c.compileMethod(st, mod, methods[i])
				}
			}()
		}
		wg.Wait()

		// Deterministic assembly: module method order, first error wins (the
		// same error a sequential compilation would have stopped on).
		for _, r := range results {
			if r.err != nil {
				return nil, nil, r.err
			}
			prog.Add(r.f)
		}
	}
	// Every method negotiated its annotations as it compiled, in parallel
	// when there was a pool; the report is a read of their memos.
	rep := &Report{}
	rep.Outcomes, rep.Fallbacks = anno.NegotiateModule(mod, c.Opts.MinAnnotationVersion)
	return prog, rep, nil
}

// CompileMethod compiles a single method.
func (c *Compiler) CompileMethod(mod *cil.Module, m *cil.Method) (*nisa.Func, error) {
	f, _, err := c.CompileMethodReport(mod, m)
	return f, err
}

// CompileMethodReport compiles a single method and returns its
// annotation-negotiation outcomes. It is the entry point of lazy on-demand
// compilation: the runtime calls it once per method on first call, and the
// emitted code is bit-identical to the same method's slot in a
// CompileModuleReport build (both run the same translate → register-assignment
// pipeline on a pooled scratch state).
func (c *Compiler) CompileMethodReport(mod *cil.Module, m *cil.Method) (*nisa.Func, []anno.Outcome, error) {
	st := getState()
	defer putState(st)
	return c.compileMethod(st, mod, m)
}

// compileMethod runs the translate → register-assignment pipeline for one
// method on the given scratch state. The returned Func owns all its memory:
// the assigner's rewrite step always replaces the pooled code buffer with an
// exactly-sized fresh slice.
func (c *Compiler) compileMethod(st *compileState, mod *cil.Module, m *cil.Method) (*nisa.Func, []anno.Outcome, error) {
	neg := anno.NegotiateMethod(m, c.Opts.MinAnnotationVersion)
	st.beginMethod()
	tr := &st.tr
	tr.reset(c, mod, m, st)
	if err := tr.run(); err != nil {
		return nil, nil, fmt.Errorf("jit: %s: %w", m.Name, err)
	}
	f := &nisa.Func{
		Name:   m.Name,
		Params: append([]cil.Type(nil), m.Params...),
		Ret:    m.Ret,
		Code:   tr.code,
		Stats:  tr.stats,
	}
	ra := &st.as
	ra.reset(c, tr, f, neg.RegAlloc)
	if err := ra.run(); err != nil {
		return nil, nil, fmt.Errorf("jit: %s: register assignment: %w", m.Name, err)
	}
	return f, neg.Outcomes, nil
}
