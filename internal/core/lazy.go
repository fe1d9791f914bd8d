package core

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cil"
	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/nisa"
	"repro/internal/sim"
	"repro/internal/target"
)

// MethodState is one method's position in the lazy compilation lifecycle.
// Methods start as stubs, pass through compiling exactly once (singleflight
// per image: concurrent first calls from any number of deployments block on
// the same flight), and end ready. A failed or cancelled compilation returns
// the method to the stub state, so the next call retries cleanly — the
// dispatch table is only ever patched with fully compiled code.
type MethodState int

// The lazy method states.
const (
	// MethodStub: not compiled yet; the first call will JIT it.
	MethodStub MethodState = iota
	// MethodCompiling: a first call is JIT-compiling it right now; other
	// callers wait on the flight instead of compiling again.
	MethodCompiling
	// MethodReady: native code is published; calls dispatch directly.
	MethodReady
)

func (s MethodState) String() string {
	switch s {
	case MethodStub:
		return "stub"
	case MethodCompiling:
		return "compiling"
	case MethodReady:
		return "ready"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// CompiledMethod is one method's native code as a MethodStore persists it:
// the function plus the wall-clock nanoseconds its original compilation took
// (so store hits report the cost that was actually paid, once, fleet-wide).
type CompiledMethod struct {
	Func         *nisa.Func
	CompileNanos int64
}

// MethodStore is a per-method code cache shared wider than one image —
// typically a disk volume mounted by every replica of a serving fleet. A
// lazy image consults the store before JIT-compiling a method and publishes
// what it compiled, so each method is compiled at most once fleet-wide.
// Implementations must be safe for concurrent use; Get misses return false.
type MethodStore interface {
	GetMethod(name string) (*CompiledMethod, bool)
	PutMethod(name string, cm *CompiledMethod)
}

// faultSiteLazyCompile is the fault-injection site armed by chaos tests to
// hold open (or crash inside) a first-call method compilation.
const faultSiteLazyCompile = "core.lazy_compile"

// methodEntry is one method's slot in the lazy image's state table, guarded
// by lazyState.mu. done is the current flight's completion signal: it is
// created when the state leaves stub and closed when it settles (ready, or
// back to stub on failure), so waiters re-examine the state afterwards.
type methodEntry struct {
	m         *cil.Method
	state     MethodState
	done      chan struct{}
	f         *nisa.Func
	nanos     int64
	fromStore bool
}

// lazyState is the mutable half of a lazy image: the per-method state table
// and the hooks the engine layer installs (fleet store, metrics callback).
type lazyState struct {
	compiler *jit.Compiler

	mu      sync.Mutex
	methods map[string]*methodEntry

	store     MethodStore
	onCompile func(method string, nanos int64, fromStore bool)
}

// LazyImageFromVerifiedModule builds an image whose methods are compiled on
// first call instead of up front. The module is fully decoded and verified —
// deployment-time validation is identical to the eager path — but the JIT
// runs per method, on demand, with singleflight per (image, method). The
// produced code is bit-identical to an eager build of the same module (both
// run the same per-method pipeline), so simulated results and cycle counts
// never depend on compilation timing.
func LazyImageFromVerifiedModule(mod *cil.Module, tgt *target.Desc, jopts jit.Options) (*Image, error) {
	ls := &lazyState{
		compiler: jit.New(tgt, jopts),
		methods:  make(map[string]*methodEntry, len(mod.Methods)),
	}
	for _, m := range mod.Methods {
		ls.methods[m.Name] = &methodEntry{m: m}
	}
	return &Image{
		Target:  tgt,
		Module:  mod,
		Program: nisa.NewProgram(tgt.Name),
		JITOpts: jopts,
		lazy:    ls,
	}, nil
}

// Lazy reports whether the image compiles methods on first call.
func (img *Image) Lazy() bool { return img.lazy != nil }

// SetMethodStore installs the fleet-wide per-method code cache consulted
// before (and published to after) each lazy compilation. It must be set
// before the first deployment resolves a method; it has no effect on eager
// images.
func (img *Image) SetMethodStore(s MethodStore) {
	if img.lazy != nil {
		img.lazy.store = s
	}
}

// OnLazyCompile installs a callback invoked after each method resolution
// that produced code — fromStore distinguishes a fleet-store hit from an
// actual JIT run. It must be set before the first deployment resolves a
// method; it has no effect on eager images.
func (img *Image) OnLazyCompile(fn func(method string, nanos int64, fromStore bool)) {
	if img.lazy != nil {
		img.lazy.onCompile = fn
	}
}

// MethodCompileState is one method's entry in a CompileState report.
type MethodCompileState struct {
	State MethodState
	// CompileNanos is the wall-clock JIT time of the method's compilation
	// (the original one, for store hits); zero until the method is ready,
	// and zero for eager images, whose cost is reported per image.
	CompileNanos int64
	// FromStore marks methods whose code came from the fleet store rather
	// than a local JIT run.
	FromStore bool
}

// CompileState reports the per-method compilation state of the image. Eager
// images report every method ready (their cost lives in Image.CompileNanos);
// lazy images report the live state table.
func (img *Image) CompileState() map[string]MethodCompileState {
	out := make(map[string]MethodCompileState, len(img.Module.Methods))
	if img.lazy == nil {
		for _, m := range img.Module.Methods {
			out[m.Name] = MethodCompileState{State: MethodReady}
		}
		return out
	}
	img.lazy.mu.Lock()
	defer img.lazy.mu.Unlock()
	for name, e := range img.lazy.methods {
		out[name] = MethodCompileState{State: e.state, CompileNanos: e.nanos, FromStore: e.fromStore}
	}
	return out
}

// MethodCounts returns how many of the image's methods have native code and
// how many it has in total.
func (img *Image) MethodCounts() (compiled, total int) {
	total = len(img.Module.Methods)
	if img.lazy == nil {
		return total, total
	}
	img.lazy.mu.Lock()
	defer img.lazy.mu.Unlock()
	for _, e := range img.lazy.methods {
		if e.state == MethodReady {
			compiled++
		}
	}
	return compiled, total
}

// LazyJITSteps sums the JIT-step counts of every method resolved so far,
// including fleet-store hits (steps describe the code's original
// compilation, mirroring how cache-hit eager deployments inherit the
// original cost figure). Zero for eager images, whose total is
// Image.JITSteps. Once every method is ready the sum equals the eager
// build's JITSteps exactly — both paths run the same per-method pipeline.
func (img *Image) LazyJITSteps() int64 {
	if img.lazy == nil {
		return 0
	}
	img.lazy.mu.Lock()
	defer img.lazy.mu.Unlock()
	var total int64
	for _, e := range img.lazy.methods {
		if e.state == MethodReady {
			total += e.f.Stats.CompileSteps
		}
	}
	return total
}

// LazyCompileNanos sums the wall-clock JIT time of every method compiled so
// far (zero for eager images, whose total is Image.CompileNanos).
func (img *Image) LazyCompileNanos() int64 {
	if img.lazy == nil {
		return 0
	}
	img.lazy.mu.Lock()
	defer img.lazy.mu.Unlock()
	var total int64
	for _, e := range img.lazy.methods {
		if e.state == MethodReady && !e.fromStore {
			total += e.nanos
		}
	}
	return total
}

// snapshot copies every ready method into prog, so a machine instantiated
// after some first calls already dispatches them without resolver round
// trips.
func (ls *lazyState) snapshot(prog *nisa.Program) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for name, e := range ls.methods {
		if e.state == MethodReady {
			prog.Funcs[name] = e.f
		}
	}
}

// ResolveMethod returns the native code of one method, JIT-compiling it on
// first use. Concurrent resolutions of the same method — from any number of
// deployments sharing the image — coalesce into one compilation; waiters
// whose ctx is cancelled return early without observing or publishing any
// code, and a flight that fails returns the method to the stub state so the
// next call retries. For eager images this is a plain program lookup.
func (img *Image) ResolveMethod(ctx context.Context, name string) (*nisa.Func, error) {
	ls := img.lazy
	if ls == nil {
		if f := img.Program.Func(name); f != nil {
			return f, nil
		}
		return nil, fmt.Errorf("core: unknown method %q", name)
	}
	for {
		ls.mu.Lock()
		e, ok := ls.methods[name]
		if !ok {
			ls.mu.Unlock()
			return nil, fmt.Errorf("core: unknown method %q", name)
		}
		switch e.state {
		case MethodReady:
			f := e.f
			ls.mu.Unlock()
			return f, nil

		case MethodCompiling:
			done := e.done
			ls.mu.Unlock()
			select {
			case <-done:
				// The flight settled: loop to observe ready, or a stub
				// again if it failed (then this caller takes over).
			case <-ctx.Done():
				return nil, ctx.Err()
			}

		case MethodStub:
			if err := ctx.Err(); err != nil {
				// A cancelled run never starts a compilation, so it can
				// never leave a half-patched dispatch table behind.
				ls.mu.Unlock()
				return nil, err
			}
			e.state = MethodCompiling
			e.done = make(chan struct{})
			ls.mu.Unlock()

			f, nanos, fromStore, err := ls.compile(img.Module, e.m)

			ls.mu.Lock()
			if err != nil {
				e.state = MethodStub
				close(e.done)
				e.done = nil
				ls.mu.Unlock()
				return nil, err
			}
			e.state = MethodReady
			e.f, e.nanos, e.fromStore = f, nanos, fromStore
			close(e.done)
			ls.mu.Unlock()

			if !fromStore && ls.store != nil {
				ls.store.PutMethod(name, &CompiledMethod{Func: f, CompileNanos: nanos})
			}
			if ls.onCompile != nil {
				ls.onCompile(name, nanos, fromStore)
			}
			return f, nil
		}
	}
}

// compile produces one method's native code: fleet-store hit if available,
// otherwise a timed JIT run. The fault-injection site lets chaos tests hold
// the compilation open or crash the process inside it.
func (ls *lazyState) compile(mod *cil.Module, m *cil.Method) (f *nisa.Func, nanos int64, fromStore bool, err error) {
	if flt := faultinject.At(faultSiteLazyCompile); flt != nil {
		if err := flt.Apply(); err != nil {
			return nil, 0, false, fmt.Errorf("core: lazy compile of %q: %w", m.Name, err)
		}
	}
	if ls.store != nil {
		if cm, ok := ls.store.GetMethod(m.Name); ok && cm != nil && cm.Func != nil {
			return cm.Func, cm.CompileNanos, true, nil
		}
	}
	start := time.Now()
	f, _, err = ls.compiler.CompileMethodReport(mod, m)
	if err != nil {
		return nil, 0, false, err
	}
	return f, time.Since(start).Nanoseconds(), false, nil
}

// EnvLazy is the SPLITVM_LAZY override, read once per process: "1" (or
// "on") makes every deployment lazy. CI uses it to prove the zero-drift
// property — the full gated benchmark suite runs with lazy compilation
// enabled and must match the eager baseline exactly — without threading an
// option through every harness.
var EnvLazy = sync.OnceValue(func() bool {
	v := os.Getenv("SPLITVM_LAZY")
	return v == "1" || v == "on"
})

// lazyResolverFor wires a machine to the image's method table. The ctx the
// machine passes is the one its current CallContext run carries, so a
// cancelled run aborts resolution before any compilation starts.
func lazyResolverFor(img *Image) sim.Resolver {
	return func(ctx context.Context, sym string) (*nisa.Func, error) {
		return img.ResolveMethod(ctx, sym)
	}
}
