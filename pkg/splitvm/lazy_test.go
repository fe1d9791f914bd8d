package splitvm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/target"
)

// lazyManySource synthesizes a module with n independent scalar methods
// (lm0..lm{n-1}), each returning a value that depends on its index so a
// wrong dispatch is caught by the result.
func lazyManySource(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
i64 lm%d(i32 n) {
    i64 s = %d;
    for (i32 i = 1; i <= n; i++) { s = s + (i64) (i * i) + %d; }
    return s;
}`, i, i, i)
	}
	return b.String()
}

// TestLazyDeployZeroUpFront is the acceptance walk for lazy compilation: a
// 16-method module deploys with zero up-front compilations, each first call
// compiles exactly its method, and results match the eager deployment.
func TestLazyDeployZeroUpFront(t *testing.T) {
	const methods = 16
	eng := New()
	m, err := eng.Compile(lazyManySource(methods))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := eng.Deploy(m, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Lazy() {
		t.Fatal("Lazy() = false on a WithLazyCompile deployment")
	}
	if compiled, total := dep.MethodCounts(); compiled != 0 || total != methods {
		t.Fatalf("fresh lazy deploy counts = %d/%d, want 0/%d", compiled, total, methods)
	}
	if cs := eng.CompileStats(); cs.Compilations != 0 || cs.LazyCompiles != 0 {
		t.Fatalf("fresh lazy deploy stats = %+v, want zero compilations", cs)
	}
	for name, st := range dep.CompileState() {
		if st.State != MethodStub {
			t.Fatalf("method %s state = %v before any call, want stub", name, st.State)
		}
	}

	// Eager reference on a separate engine (so its compilation does not
	// pollute the lazy engine's counters).
	ref, err := New().Deploy(m)
	if err != nil {
		t.Fatal(err)
	}

	// First call: exactly one method compiles, the result matches eager.
	want, err := ref.Run("lm5", IntArg(100))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dep.Run("lm5", IntArg(100))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("lazy lm5 = %v, eager %v", got, want)
	}
	if compiled, _ := dep.MethodCounts(); compiled != 1 {
		t.Fatalf("after one call %d methods compiled, want 1", compiled)
	}
	if st := dep.CompileState()["lm5"]; st.State != MethodReady || st.CompileNanos <= 0 {
		t.Fatalf("lm5 state after call = %+v, want ready with nanos", st)
	}
	if cs := eng.CompileStats(); cs.Compilations != 0 || cs.LazyCompiles != 1 {
		t.Fatalf("after one call stats = %+v, want 0 compilations / 1 lazy compile", cs)
	}
	rep := dep.CompileReport()
	if !rep.Lazy || rep.MethodsCompiled != 1 || rep.MethodsTotal != methods {
		t.Fatalf("CompileReport = %+v", rep)
	}
	if dep.CompileNanos() <= 0 {
		t.Fatal("CompileNanos = 0 after a first-call compilation")
	}

	// Demand every method; the image ends fully compiled, still with zero
	// eager compilations on the engine.
	for i := 0; i < methods; i++ {
		name := fmt.Sprintf("lm%d", i)
		w, err := ref.Run(name, IntArg(30))
		if err != nil {
			t.Fatal(err)
		}
		g, err := dep.Run(name, IntArg(30))
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Fatalf("%s lazy %v != eager %v", name, g, w)
		}
	}
	if compiled, total := dep.MethodCounts(); compiled != methods || total != methods {
		t.Fatalf("final counts = %d/%d, want %d/%d", compiled, total, methods, methods)
	}
	if cs := eng.CompileStats(); cs.Compilations != 0 || cs.LazyCompiles != methods {
		t.Fatalf("final stats = %+v, want 0 compilations / %d lazy compiles", cs, methods)
	}
}

// TestLazyEagerIdenticalAcrossTargets: on every registered target, a lazy
// deployment's result, simulated cycles and (once fully resolved) native
// code are bit-identical to the eager deployment of the same module.
func TestLazyEagerIdenticalAcrossTargets(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range target.All() {
		eager, err := eng.Deploy(m, WithTarget(d.Arch))
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := eng.Deploy(m, WithTarget(d.Arch), WithLazyCompile(true))
		if err != nil {
			t.Fatal(err)
		}
		if lazy.FromCache() {
			t.Fatalf("%s: lazy deploy shared the eager image (cache key must include lazy)", d.Arch)
		}
		we, err := eager.Run("sumsq", IntArg(200))
		if err != nil {
			t.Fatal(err)
		}
		wl, err := lazy.Run("sumsq", IntArg(200))
		if err != nil {
			t.Fatal(err)
		}
		if we != wl {
			t.Errorf("%s: result eager %v, lazy %v", d.Arch, we, wl)
		}
		if eager.Cycles() != lazy.Cycles() {
			t.Errorf("%s: cycles eager %d, lazy %d", d.Arch, eager.Cycles(), lazy.Cycles())
		}
		if eager.DisassembleNative() != lazy.DisassembleNative() {
			t.Errorf("%s: native code differs between eager and lazy", d.Arch)
		}
	}
}

// TestLazyConcurrentFirstCallsCompileOnce is the -race stress of the
// singleflight contract: several deployments sharing one lazy image race
// their first calls to the same methods; each method must compile exactly
// once fleet-wide and every caller must see the right result.
func TestLazyConcurrentFirstCallsCompileOnce(t *testing.T) {
	const methods = 6
	const deployments = 8
	eng := New()
	m, err := eng.Compile(lazyManySource(methods))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New().Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Value, methods)
	for i := range want {
		if want[i], err = ref.Run(fmt.Sprintf("lm%d", i), IntArg(40)); err != nil {
			t.Fatal(err)
		}
	}

	deps := make([]*Deployment, deployments)
	for i := range deps {
		if deps[i], err = eng.Deploy(m, WithLazyCompile(true)); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !deps[i].FromCache() {
			t.Fatal("lazy deployments do not share one image")
		}
	}

	// One goroutine per deployment (a machine is single-goroutine by
	// contract); all race their first call to each method.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, dp := range deps {
		wg.Add(1)
		go func(dp *Deployment) {
			defer wg.Done()
			<-start
			for i := 0; i < methods; i++ {
				got, err := dp.Run(fmt.Sprintf("lm%d", i), IntArg(40))
				if err != nil {
					t.Errorf("lm%d: %v", i, err)
					return
				}
				if got != want[i] {
					t.Errorf("lm%d = %v, want %v", i, got, want[i])
				}
			}
		}(dp)
	}
	close(start)
	wg.Wait()

	cs := eng.CompileStats()
	if cs.LazyCompiles != methods {
		t.Fatalf("%d lazy compiles for %d methods × %d racing deployments, want exactly %d",
			cs.LazyCompiles, methods, deployments, methods)
	}
	if cs.Compilations != 0 {
		t.Fatalf("lazy stress performed %d eager compilations, want 0", cs.Compilations)
	}
}

// TestLazyDiskMethodStore: replicas sharing a cache volume JIT each method
// at most once fleet-wide — a second engine over the same directory serves
// first calls from the per-method store instead of recompiling.
func TestLazyDiskMethodStore(t *testing.T) {
	const methods = 4
	dir := t.TempDir()
	first := New(WithDiskCache(dir))
	if err := first.DiskCacheErr(); err != nil {
		t.Fatal(err)
	}
	m, err := first.Compile(lazyManySource(methods))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := first.Deploy(m, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	want0, err := dep.Run("lm0", IntArg(60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run("lm1", IntArg(60)); err != nil {
		t.Fatal(err)
	}
	wantCycles := dep.Cycles()
	if cs := first.CompileStats(); cs.LazyCompiles != 2 {
		t.Fatalf("first replica lazy compiles = %d, want 2", cs.LazyCompiles)
	}

	// The replica: a fresh engine over the same volume, the module re-loaded
	// from its byte stream. Its first calls to lm0/lm1 must be store hits.
	second := New(WithDiskCache(dir))
	m2, err := second.Load(m.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := second.Deploy(m2, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	got0, err := dep2.Run("lm0", IntArg(60))
	if err != nil {
		t.Fatal(err)
	}
	if got0 != want0 {
		t.Fatalf("replica lm0 = %v, want %v", got0, want0)
	}
	if _, err := dep2.Run("lm1", IntArg(60)); err != nil {
		t.Fatal(err)
	}
	if dep2.Cycles() != wantCycles {
		t.Errorf("replica cycles = %d, want %d (store hits must be bit-identical)", dep2.Cycles(), wantCycles)
	}
	cs := second.CompileStats()
	st := second.CacheStats()
	if cs.LazyCompiles != 0 || st.DiskHits != 2 {
		t.Fatalf("replica stats: %d lazy compiles / %d disk hits, want 0 / 2", cs.LazyCompiles, st.DiskHits)
	}
	if ms := dep2.CompileState()["lm0"]; ms.State != MethodReady || !ms.FromStore {
		t.Fatalf("replica lm0 state = %+v, want ready from store", ms)
	}

	// A method nobody compiled yet still JITs locally — and publishes.
	if _, err := dep2.Run("lm2", IntArg(60)); err != nil {
		t.Fatal(err)
	}
	if cs := second.CompileStats(); cs.LazyCompiles != 1 {
		t.Fatalf("replica lazy compiles after lm2 = %d, want 1", cs.LazyCompiles)
	}
	third := New(WithDiskCache(dir))
	m3, err := third.Load(m.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	dep3, err := third.Deploy(m3, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep3.Run("lm2", IntArg(60)); err != nil {
		t.Fatal(err)
	}
	if cs := third.CompileStats(); cs.LazyCompiles != 0 {
		t.Fatalf("third replica recompiled lm2 (%d lazy compiles), want a store hit", cs.LazyCompiles)
	}
}

// TestLazyDiskMethodStoreHealsGarbageEntry is the per-method twin of the
// "valid frame, garbage payload" image case: the replica that reads the
// entry recompiles the method, replaces the entry, and the next replica is
// served from the store again.
func TestLazyDiskMethodStoreHealsGarbageEntry(t *testing.T) {
	dir := t.TempDir()
	first := New(WithDiskCache(dir))
	m, err := first.Compile(lazyManySource(2))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := first.Deploy(m, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.Run("lm0", IntArg(60))
	if err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d cache files after one first call, want 1", len(files))
	}
	plantGarbage(t, files[0], diskMethodFormat)

	second := New(WithDiskCache(dir))
	dep2, err := second.Deploy(m, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dep2.Run("lm0", IntArg(60)); err != nil || got != want {
		t.Fatalf("run over a garbage method entry = %v, %v; want %v", got, err, want)
	}
	if cs, st := second.CompileStats(), second.CacheStats(); cs.LazyCompiles != 1 || st.DiskHits != 0 || st.Disk.Corrupt != 1 || st.Disk.Writes != 1 {
		t.Fatalf("second replica: %d lazy compiles, %d disk hits, disk %+v; want a recompile that replaces the corrupt entry",
			cs.LazyCompiles, st.DiskHits, *st.Disk)
	}

	third := New(WithDiskCache(dir))
	dep3, err := third.Deploy(m, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dep3.Run("lm0", IntArg(60)); err != nil || got != want {
		t.Fatalf("run after the entry healed = %v, %v; want %v", got, err, want)
	}
	if cs, st := third.CompileStats(), third.CacheStats(); cs.LazyCompiles != 0 || st.DiskHits != 1 {
		t.Fatalf("third replica: %d lazy compiles, %d disk hits; want a store hit", cs.LazyCompiles, st.DiskHits)
	}
}

// TestLazyRunContextCancelled pins the API contract on the public surface: a
// cancelled lazy run fails with the context error, never compiles anything,
// and never leaves a half-patched dispatch table — the next run succeeds.
func TestLazyRunContextCancelled(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := eng.Deploy(m, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dep.RunContext(ctx, "sumsq", IntArg(10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
	if compiled, _ := dep.MethodCounts(); compiled != 0 {
		t.Fatalf("cancelled run compiled %d methods, want 0", compiled)
	}
	got, err := dep.Run("sumsq", IntArg(10))
	if err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	if got.I != 385 {
		t.Fatalf("sumsq(10) = %v, want 385", got)
	}
}

// TestEnsureCompiledMetricParity: after EnsureCompiled, a lazy deployment's
// code-derived statistics are bit-identical to the eager deployment's — the
// invariant the benchmark experiments (figure1, regalloc, codesize) rely on
// when the CI matrix runs them under SPLITVM_LAZY=1.
func TestEnsureCompiledMetricParity(t *testing.T) {
	src := lazyManySource(4)

	eagerEng := New()
	me, err := eagerEng.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := eagerEng.Deploy(me)
	if err != nil {
		t.Fatal(err)
	}
	// EnsureCompiled on an eager deployment is a no-op.
	if err := eager.EnsureCompiled(context.Background()); err != nil {
		t.Fatal(err)
	}

	lazyEng := New()
	ml, err := lazyEng.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := lazyEng.Deploy(ml, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	if n := lazy.NativeCodeBytes(); n != 0 {
		t.Fatalf("fresh lazy NativeCodeBytes = %d, want 0 before EnsureCompiled", n)
	}
	if err := lazy.EnsureCompiled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if compiled, total := lazy.MethodCounts(); compiled != total {
		t.Fatalf("EnsureCompiled left counts %d/%d", compiled, total)
	}

	if e, l := eager.NativeCodeBytes(), lazy.NativeCodeBytes(); e != l {
		t.Fatalf("NativeCodeBytes: eager %d != lazy %d", e, l)
	}
	if e, l := eager.JITSteps(), lazy.JITSteps(); e != l {
		t.Fatalf("JITSteps: eager %d != lazy %d", e, l)
	}
	es, el, est := eager.SpillSummary()
	ls, ll, lst := lazy.SpillSummary()
	if es != ls || el != ll || est != lst {
		t.Fatalf("SpillSummary: eager (%d,%d,%d) != lazy (%d,%d,%d)", es, el, est, ls, ll, lst)
	}
	if e, l := eager.SpillWeight(), lazy.SpillWeight(); e != l {
		t.Fatalf("SpillWeight: eager %d != lazy %d", e, l)
	}

	// Same invariant across a link set: EnsureCompiled spans every unit.
	linkEng := New()
	util, mainMod := compileLinkPair(t, linkEng)
	lm, err := linkEng.Link(util, mainMod)
	if err != nil {
		t.Fatal(err)
	}
	eagerL, err := linkEng.DeployLinked(lm)
	if err != nil {
		t.Fatal(err)
	}
	lazyL, err := linkEng.DeployLinked(lm, WithLazyCompile(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := lazyL.EnsureCompiled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e, l := eagerL.NativeCodeBytes(), lazyL.NativeCodeBytes(); e != l {
		t.Fatalf("linked NativeCodeBytes: eager %d != lazy %d", e, l)
	}
	if e, l := eagerL.JITSteps(), lazyL.JITSteps(); e != l {
		t.Fatalf("linked JITSteps: eager %d != lazy %d", e, l)
	}
	// EnsureCompiled counts as the first call everywhere: the run after it
	// must not recompile and must agree with eager.
	want, err := eagerL.Run("sumcubes", IntArg(10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lazyL.Run("sumcubes", IntArg(10))
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.I != 3025 {
		t.Fatalf("linked lazy sumcubes(10) = %v, want %v (3025)", got, want)
	}
}
