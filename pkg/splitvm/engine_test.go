package splitvm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/target"
)

const sumsqSource = `
i64 sumsq(i32 n) {
    i64 s = 0;
    for (i32 i = 1; i <= n; i++) {
        s = s + (i64) (i * i);
    }
    return s;
}
`

func TestCompileDeployRoundTrip(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource, WithModuleName("rt"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "rt" || m.Stats().EncodedBytes == 0 || m.Stats().AnnotationBytes == 0 {
		t.Fatalf("module looks wrong: name=%q stats=%+v", m.Name(), m.Stats())
	}
	if got := m.Methods(); len(got) != 1 || got[0] != "sumsq" {
		t.Fatalf("Methods = %v", got)
	}
	want, err := m.Interpret("sumsq", IntArg(100))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range target.All() {
		dep, err := eng.Deploy(m, WithTarget(d.Arch))
		if err != nil {
			t.Fatalf("deploy on %s: %v", d.Arch, err)
		}
		got, err := dep.Run("sumsq", IntArg(100))
		if err != nil {
			t.Fatalf("run on %s: %v", d.Arch, err)
		}
		if got.I != want.Value.I {
			t.Errorf("sumsq(100) on %s = %d, interpreter %d", d.Arch, got.I, want.Value.I)
		}
		if dep.Cycles() == 0 || dep.NativeCodeBytes() == 0 || dep.JITSteps() == 0 {
			t.Errorf("%s: missing statistics", d.Arch)
		}
	}
}

func TestLoadDeploysLikeCompile(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := eng.Load(m.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	dep1, err := eng.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := eng.Deploy(loaded)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dep1.Run("sumsq", IntArg(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dep2.Run("sumsq", IntArg(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.I != b.I {
		t.Errorf("compiled %d != loaded %d", a.I, b.I)
	}
	// Same content hash: the second deployment should have hit the cache.
	if !dep2.FromCache() {
		t.Error("Load-ed module with identical bytes should share cached native code")
	}
	if _, err := eng.Load([]byte("junk")); err == nil {
		t.Error("Load accepted junk bytes")
	}
}

func TestEngineDefaultsAndOverrides(t *testing.T) {
	// Engine-wide default: MCU target, online allocator.
	eng := New(WithTarget(target.MCU), WithRegAllocMode(RegAllocOnline))
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := eng.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Target().Arch != target.MCU {
		t.Errorf("engine default target ignored: %s", dep.Target().Arch)
	}
	// Per-call override wins.
	dep, err = eng.Deploy(m, WithTarget(target.SPU))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Target().Arch != target.SPU {
		t.Errorf("per-call target ignored: %s", dep.Target().Arch)
	}
	if _, err := eng.Deploy(m, WithTarget("z80")); err == nil || !strings.Contains(err.Error(), "unknown architecture") {
		t.Errorf("unknown target accepted: %v", err)
	}
}

func TestVectorizeAndAnnotationOptions(t *testing.T) {
	eng := New()
	vec, k, err := eng.CompileKernel("vecadd_fp")
	if err != nil {
		t.Fatal(err)
	}
	if k.Entry != "vecadd" || vec.Name() != "vecadd_fp" {
		t.Errorf("kernel metadata wrong: %q %q", k.Entry, vec.Name())
	}
	if vec.Stats().VectorizedLoops == 0 {
		t.Error("vectorizer should strip-mine vecadd")
	}
	scalar, _, err := eng.CompileKernel("vecadd_fp", WithVectorize(false))
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Stats().VectorizedLoops != 0 {
		t.Error("WithVectorize(false) left vector plans")
	}
	depVec, err := eng.Deploy(vec) // x86 default
	if err != nil {
		t.Fatal(err)
	}
	if !depVec.UsedSIMD("vecadd") {
		t.Error("x86 deployment of vectorized bytecode should use the SIMD unit")
	}
	depForced, err := eng.Deploy(vec, WithForceScalarize(true))
	if err != nil {
		t.Fatal(err)
	}
	if depForced.UsedSIMD("vecadd") {
		t.Error("WithForceScalarize must prevent SIMD lowering")
	}
	stripped, _, err := eng.CompileKernel("vecadd_fp", WithAnnotations(false))
	if err != nil {
		t.Fatal(err)
	}
	if stripped.Stats().AnnotationBytes != 0 {
		t.Error("WithAnnotations(false) left annotations")
	}
	if _, err := eng.Compile("i32 broken("); err == nil {
		t.Error("syntax errors must propagate")
	}
	if _, _, err := eng.CompileKernel("nope"); err == nil {
		t.Error("unknown kernels must be rejected")
	}
}

func TestSignatureAndParseArgs(t *testing.T) {
	eng := New()
	m, err := eng.Compile(`f64 mix(i32 a, f64 x) { return (f64) a * x; }`)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := m.Signature("mix")
	if err != nil {
		t.Fatal(err)
	}
	if !sig.ReturnsFloat || len(sig.Params) != 2 || sig.Params[0].Float || !sig.Params[1].Float {
		t.Fatalf("signature wrong: %+v", sig)
	}
	args, err := sig.ParseArgs([]string{"3", "1.5"})
	if err != nil {
		t.Fatal(err)
	}
	if args[0].I != 3 || args[1].F != 1.5 {
		t.Fatalf("parsed args wrong: %+v", args)
	}
	if args, err := sig.ParseArgs([]string{"3", "2"}); err != nil || args[1].F != 2 {
		t.Errorf("integer literal for a float parameter should parse: %v %+v", err, args)
	}
	if _, err := sig.ParseArgs([]string{"3"}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := sig.ParseArgs([]string{"x", "1.5"}); err == nil {
		t.Error("bad literal accepted")
	}
	if _, err := sig.ParseArgs([]string{"3.5", "1.5"}); err == nil {
		t.Error("float literal for an integer parameter must error, not truncate to 0")
	}
	if _, err := m.Signature("missing"); err == nil {
		t.Error("unknown method accepted")
	}

	dep, err := eng.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	dsig, err := dep.Signature("mix")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dep.Run("mix", args...)
	if err != nil {
		t.Fatal(err)
	}
	if !dsig.ReturnsFloat || got.F != 4.5 {
		t.Errorf("mix(3, 1.5) = %v, want 4.5", got.F)
	}
}

func TestContextCancellation(t *testing.T) {
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.CompileContext(ctx, sumsqSource); err == nil {
		t.Error("CompileContext ignored a cancelled context")
	}
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DeployContext(ctx, m); err == nil {
		t.Error("DeployContext ignored a cancelled context")
	}
}

func TestWithTargetDescResizedRegisterFile(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	small := target.MustLookup(target.MCU).WithIntRegs(2)
	dep, err := eng.Deploy(m, WithTargetDesc(small), WithRegAllocMode(RegAllocOnline))
	if err != nil {
		t.Fatal(err)
	}
	slots, _, _ := dep.SpillSummary()
	if slots == 0 {
		t.Error("2-register deployment should spill")
	}
	// The resized descriptor must not share cache entries with the stock MCU.
	stock, err := eng.Deploy(m, WithTarget(target.MCU), WithRegAllocMode(RegAllocOnline))
	if err != nil {
		t.Fatal(err)
	}
	if stock.FromCache() {
		t.Error("stock MCU deployment shared the resized target's native code")
	}
	stockSlots, _, _ := stock.SpillSummary()
	if stockSlots >= slots && slots > 0 && stockSlots != 0 {
		t.Logf("note: stock MCU spills %d, resized %d", stockSlots, slots)
	}
}

func TestDeployHeteroSharesCache(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	sys := CellLike() // one PPC host + two identical SPU accelerators
	rt, err := eng.DeployHetero(sys, m, Annotated)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	// Two distinct core types -> two JIT compilations; the second SPU joins
	// the first SPU's image.
	if st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Errorf("cache stats after Cell deployment = %+v, want 2 misses, 1 hit, 2 entries", st)
	}
	res, err := rt.Call("sumsq", ScalarArg(I32, IntArg(10)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.I != 385 {
		t.Errorf("sumsq(10) via hetero runtime = %d, want 385", res.Result.I)
	}
}

func TestDeployHeteroHonorsEngineOptions(t *testing.T) {
	eng := New()
	m, k, err := eng.CompileKernel("vecadd_fp")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.DeployHetero(CellLike(), m, Annotated)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Deployment("spu0").Program.Func(k.Entry).Stats.VectorLowered == 0 {
		t.Fatal("SPU deployment should normally use the vector unit")
	}
	forced, err := eng.DeployHetero(CellLike(), m, Annotated, WithForceScalarize(true))
	if err != nil {
		t.Fatal(err)
	}
	if forced.Deployment("spu0").Program.Func(k.Entry).Stats.VectorLowered != 0 {
		t.Error("WithForceScalarize was ignored by DeployHetero")
	}
	if _, err := eng.DeployHetero(CellLike(), nil, Annotated); err == nil {
		t.Error("DeployHetero accepted a nil module")
	}
}

func TestCachedImageIsImmuneToDescriptorMutation(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	d := target.MustLookup(target.MCU).WithIntRegs(6)
	dep1, err := eng.Deploy(m, WithTargetDesc(d))
	if err != nil {
		t.Fatal(err)
	}
	d.IntRegs = 2 // caller mutates its descriptor after deploying
	dep2, err := eng.Deploy(m, WithTargetDesc(target.MustLookup(target.MCU).WithIntRegs(6)))
	if err != nil {
		t.Fatal(err)
	}
	if !dep2.FromCache() {
		t.Fatal("value-equal descriptor should hit the cache")
	}
	if dep1.Target().IntRegs != 6 || dep2.Target().IntRegs != 6 {
		t.Errorf("cached deployments see the mutation: %d and %d int regs, want 6",
			dep1.Target().IntRegs, dep2.Target().IntRegs)
	}
	if v, err := dep2.Run("sumsq", IntArg(10)); err != nil || v.I != 385 {
		t.Errorf("cached deployment broken after mutation: %v %v", v.I, err)
	}
}

func TestCacheControls(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := eng.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := eng.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	if d1.FromCache() || !d2.FromCache() {
		t.Errorf("expected miss then hit, got %v then %v", d1.FromCache(), d2.FromCache())
	}
	d3, err := eng.Deploy(m, WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if d3.FromCache() {
		t.Error("WithCache(false) must bypass the cache")
	}
	st := eng.CacheStats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 entry, 1 hit, 1 miss", st)
	}
	eng.ClearCache()
	if eng.CacheStats().Entries != 0 {
		t.Error("ClearCache left entries")
	}
	d4, err := eng.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	if d4.FromCache() {
		t.Error("deployment after ClearCache cannot be a hit")
	}
}

func TestInterpretRejectsArrays(t *testing.T) {
	eng := New()
	m, _, err := eng.CompileKernel("sum_u8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Interpret("sum_u8", IntArg(1), IntArg(2)); err == nil {
		t.Error("array argument accepted by Interpret")
	}
}

// TestInternedDescsFollowTheCache: deployments of one descriptor share the
// engine's one copy of it, and the copy goes with the last cached image
// keyed by it, or with ClearCache.
func TestInternedDescsFollowTheCache(t *testing.T) {
	eng := New(WithCacheSize(1))
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	descs := func() int {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		return len(eng.descs)
	}
	for _, arch := range onlineTargets {
		a, err := eng.Deploy(m, WithTarget(arch))
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.Deploy(m, WithTarget(arch))
		if err != nil {
			t.Fatal(err)
		}
		if a.Target() != b.Target() || descs() != 1 {
			t.Errorf("%s: shared descriptor %t, %d interned; want true, 1", arch, a.Target() == b.Target(), descs())
		}
	}
	eng.ClearCache()
	if n := descs(); n != 0 {
		t.Errorf("%d descriptors interned after ClearCache, want 0", n)
	}
}
