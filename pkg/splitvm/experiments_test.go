package splitvm

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/target"
)

// These tests reproduce the claim behind each gated experiment of
// cmd/dacbench through the public API alone, at small problem sizes: what a
// user of this package can observe must agree with what the paper claims.
// The quantitative shape of the results is asserted by internal/bench.

func TestRunTable1Surface(t *testing.T) {
	eng := New()
	if len(target.Table1()) != 3 {
		t.Fatalf("Table 1 has %d targets, want 3", len(target.Table1()))
	}
	for _, name := range Table1KernelNames() {
		scalar, k, err := eng.CompileKernel(name, WithVectorize(false))
		if err != nil {
			t.Fatal(err)
		}
		vector, _, err := eng.CompileKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInputs(name, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range target.Table1() {
			var cycles [2]int64
			for i, m := range []*Module{scalar, vector} {
				dep, err := eng.Deploy(m, WithTarget(tgt.Arch), WithRegAllocMode(RegAllocSplit))
				if err != nil {
					t.Fatal(err)
				}
				run, err := dep.RunKernel(k, in)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, tgt.Arch, err)
				}
				cycles[i] = run.Cycles
				if i == 1 && tgt.Arch == target.X86SSE && !dep.UsedSIMD(k.Entry) {
					t.Errorf("%s: vectorized bytecode was not lowered to SIMD on %s", name, tgt.Arch)
				}
			}
			if cycles[0] <= 0 || cycles[1] <= 0 {
				t.Errorf("%s on %s reports non-positive cycles (%d scalar, %d vector)",
					name, tgt.Arch, cycles[0], cycles[1])
			}
		}
	}
}

func TestRunFigure1Surface(t *testing.T) {
	eng := New()
	for _, name := range Table1KernelNames() {
		annotated, _, err := eng.CompileKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		stripped, _, err := eng.CompileKernel(name, WithAnnotations(false), WithRegAllocAnnotations(false))
		if err != nil {
			t.Fatal(err)
		}
		withAnn, err := eng.Deploy(annotated, WithTarget(target.X86SSE), WithRegAllocMode(RegAllocSplit))
		if err != nil {
			t.Fatal(err)
		}
		withoutAnn, err := eng.Deploy(stripped, WithTarget(target.X86SSE), WithRegAllocMode(RegAllocOptimal))
		if err != nil {
			t.Fatal(err)
		}
		for _, dep := range []*Deployment{withAnn, withoutAnn} {
			if err := dep.EnsureCompiled(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if withAnn.JITSteps() >= withoutAnn.JITSteps() {
			t.Errorf("%s: annotations did not reduce JIT effort (%d with vs %d without)",
				name, withAnn.JITSteps(), withoutAnn.JITSteps())
		}
		st := annotated.Stats()
		if st.AnnotationBytes <= 0 || st.EncodedBytes <= 0 || st.OfflineSteps <= 0 {
			t.Errorf("%s: degenerate offline accounting %+v", name, st)
		}
	}
}

// pressureSource declares rarely used variables before the loop-carried hot
// ones, so an allocator without the offline weights picks the wrong spills
// under a small register file.
const pressureSource = `
i32 pressure(i32 n, i32 seed) {
    i32 c0 = seed + 0; i32 c1 = seed + 1; i32 c2 = seed + 2; i32 c3 = seed + 3;
    i32 c4 = seed + 4; i32 c5 = seed + 5; i32 c6 = seed + 6; i32 c7 = seed + 7;
    i32 h0 = 1; i32 h1 = 2; i32 h2 = 3; i32 h3 = 4; i32 h4 = 5; i32 h5 = 6;
    for (i32 i = 0; i < n; i++) {
        h0 = h1 + i * 3; h1 = h2 + i * 4; h2 = h3 + i * 5;
        h3 = h4 + i * 6; h4 = h5 + i * 7; h5 = h0 + i * 8;
    }
    return h0 + h1 + h2 + h3 + h4 + h5 + c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7;
}
`

func TestRunRegAllocSurface(t *testing.T) {
	eng := New()
	sources := []string{pressureSource}
	for _, k := range Kernels() {
		sources = append(sources, k.Source)
	}
	six := target.MustLookup(target.MCU).WithIntRegs(6)
	var online, split int64
	for _, src := range sources {
		m, err := eng.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []RegAllocMode{RegAllocOnline, RegAllocSplit} {
			dep, err := eng.Deploy(m, WithTargetDesc(six), WithRegAllocMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			if err := dep.EnsureCompiled(context.Background()); err != nil {
				t.Fatal(err)
			}
			if mode == RegAllocOnline {
				online += dep.SpillWeight()
			} else {
				split += dep.SpillWeight()
			}
		}
	}
	if online == 0 {
		t.Fatal("the suite does not spill on 6 registers; the comparison is vacuous")
	}
	if split > online {
		t.Errorf("split allocator spills more than the online baseline (%d vs %d)", split, online)
	}
}

func TestRunCodeSizeSurface(t *testing.T) {
	eng := New()
	var ratioSum float64
	var ratios int
	for _, name := range append(Table1KernelNames(), "checksum", "fir") {
		m, _, err := eng.CompileKernel(name, WithAnnotations(false), WithRegAllocAnnotations(false))
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range target.Table1() {
			dep, err := eng.Deploy(m, WithTarget(tgt.Arch))
			if err != nil {
				t.Fatal(err)
			}
			if err := dep.EnsureCompiled(context.Background()); err != nil {
				t.Fatal(err)
			}
			ratioSum += float64(dep.NativeCodeBytes()) / float64(len(m.Encoded()))
			ratios++
		}
	}
	if avg := ratioSum / float64(ratios); avg <= 1 {
		t.Errorf("average native/bytecode expansion = %.2f, want > 1 (bytecode is the compact form)", avg)
	}
}

func TestRunHeteroSurface(t *testing.T) {
	eng := New()
	m, err := eng.Compile(heteroTestSource(t), WithModuleName("hetero-app"))
	if err != nil {
		t.Fatal(err)
	}
	sys := CellLike()
	header := NewArray(U8, 256)
	for i := 0; i < header.Len(); i++ {
		header.SetInt(i, int64((i*7)%256))
	}
	var cycles [2]int64
	var sums [2]int64
	var samples [2]float64
	for i, policy := range []Policy{HostOnly, Annotated} {
		rt, err := eng.DeployHetero(sys, m, policy)
		if err != nil {
			t.Fatal(err)
		}
		for frame := 0; frame < 2; frame++ {
			cres, err := rt.Call("checksum", ArrayArg(header), ScalarArg(I32, IntArg(int64(header.Len()))))
			if err != nil {
				t.Fatal(err)
			}
			if policy == Annotated && cres.Offloaded {
				t.Errorf("control-heavy checksum was offloaded to %s", cres.CoreName)
			}
			nres, sample := saxpyCall(t, rt, 2048)
			if policy == Annotated && !nres.Offloaded {
				t.Errorf("numerical kernel stayed on %s", nres.CoreName)
			}
			cycles[i] += cres.Cycles + nres.Cycles
			sums[i] = cres.Result.I
			samples[i] = sample
		}
	}
	if sums[0] != sums[1] || samples[0] != samples[1] {
		t.Error("host-only and offloaded runs disagree on results")
	}
	if speedup := float64(cycles[0]) / float64(cycles[1]); speedup <= 1 {
		t.Errorf("offload speedup = %.2f, want > 1", speedup)
	}
}

func TestRunScalarizationAblationSurface(t *testing.T) {
	eng := New()
	m, k, err := eng.CompileKernel("saxpy_fp")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInputs("saxpy_fp", 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	var cycles [2]int64
	for i, force := range []bool{false, true} {
		dep, err := eng.Deploy(m, WithTarget(target.X86SSE), WithRegAllocMode(RegAllocSplit), WithForceScalarize(force))
		if err != nil {
			t.Fatal(err)
		}
		run, err := dep.RunKernel(k, in)
		if err != nil {
			t.Fatal(err)
		}
		cycles[i] = run.Cycles
	}
	if ratio := float64(cycles[1]) / float64(cycles[0]); ratio <= 1 {
		t.Errorf("scalarized/SIMD cycle ratio = %.2f, want > 1 on the SIMD-capable target", ratio)
	}
}

// TestResultsRoundTrip covers the reports the public API hands out as JSON
// (cmd/svd serves them): built from a real deployment, each survives a
// marshal/unmarshal round trip unchanged.
func TestResultsRoundTrip(t *testing.T) {
	eng := New()
	m, _, err := eng.CompileKernel("saxpy_fp")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := eng.Deploy(m, WithTarget(target.X86SSE))
	if err != nil {
		t.Fatal(err)
	}
	rep, compile, cache := dep.CompileReport(), eng.CompileStats(), eng.CacheStats()
	if rep.JITSteps <= 0 || len(rep.AnnotationOutcomes) == 0 || compile.Compilations != 1 || cache.Misses != 1 {
		t.Fatalf("degenerate reports from a real deployment: %+v %+v %+v", rep, compile, cache)
	}
	for _, pair := range []struct{ in, out any }{
		{&rep, &CompileReport{}},
		{&compile, &CompileStats{}},
		{&cache, &CacheStats{}},
	} {
		data, err := json.Marshal(pair.in)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, pair.out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pair.in, pair.out) {
			t.Errorf("%T changed in the JSON round trip:\n got %+v\nwant %+v", pair.in, pair.out, pair.in)
		}
	}
}
