package splitvm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/target"
)

// genSource writes a module of n methods — counted loops over scalars and
// arrays, a conditional, a call into the previous method — with the method
// index folded into the constants so no two are alike: the shape of the
// repository benchmark's generated modules.
func genSource(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		call := ""
		if i > 0 {
			call = fmt.Sprintf("acc += fn%d(i, a);\n        ", i-1)
		}
		fmt.Fprintf(&b, `
i32 fn%d(i32 n, i32 a[]) {
    i32 acc = %d;
    for (i32 i = 0; i < n; i++) {
        i32 t = a[i] * %d + i;
        if (t %% 3 == 1) { acc += t; } else { acc -= i; }
        %sa[i] = acc;
    }
    return acc;
}
`, i, i+1, i+2, call)
	}
	return b.String()
}

var onlineTargets = []target.Arch{target.X86SSE, target.Sparc, target.PPC, target.MCU}

// TestOneModuleDeployedConcurrently: one loaded module is deployed on four
// targets from four goroutines while others read its annotation inventory.
// The deployments share the verifier's proofs and race to fill the module's
// annotation memo; outcomes and native code must equal what a module of its
// own, deployed alone, gets. Run under -race.
func TestOneModuleDeployedConcurrently(t *testing.T) {
	eng := New()
	compiled, err := eng.Compile(genSource(12), WithModuleName("shared"))
	if err != nil {
		t.Fatal(err)
	}
	enc := compiled.Encoded()

	type result struct {
		code     string
		outcomes []AnnotationOutcome
	}
	want := make([]result, len(onlineTargets))
	var wantInfo []AnnotationSectionInfo
	for i, arch := range onlineTargets {
		m, err := New().Load(enc)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := New().Deploy(m, WithTarget(arch))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = result{dp.DisassembleNative(), dp.CompileReport().AnnotationOutcomes}
		wantInfo = m.AnnotationInfo()
	}
	if len(wantInfo) == 0 || len(want[0].outcomes) == 0 {
		t.Fatal("the module carries no annotations; nothing would be shared")
	}

	for round := 0; round < 4; round++ {
		shared, err := eng.Load(enc)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]result, len(onlineTargets))
		infos := make([][]AnnotationSectionInfo, len(onlineTargets))
		var wg sync.WaitGroup
		for i, arch := range onlineTargets {
			wg.Add(2)
			go func() {
				defer wg.Done()
				// A fresh engine each, so every goroutine compiles.
				dp, err := New().Deploy(shared, WithTarget(arch))
				if err != nil {
					t.Errorf("%s: %v", arch, err)
					return
				}
				got[i] = result{dp.DisassembleNative(), dp.CompileReport().AnnotationOutcomes}
			}()
			go func() {
				defer wg.Done()
				infos[i] = shared.AnnotationInfo()
			}()
		}
		wg.Wait()
		for i, arch := range onlineTargets {
			if got[i].code != want[i].code {
				t.Errorf("round %d, %s: native code differs from the module deployed alone", round, arch)
			}
			if !reflect.DeepEqual(got[i].outcomes, want[i].outcomes) {
				t.Errorf("round %d, %s: annotation outcomes %v, alone %v", round, arch, got[i].outcomes, want[i].outcomes)
			}
			if !reflect.DeepEqual(infos[i], wantInfo) {
				t.Errorf("round %d: concurrent AnnotationInfo differs", round)
			}
		}
	}
}

// TestAnnotationInfoIsComputedOnDemand: the inventory is no longer taken at
// load time, and what it reports has not changed: the caller gets a copy.
func TestAnnotationInfoIsComputedOnDemand(t *testing.T) {
	m, err := New().Compile(annoTestSource)
	if err != nil {
		t.Fatal(err)
	}
	if m.annoInfo != nil {
		t.Error("the annotation inventory was taken before anybody asked")
	}
	a := m.AnnotationInfo()
	if len(a) == 0 {
		t.Fatal("no annotation info")
	}
	a[0].Key = "scribbled"
	if b := m.AnnotationInfo(); b[0].Key == "scribbled" || len(b) != len(a) {
		t.Error("AnnotationInfo handed out its own storage")
	}
}

// benchSizes are the module sizes of the online-path benchmarks: the
// benchmark's small (1-2 methods), medium (16) and large (64) classes.
var benchSizes = []int{1, 2, 16, 64}

// BenchmarkLoad measures Engine.Load — hash, decode, verify — of generated
// modules on an engine with no image cached: what a Load the verified-module
// index cannot answer costs.
func BenchmarkLoad(b *testing.B) {
	for _, n := range benchSizes {
		compiled, err := New().Compile(genSource(n))
		if err != nil {
			b.Fatal(err)
		}
		enc := compiled.Encoded()
		b.Run(fmt.Sprintf("methods=%d", n), func(b *testing.B) {
			eng := New()
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := eng.Load(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdDeploy measures the whole online step with nothing cached:
// Load plus Deploy on an engine that has never seen the module, per target.
func BenchmarkColdDeploy(b *testing.B) {
	for _, n := range benchSizes {
		compiled, err := New().Compile(genSource(n))
		if err != nil {
			b.Fatal(err)
		}
		enc := compiled.Encoded()
		for _, arch := range []target.Arch{target.X86SSE, target.MCU} {
			b.Run(fmt.Sprintf("methods=%d/%s", n, arch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng := New()
					m, err := eng.Load(enc)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Deploy(m, WithTarget(arch)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWarmLoadDeploy measures the online step of bytes whose image
// the engine caches: a Load the verified-module index answers plus a
// Deploy that hits the code cache.
func BenchmarkWarmLoadDeploy(b *testing.B) {
	for _, n := range []int{2, 16, 64} {
		compiled, err := New().Compile(genSource(n))
		if err != nil {
			b.Fatal(err)
		}
		enc := compiled.Encoded()
		b.Run(fmt.Sprintf("methods=%d", n), func(b *testing.B) {
			eng := New(WithTarget(target.X86SSE))
			m, err := eng.Load(enc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Deploy(m); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := eng.Load(enc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Deploy(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
