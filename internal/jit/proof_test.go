package jit

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cil"
	"repro/internal/kernels"
	"repro/internal/target"
)

// callHeavySource exercises what the kernels do not: calls with no, few and
// many arguments (the latter spill into ArgSlots on small register files).
const callHeavySource = `
i64 zero() { return 7; }
f64 scale(f64 x) { return x * 2.5 - 0.125; }
i64 wide(i64 a, i64 b, i64 c, i64 d, i64 e, i64 f, i64 g, i64 h, i64 i, i64 j) {
    return a + b * c - d + e * f - g + h * i - j;
}
i64 caller(i64 n) {
    i64 s = zero();
    for (i64 k = 0; k < n; k++) {
        s = s + wide(k, s, k + 1, s + 2, k + 3, s + 4, k + 5, s + 6, k + 7, s + 8);
    }
    return s + (i64) scale((f64) n);
}
`

// TestProofAndReverificationCompileIdentically: code compiled from the proof
// Verify left on a module equals, instruction for instruction and outcome for
// outcome, code compiled from its clone, which carries no proof and no
// annotation memo and which the JIT therefore verifies and negotiates itself.
func TestProofAndReverificationCompileIdentically(t *testing.T) {
	sources := map[string]string{"calls": callHeavySource}
	for _, k := range kernels.All() {
		sources[k.Name] = k.Source
	}
	for name, src := range sources {
		mod := benchModule(t, src) // annotated and verified
		for _, tgt := range target.All() {
			for _, mode := range []RegAllocMode{RegAllocOnline, RegAllocSplit, RegAllocOptimal} {
				for _, scalarize := range []bool{false, true} {
					c := New(tgt, Options{RegAlloc: mode, ForceScalarize: scalarize})
					prog, rep, err := c.CompileModuleReport(mod)
					if err != nil {
						t.Fatalf("%s on %s: %v", name, tgt.Name, err)
					}
					clone := mod.Clone()
					cprog, crep, err := c.CompileModuleReport(clone)
					if err != nil {
						t.Fatalf("%s on %s: clone: %v", name, tgt.Name, err)
					}
					if !reflect.DeepEqual(prog, cprog) || !reflect.DeepEqual(rep, crep) {
						t.Errorf("%s on %s %v scalarize=%t: compiling from the proof and re-verifying diverge", name, tgt.Name, mode, scalarize)
					}
				}
			}
		}
	}
}

// TestEditedCloneIsVerifiedAgain: a clone of a verified module is there to
// be edited; whatever is done to its code, the JIT verifies what it compiles.
func TestEditedCloneIsVerifiedAgain(t *testing.T) {
	mod := benchModule(t, kernels.MustGet("saxpy_fp").Source)
	c := New(target.MustLookup(target.X86SSE), Options{})
	if _, err := c.CompileModule(mod); err != nil {
		t.Fatal(err)
	}
	clone := mod.Clone()
	m := clone.Methods[0]
	for pc := range m.Code {
		if m.Code[pc].Op == cil.Ret {
			m.Code[pc] = cil.Instr{Op: cil.Pop} // same length, no longer valid
		}
	}
	_, err := c.CompileModule(clone)
	if err == nil || !strings.Contains(err.Error(), "verify") {
		t.Errorf("compiling an edited clone: err = %v, want a verification error", err)
	}
}

// TestWarmCompileAllocatesAConstantPerMethod: on a warm scratch state a
// method costs the two objects the compiled function is made of — the Func
// and its code (Params is the verified module's own) — plus, when it calls,
// one slab of call sites, one for every call's ArgSlots and the argument
// list of each call. Nothing per instruction.
func TestWarmCompileAllocatesAConstantPerMethod(t *testing.T) {
	mod := benchModule(t, manyMethodSource(2)+callHeavySource)
	for _, arch := range []target.Arch{target.X86SSE, target.MCU} {
		c := New(target.MustLookup(arch), Options{RegAlloc: RegAllocSplit})
		st := new(compileState)
		for _, m := range mod.Methods {
			if _, _, err := c.compileMethod(st, mod, m); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range mod.Methods {
			calls := 0
			for _, in := range m.Code {
				if in.Op == cil.Call {
					calls++
				}
			}
			want := 2.0
			if calls > 0 {
				want += 2 + float64(calls)
			}
			got := testing.AllocsPerRun(10, func() {
				if _, _, err := c.compileMethod(st, mod, m); err != nil {
					t.Fatal(err)
				}
			})
			if got > want {
				t.Errorf("%s/%s (%d instructions, %d calls): %.0f allocations, want <= %.0f", arch, m.Name, len(m.Code), calls, got, want)
			}
		}
	}
}

// TestDefaultWorkersFollowTheWork: nobody having pinned the pool, a module
// too small to feed two workers compiles on the calling goroutine (one
// worker is the sequential loop: CompileModuleReport reaches no go
// statement), a large one fans out, and an explicit count is honoured
// whatever the size; all three produce the same program.
func TestDefaultWorkersFollowTheWork(t *testing.T) {
	if envCompileWorkers() != 0 {
		t.Skip("SPLITVM_COMPILE_WORKERS pins the pool")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tgt := target.MustLookup(target.X86SSE)
	small := benchModule(t, manyMethodSource(1)) // 2 methods
	large := benchModule(t, manyMethodSource(32))
	if n := len(small.Methods); n != 2 {
		t.Fatalf("small module has %d methods", n)
	}

	byDefault := New(tgt, Options{RegAlloc: RegAllocSplit})
	pinned := New(tgt, Options{RegAlloc: RegAllocSplit, CompileWorkers: 8})
	sequential := New(tgt, Options{RegAlloc: RegAllocSplit, CompileWorkers: 1})
	if w := byDefault.compileWorkers(small); w != 1 {
		t.Errorf("2-method module: %d workers by default, want the calling goroutine only", w)
	}
	if w := pinned.compileWorkers(small); w != 2 {
		t.Errorf("2-method module, CompileWorkers 8: %d workers, want one a method", w)
	}
	if w := byDefault.compileWorkers(large); w < 2 {
		t.Errorf("64-method module: %d workers by default, want a pool", w)
	}
	if w := sequential.compileWorkers(large); w != 1 {
		t.Errorf("64-method module, CompileWorkers 1: %d workers", w)
	}

	for _, mod := range []*cil.Module{small, large} {
		want, wantRep, err := sequential.CompileModuleReport(mod)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Compiler{"default": byDefault, "pinned": pinned} {
			got, gotRep, err := c.CompileModuleReport(mod)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRep, wantRep) {
				t.Errorf("%d methods, %s workers: program differs from the sequential one", len(mod.Methods), name)
			}
		}
	}
}

// BenchmarkCompileDefaultWorkers is the measurement behind
// minInstrsPerWorker: the default pool (workers=0) against the sequential
// loop and a full pool, on modules either side of the break-even.
func BenchmarkCompileDefaultWorkers(b *testing.B) {
	tgt := target.MustLookup(target.X86SSE)
	for _, methods := range []int{2, 16, 64} {
		mod := benchModule(b, manyMethodSource(methods/2))
		for _, workers := range []int{0, 1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("methods=%d/workers=%d", methods, workers), func(b *testing.B) {
				c := New(tgt, Options{RegAlloc: RegAllocSplit, CompileWorkers: workers})
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := c.CompileModuleReport(mod); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
