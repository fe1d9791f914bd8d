package jit

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/nisa"
	"repro/internal/target"
)

// TestCompileDeterministicAcrossWorkers is the differential gate of the
// parallel compile pipeline: for every Table 1 kernel, every registered
// target and every register allocation mode, the program compiled with one
// worker must be byte-identical to the program compiled with many workers —
// same instructions, same stats (the gated compile-steps and spill metrics),
// same annotation-negotiation report. Run under -race in CI, it also proves
// the worker pool shares no mutable state.
func TestCompileDeterministicAcrossWorkers(t *testing.T) {
	modes := []RegAllocMode{RegAllocOnline, RegAllocSplit, RegAllocOptimal}

	sources := map[string]string{"multi": manyMethodSource(6)}
	for _, name := range kernels.Table1Names {
		sources[name] = kernels.MustGet(name).Source
	}

	for srcName, src := range sources {
		mod := benchModule(t, src)
		for _, tgt := range target.All() {
			for _, mode := range modes {
				name := fmt.Sprintf("%s/%s/%s", srcName, tgt.Arch, mode)
				seqC := New(tgt, Options{RegAlloc: mode, CompileWorkers: 1})
				parC := New(tgt, Options{RegAlloc: mode, CompileWorkers: 8})

				seqProg, seqRep, err := seqC.CompileModuleReport(mod)
				if err != nil {
					t.Fatalf("%s: sequential compile: %v", name, err)
				}
				parProg, parRep, err := parC.CompileModuleReport(mod)
				if err != nil {
					t.Fatalf("%s: parallel compile: %v", name, err)
				}

				if !reflect.DeepEqual(seqProg, parProg) {
					t.Errorf("%s: parallel compilation diverged from sequential", name)
				}
				if got, want := parProg.Disassemble(), seqProg.Disassemble(); got != want {
					t.Errorf("%s: disassembly differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s",
						name, want, got)
				}
				if !reflect.DeepEqual(seqRep, parRep) {
					t.Errorf("%s: annotation report differs between workers=1 and workers=8", name)
				}
			}
		}
	}
}

// TestCompileDeterministicRepeatedOnWarmPool compiles the same module many
// times through the package-level scratch pool and requires every result to
// equal the first: a dirty pooled state that leaks anything between
// compilations shows up as drift here.
func TestCompileDeterministicRepeatedOnWarmPool(t *testing.T) {
	mod := benchModule(t, manyMethodSource(4))
	tgt := target.MustLookup(target.MCU) // smallest register file: spill paths run
	c := New(tgt, Options{RegAlloc: RegAllocSplit})

	first, _, err := c.CompileModuleReport(mod)
	if err != nil {
		t.Fatal(err)
	}
	ref := first.Disassemble()
	for i := 0; i < 16; i++ {
		prog, _, err := c.CompileModuleReport(mod)
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Disassemble(); got != ref {
			t.Fatalf("compilation %d differs from the first on a warm pool", i+1)
		}
		if !reflect.DeepEqual(first, prog) {
			t.Fatalf("compilation %d not deeply equal to the first", i+1)
		}
	}
}

// TestScratchStateResetBetweenCompilations pins the pool-reuse contract
// directly: compiling on a state dirtied by a much larger, spill-heavy
// module must produce exactly what a brand-new state produces, and reset
// must leave no residue in the translator's buffers.
func TestScratchStateResetBetweenCompilations(t *testing.T) {
	big := benchModule(t, manyMethodSource(6))
	small := benchModule(t, `
i32 tiny(i32 a, i32 b) { return a * b + 1; }
`)
	tgt := target.MustLookup(target.MCU).WithIntRegs(4) // force spills on big
	c := New(tgt, Options{RegAlloc: RegAllocSplit})

	dirty := new(compileState)
	for _, m := range big.Methods {
		if _, _, err := c.compileMethod(dirty, big, m); err != nil {
			t.Fatalf("dirtying compile: %v", err)
		}
	}

	gotF, _, err := c.compileMethod(dirty, small, small.Methods[0])
	if err != nil {
		t.Fatal(err)
	}
	wantF, _, err := c.compileMethod(new(compileState), small, small.Methods[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotF, wantF) {
		t.Error("compiling on a dirty scratch state diverged from a fresh state")
	}

	// The reset itself must empty every translator buffer (capacity may and
	// should survive; contents must not).
	tr := &dirty.tr
	tr.reset(c, small, small.Methods[0], dirty)
	switch {
	case len(tr.code) != 0, len(tr.vregs) != 0, len(tr.stack) != 0,
		len(tr.argVreg) != 0, len(tr.locVreg) != 0, len(tr.locLanes) != 0,
		len(tr.nativeStart) != 0, len(tr.fixups) != 0:
		t.Error("translator reset left a non-empty buffer")
	case len(tr.canon) != 0:
		t.Error("translator reset left canonical-vreg map entries")
	case tr.lastCmp.valid:
		t.Error("translator reset left a fused-compare state")
	case tr.stats != (nisa.Stats{}):
		t.Error("translator reset left statistics")
	}

	// The arena rewinds per method: after beginMethod nothing is handed out.
	dirty.beginMethod()
	if len(dirty.ints) != 0 {
		t.Error("beginMethod did not rewind the lane arena")
	}
}
