package jit

import (
	"strings"
	"testing"

	"repro/internal/cil"
	"repro/internal/prim"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/vm"
)

// joinVecCopy is `b[0..3] = a[0..3]` with the loaded vector live on the
// evaluation stack across a branch:
//
//	ldarg b; ldc 0; ldarg a; ldc 0; vload.f32; br L; L: vstore.f32; ret
func joinVecCopy() *cil.Method {
	b := cil.NewMethodBuilder("copy4", []cil.Type{cil.Array(cil.F32), cil.Array(cil.F32)}, cil.Scalar(cil.Void))
	l := b.NewLabel()
	b.LoadArg(1).ConstI(cil.I32, 0).LoadArg(0).ConstI(cil.I32, 0).OpK(cil.VLoad, cil.F32).Branch(l)
	b.Bind(l)
	b.OpK(cil.VStore, cil.F32).Return()
	return b.MustFinish()
}

// joinVecLoop keeps a vector accumulator on the evaluation stack around a
// loop's back edge: b[0..3] = a[0..3] + a[4..7] + a[8..11] + a[12..15].
func joinVecLoop() *cil.Method {
	b := cil.NewMethodBuilder("sum4", []cil.Type{cil.Array(cil.F32), cil.Array(cil.F32)}, cil.Scalar(cil.Void))
	i := b.AddLocal(cil.Scalar(cil.I32))
	head := b.NewLabel()
	b.ConstI(cil.I32, 4).StoreLocal(i)
	b.LoadArg(1).ConstI(cil.I32, 0).LoadArg(0).ConstI(cil.I32, 0).OpK(cil.VLoad, cil.F32)
	b.Bind(head) // entry stack: [f32[], i32, vec.f32]
	b.LoadArg(0).LoadLocal(i).OpK(cil.VLoad, cil.F32).OpK(cil.VAdd, cil.F32)
	b.LoadLocal(i).ConstI(cil.I32, 4).OpK(cil.Add, cil.I32).StoreLocal(i)
	b.LoadLocal(i).ConstI(cil.I32, 16).OpK(cil.CmpLt, cil.I32).BranchTrue(head)
	b.OpK(cil.VStore, cil.F32).Return()
	return b.MustFinish()
}

// joinVecViaLocal copies sixteen bytes through a vector local and across a
// branch. A vector local's declaration names no element kind, so the join
// layout cannot either; scalarized, such a vector is always byte lanes.
func joinVecViaLocal() *cil.Method {
	b := cil.NewMethodBuilder("copy16", []cil.Type{cil.Array(cil.U8), cil.Array(cil.U8)}, cil.Scalar(cil.Void))
	v := b.AddLocal(cil.Scalar(cil.Vec))
	l := b.NewLabel()
	b.LoadArg(0).ConstI(cil.I32, 0).OpK(cil.VLoad, cil.U8).StoreLocal(v)
	b.LoadArg(1).ConstI(cil.I32, 0).LoadLocal(v).Branch(l)
	b.Bind(l)
	b.OpK(cil.VStore, cil.U8).Return()
	return b.MustFinish()
}

// TestVectorLiveAcrossJoin: a vector on the evaluation stack at a join point
// must survive on every target, scalarizing ones included. The join layout
// used to assume sixteen integer byte lanes whatever the vector held, so a
// float vector came out as zeros on mcu and ultrasparc.
func TestVectorLiveAcrossJoin(t *testing.T) {
	const n = 16
	for _, m := range []*cil.Method{joinVecCopy(), joinVecLoop(), joinVecViaLocal()} {
		elem := m.Params[0].Elem
		mod := cil.NewModule("joinvec")
		if err := mod.AddMethod(m); err != nil {
			t.Fatal(err)
		}
		if err := cil.Verify(mod); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		newArrays := func() (a, b *vm.Array) {
			a, b = vm.NewArray(elem, n), vm.NewArray(elem, n)
			for i := 0; i < n; i++ {
				// 1.5, 3.5, ... for floats; 3, 5, ... for bytes.
				if err := a.Set(i, prim.Convert(cil.F64, elem, prim.Float(cil.F64, float64(2*i)+3.5))); err != nil {
					t.Fatal(err)
				}
			}
			return a, b
		}
		rt, err := vm.NewRuntime(mod.Clone())
		if err != nil {
			t.Fatal(err)
		}
		a, want := newArrays()
		if _, err := rt.Call(m.Name, vm.RefValue(a), vm.RefValue(want)); err != nil {
			t.Fatalf("%s: interpreter: %v", m.Name, err)
		}
		if want.Float(0) == 0 && want.Int(0) == 0 {
			t.Fatalf("%s: the interpreter stored nothing", m.Name)
		}
		for _, tgt := range target.All() {
			for _, opts := range []Options{{}, {ForceScalarize: true}, {RegAlloc: RegAllocOptimal}} {
				machine, _ := deploy(t, mod, tgt, opts)
				a, got := newArrays()
				aAddr, bAddr := machine.CopyInArray(a), machine.CopyInArray(got)
				if _, err := machine.Call(m.Name, sim.IntArg(int64(aAddr)), sim.IntArg(int64(bAddr))); err != nil {
					t.Fatalf("%s on %s: %v", m.Name, tgt.Name, err)
				}
				if err := machine.CopyOutArray(bAddr, got); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if got.Float(i) != want.Float(i) || got.Int(i) != want.Int(i) {
						t.Errorf("%s on %s %+v: b[%d] = %v/%v, interpreter %v/%v", m.Name, tgt.Name, opts, i,
							got.Float(i), got.Int(i), want.Float(i), want.Int(i))
					}
				}
			}
		}
	}
}

// TestWideVectorLocalIsRefusedWhenScalarized: a scalarized vector local is
// sixteen byte lanes, so storing a vector of wider elements into one used to
// index past the stored vector's lanes and panic the translator.
func TestWideVectorLocalIsRefusedWhenScalarized(t *testing.T) {
	b := cil.NewMethodBuilder("acc", []cil.Type{cil.Array(cil.F64)}, cil.Scalar(cil.F64))
	acc := b.AddLocal(cil.Scalar(cil.Vec))
	b.LoadArg(0).ConstI(cil.I32, 0).OpK(cil.VLoad, cil.F64).StoreLocal(acc)
	b.LoadLocal(acc).OpK(cil.VRedAdd, cil.F64).Return()
	mod := cil.NewModule("joinvec")
	if err := mod.AddMethod(b.MustFinish()); err != nil {
		t.Fatal(err)
	}
	if err := cil.Verify(mod); err != nil {
		t.Fatal(err)
	}
	if _, err := New(target.MustLookup(target.X86SSE), Options{}).CompileModule(mod); err != nil {
		t.Errorf("SIMD compilation failed: %v", err)
	}
	_, err := New(target.MustLookup(target.MCU), Options{}).CompileModule(mod)
	if err == nil || !strings.Contains(err.Error(), "byte lanes only") {
		t.Errorf("scalarizing: err = %v, want a refusal", err)
	}
}
