package vm

import (
	"testing"

	"repro/internal/cil"
	"repro/internal/prim"
)

func TestArrayScalarAccess(t *testing.T) {
	a := NewArray(cil.U8, 10)
	if a.Len() != 10 {
		t.Fatalf("Len = %d, want 10", a.Len())
	}
	if err := a.SetInt(3, 300); err != nil {
		t.Fatal(err)
	}
	if got := a.Int(3); got != 300%256 {
		t.Errorf("u8 store of 300 reads back %d, want 44", got)
	}

	f := NewArray(cil.F64, 4)
	if err := f.SetFloat(2, 2.5); err != nil {
		t.Fatal(err)
	}
	if got := f.Float(2); got != 2.5 {
		t.Errorf("f64 element = %v, want 2.5", got)
	}

	i16 := NewArray(cil.I16, 4)
	if err := i16.SetInt(0, -5); err != nil {
		t.Fatal(err)
	}
	if got := i16.Int(0); got != -5 {
		t.Errorf("i16 element = %d, want -5 (sign extension)", got)
	}
}

func TestArrayBoundsAndNil(t *testing.T) {
	a := NewArray(cil.I32, 4)
	if err := a.SetInt(4, 1); err == nil {
		t.Error("out-of-range store accepted")
	}
	if _, err := a.Get(-1); err == nil {
		t.Error("negative index accepted")
	}
	var nilArr *Array
	if nilArr.Len() != 0 {
		t.Error("nil array Len should be 0")
	}
	if _, err := nilArr.Get(0); err == nil {
		t.Error("nil array access accepted")
	}
}

func TestArrayVectorAccess(t *testing.T) {
	a := NewArray(cil.U8, 20)
	for i := 0; i < 20; i++ {
		if err := a.SetInt(i, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := a.GetVec(2)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 16; lane++ {
		if got := prim.LaneGet(cil.U8, v, lane).I; got != int64(lane+2) {
			t.Fatalf("lane %d = %d, want %d", lane, got, lane+2)
		}
	}
	if _, err := a.GetVec(5); err == nil {
		t.Error("vector load past the end accepted")
	}
	if err := a.SetVec(4, v); err != nil {
		t.Fatal(err)
	}
	if got := a.Int(4); got != 2 {
		t.Errorf("after SetVec(4), element 4 = %d, want 2", got)
	}

	f := NewArray(cil.F64, 3)
	var vv prim.Vec
	prim.VecSplat(&vv, cil.F64, prim.Float(cil.F64, 1.25))
	if err := f.SetVec(0, vv); err != nil {
		t.Fatal(err)
	}
	if f.Float(1) != 1.25 {
		t.Error("f64 vector store did not reach element 1")
	}
	if err := f.SetVec(2, vv); err == nil {
		t.Error("f64 vector store past the end accepted")
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	if IntValue(cil.U8, 300).Int() != 44 {
		t.Error("IntValue must normalize to the stack kind")
	}
	if FloatValue(cil.F32, 1.5).Float() != 1.5 {
		t.Error("FloatValue lost its payload")
	}
	a := NewArray(cil.I32, 2)
	if RefValue(a).Ref != a {
		t.Error("RefValue lost its payload")
	}
	for _, v := range []Value{IntValue(cil.I32, 3), FloatValue(cil.F64, 2.5), RefValue(a), RefValue(nil), VecValue(prim.Vec{})} {
		if v.String() == "" {
			t.Errorf("empty String() for %v", v.Kind)
		}
	}
}
