package prim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cil"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		k    cil.Kind
		in   int64
		want int64
	}{
		{cil.U8, 256, 0},
		{cil.U8, 255, 255},
		{cil.I8, 128, -128},
		{cil.I8, -1, -1},
		{cil.U16, 65536 + 3, 3},
		{cil.I16, 32768, -32768},
		{cil.U32, 1 << 32, 0},
		{cil.I32, 1 << 31, -(1 << 31)},
		{cil.I64, -5, -5},
		{cil.Bool, 17, 1},
		{cil.Bool, 0, 0},
	}
	for _, c := range cases {
		if got := Normalize(c.k, c.in); got != c.want {
			t.Errorf("Normalize(%s, %d) = %d, want %d", c.k, c.in, got, c.want)
		}
	}
}

func TestBinaryIntegerWrap(t *testing.T) {
	r, err := Binary(cil.Add, cil.U8, Int(cil.U8, 200), Int(cil.U8, 100))
	if err != nil || r.I != 44 {
		t.Errorf("u8 200+100 = %d (err %v), want 44", r.I, err)
	}
	r, err = Binary(cil.Mul, cil.I16, Int(cil.I16, 300), Int(cil.I16, 300))
	if err != nil || r.I != Normalize(cil.I16, 90000) {
		t.Errorf("i16 300*300 = %d, want wrapped", r.I)
	}
	r, err = Binary(cil.Sub, cil.U32, Int(cil.U32, 0), Int(cil.U32, 1))
	if err != nil || uint32(r.I) != math.MaxUint32 {
		t.Errorf("u32 0-1 = %d, want MaxUint32", uint32(r.I))
	}
}

func TestBinaryDivision(t *testing.T) {
	r, err := Binary(cil.Div, cil.I32, Int(cil.I32, -7), Int(cil.I32, 2))
	if err != nil || r.I != -3 {
		t.Errorf("i32 -7/2 = %d, want -3 (C truncation)", r.I)
	}
	r, err = Binary(cil.Div, cil.U32, Int(cil.U32, -1), Int(cil.U32, 2))
	if err != nil || r.I != math.MaxUint32/2 {
		t.Errorf("u32 0xffffffff/2 = %d, want %d", r.I, math.MaxUint32/2)
	}
	if _, err := Binary(cil.Div, cil.I32, Int(cil.I32, 1), Int(cil.I32, 0)); err == nil {
		t.Error("division by zero must trap")
	}
	if _, err := Binary(cil.Rem, cil.U64, Int(cil.U64, 1), Int(cil.U64, 0)); err == nil {
		t.Error("remainder by zero must trap")
	}
	r, err = Binary(cil.Rem, cil.I32, Int(cil.I32, -7), Int(cil.I32, 3))
	if err != nil || r.I != -1 {
		t.Errorf("i32 -7%%3 = %d, want -1", r.I)
	}
}

func TestBinaryShifts(t *testing.T) {
	r, _ := Binary(cil.Shr, cil.I32, Int(cil.I32, -8), Int(cil.I32, 1))
	if r.I != -4 {
		t.Errorf("arithmetic shift right: got %d, want -4", r.I)
	}
	r, _ = Binary(cil.Shr, cil.U32, Int(cil.U32, -8), Int(cil.U32, 1))
	if r.I != int64((uint32(0xFFFFFFF8))>>1) {
		t.Errorf("logical shift right: got %d", r.I)
	}
	r, _ = Binary(cil.Shl, cil.U8, Int(cil.U8, 0x81), Int(cil.U8, 1))
	if r.I != 2 {
		t.Errorf("u8 shl wrap: got %d, want 2", r.I)
	}
}

func TestBinaryFloat(t *testing.T) {
	r, err := Binary(cil.Div, cil.F64, Float(cil.F64, 1), Float(cil.F64, 0))
	if err != nil || !math.IsInf(r.F, 1) {
		t.Errorf("f64 1/0 = %v, want +Inf", r.F)
	}
	r, _ = Binary(cil.Add, cil.F32, Float(cil.F32, 1e-8), Float(cil.F32, 1))
	if r.F != float64(float32(1e-8)+1) {
		t.Errorf("f32 arithmetic must round to single precision: %v", r.F)
	}
	if _, err := Binary(cil.And, cil.F64, Float(cil.F64, 1), Float(cil.F64, 1)); err == nil {
		t.Error("bitwise and on float must be rejected")
	}
	if _, err := Binary(cil.Ret, cil.I32, Scalar{}, Scalar{}); err == nil {
		t.Error("non-binary opcode must be rejected")
	}
}

func TestUnary(t *testing.T) {
	r, err := Unary(cil.Neg, cil.I32, Int(cil.I32, 5))
	if err != nil || r.I != -5 {
		t.Errorf("neg i32 5 = %d", r.I)
	}
	r, err = Unary(cil.Neg, cil.F64, Float(cil.F64, 2.5))
	if err != nil || r.F != -2.5 {
		t.Errorf("neg f64 2.5 = %v", r.F)
	}
	r, err = Unary(cil.Not, cil.U8, Int(cil.U8, 0x0F))
	if err != nil || r.I != 0xF0 {
		t.Errorf("not u8 0x0F = %x, want 0xF0", r.I)
	}
	if _, err := Unary(cil.Not, cil.F32, Scalar{}); err == nil {
		t.Error("not on float must be rejected")
	}
	if _, err := Unary(cil.Add, cil.I32, Scalar{}); err == nil {
		t.Error("non-unary opcode must be rejected")
	}
}

func TestCompareSignedness(t *testing.T) {
	lt, err := Compare(cil.CmpLt, cil.I32, Int(cil.I32, -1), Int(cil.I32, 1))
	if err != nil || !lt {
		t.Error("signed -1 < 1 must hold")
	}
	lt, err = Compare(cil.CmpLt, cil.U32, Int(cil.U32, -1), Int(cil.U32, 1))
	if err != nil || lt {
		t.Error("unsigned 0xffffffff < 1 must not hold")
	}
	ge, _ := Compare(cil.CmpGe, cil.F64, Float(cil.F64, 2), Float(cil.F64, 2))
	if !ge {
		t.Error("2 >= 2 must hold")
	}
	eq, _ := Compare(cil.CmpEq, cil.U8, Int(cil.U8, 256), Int(cil.U8, 0))
	if !eq {
		t.Error("u8 256 == 0 after normalization")
	}
	if _, err := Compare(cil.Add, cil.I32, Scalar{}, Scalar{}); err == nil {
		t.Error("non-comparison opcode must be rejected")
	}
}

func TestConvert(t *testing.T) {
	if got := Convert(cil.F64, cil.I32, Float(cil.F64, -3.9)); got.I != -3 {
		t.Errorf("f64->i32 -3.9 = %d, want -3", got.I)
	}
	if got := Convert(cil.I32, cil.U8, Int(cil.I32, 300)); got.I != 44 {
		t.Errorf("i32->u8 300 = %d, want 44", got.I)
	}
	if got := Convert(cil.U32, cil.F64, Int(cil.U32, -1)); got.F != float64(math.MaxUint32) {
		t.Errorf("u32->f64 0xffffffff = %v", got.F)
	}
	if got := Convert(cil.I8, cil.F32, Int(cil.I8, -2)); got.F != -2 {
		t.Errorf("i8->f32 -2 = %v", got.F)
	}
	if got := Convert(cil.F64, cil.F32, Float(cil.F64, 1e-300)); got.F != 0 {
		t.Errorf("f64->f32 underflow = %v, want 0", got.F)
	}
	if got := Convert(cil.I32, cil.I64, Int(cil.I32, -7)); got.I != -7 {
		t.Errorf("i32->i64 -7 = %d", got.I)
	}
}

func TestIsTrue(t *testing.T) {
	if !IsTrue(cil.I32, Int(cil.I32, 3)) || IsTrue(cil.I32, Int(cil.I32, 0)) {
		t.Error("IsTrue integer misbehaves")
	}
	if !IsTrue(cil.F64, Float(cil.F64, 0.5)) || IsTrue(cil.F64, Float(cil.F64, 0)) {
		t.Error("IsTrue float misbehaves")
	}
}

func TestLaneGetSetRoundTrip(t *testing.T) {
	kinds := []cil.Kind{cil.U8, cil.I8, cil.U16, cil.I16, cil.I32, cil.U32, cil.I64, cil.F32, cil.F64}
	for _, k := range kinds {
		var v Vec
		for lane := 0; lane < k.Lanes(); lane++ {
			var s Scalar
			if k.IsFloat() {
				s = Float(k, float64(lane)*1.5-3)
			} else {
				s = Int(k, int64(lane*7-20))
			}
			LaneSet(k, &v, lane, s)
			got := LaneGet(k, v, lane)
			if k.IsFloat() {
				if got.F != s.F {
					t.Errorf("%s lane %d: got %v want %v", k, lane, got.F, s.F)
				}
			} else if got.I != s.I {
				t.Errorf("%s lane %d: got %d want %d", k, lane, got.I, s.I)
			}
		}
	}
}

func TestVecBinaryAndSplat(t *testing.T) {
	var a, b Vec
	VecSplat(&a, cil.U8, Int(cil.U8, 200))
	VecSplat(&b, cil.U8, Int(cil.U8, 100))
	sum, err := VecBinary(cil.VAdd, cil.U8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 16; lane++ {
		if got := LaneGet(cil.U8, sum, lane).I; got != 44 {
			t.Fatalf("lane %d: u8 200+100 = %d, want 44 (wrap)", lane, got)
		}
	}
	mx, err := VecBinary(cil.VMax, cil.U8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if LaneGet(cil.U8, mx, 3).I != 200 {
		t.Error("vmax.u8 should keep the larger unsigned value")
	}
	if _, err := VecBinary(cil.Add, cil.U8, a, b); err == nil {
		t.Error("non-vector opcode must be rejected")
	}

	var fa, fb Vec
	VecSplat(&fa, cil.F64, Float(cil.F64, 1.5))
	VecSplat(&fb, cil.F64, Float(cil.F64, 2.0))
	fm, err := VecBinary(cil.VMul, cil.F64, fa, fb)
	if err != nil || LaneGet(cil.F64, fm, 1).F != 3.0 {
		t.Error("vmul.f64 wrong")
	}
}

func TestVecReduce(t *testing.T) {
	var v Vec
	for lane := 0; lane < 16; lane++ {
		LaneSet(cil.U8, &v, lane, Int(cil.U8, int64(lane+240))) // lanes hold 240..255
	}
	sum, err := VecReduce(cil.VRedAdd, cil.U8, v)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for lane := 0; lane < 16; lane++ {
		want += int64(uint8(lane + 240))
	}
	if sum.I != want {
		t.Errorf("vredadd.u8 = %d, want %d", sum.I, want)
	}
	mx, err := VecReduce(cil.VRedMax, cil.U8, v)
	if err != nil || mx.I != 255 {
		t.Errorf("vredmax.u8 = %d, want 255", mx.I)
	}
	mn, err := VecReduce(cil.VRedMin, cil.U8, v)
	if err != nil || mn.I != 240 {
		t.Errorf("vredmin.u8 = %d, want 240", mn.I)
	}

	var fv Vec
	VecSplat(&fv, cil.F64, Float(cil.F64, 2.5))
	fs, err := VecReduce(cil.VRedAdd, cil.F64, fv)
	if err != nil || fs.F != 5.0 {
		t.Errorf("vredadd.f64 = %v, want 5", fs.F)
	}
	if _, err := VecReduce(cil.VAdd, cil.F64, fv); err == nil {
		t.Error("non-reduction opcode must be rejected")
	}
}

// Property: for every integer kind, Binary at kind k agrees with doing the
// arithmetic in full 64-bit and normalizing afterwards.
func TestBinaryMatchesNormalizedWideArithmetic(t *testing.T) {
	kinds := []cil.Kind{cil.I8, cil.U8, cil.I16, cil.U16, cil.I32, cil.U32, cil.I64, cil.U64}
	ops := []cil.Opcode{cil.Add, cil.Sub, cil.Mul, cil.And, cil.Or, cil.Xor}
	f := func(a, b int64, ki, oi uint8) bool {
		k := kinds[int(ki)%len(kinds)]
		op := ops[int(oi)%len(ops)]
		x, y := Int(k, a), Int(k, b)
		got, err := Binary(op, k, x, y)
		if err != nil {
			return false
		}
		var wide int64
		switch op {
		case cil.Add:
			wide = x.I + y.I
		case cil.Sub:
			wide = x.I - y.I
		case cil.Mul:
			wide = x.I * y.I
		case cil.And:
			wide = x.I & y.I
		case cil.Or:
			wide = x.I | y.I
		case cil.Xor:
			wide = x.I ^ y.I
		}
		return got.I == Normalize(k, wide)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: LaneSet followed by LaneGet is the identity after normalization,
// for random lanes and values.
func TestLaneRoundTripProperty(t *testing.T) {
	kinds := []cil.Kind{cil.I8, cil.U8, cil.I16, cil.U16, cil.I32, cil.U32, cil.I64, cil.U64}
	f := func(v int64, ki, lane uint8) bool {
		k := kinds[int(ki)%len(kinds)]
		l := int(lane) % k.Lanes()
		var vec Vec
		LaneSet(k, &vec, l, Int(k, v))
		return LaneGet(k, vec, l).I == Normalize(k, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
