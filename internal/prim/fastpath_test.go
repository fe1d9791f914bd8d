package prim

import (
	"math"
	"testing"

	"repro/internal/cil"
)

var intKinds = []cil.Kind{cil.Bool, cil.I8, cil.U8, cil.I16, cil.U16, cil.I32, cil.U32, cil.I64, cil.U64}

// scalarEq compares scalars bitwise so NaN results compare equal.
func scalarEq(a, b Scalar) bool {
	return a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// interesting integer operand patterns: boundaries, sign bits, wrap cases.
var intProbes = []int64{0, 1, -1, 2, 127, 128, 255, 256, -128, -129, 32767, 65535,
	1<<31 - 1, 1 << 31, -1 << 31, 1<<63 - 1, -1 << 63, 0x55AA55AA55AA55AA, -42}

func TestNormModeMatchesNormalize(t *testing.T) {
	// Every kind, not just the integer ones: Normalize is the identity on
	// floats, Ref, Vec and Void, and NormModeOf must agree.
	allKinds := append([]cil.Kind{cil.Void, cil.F32, cil.F64, cil.Ref, cil.Vec}, intKinds...)
	for _, k := range allKinds {
		nm := NormModeOf(k)
		for _, v := range intProbes {
			if got, want := nm.Apply(v), Normalize(k, v); got != want {
				t.Errorf("NormModeOf(%s).Apply(%d) = %d, Normalize = %d", k, v, got, want)
			}
		}
	}
}

// refLaneGet and refLaneSet are the byte-at-a-time lane accessors the
// reference loops below are built on. They share nothing with vec.go, so
// the oracle stays independent of the implementation it checks.
func refLaneGet(k cil.Kind, v Vec, lane int) Scalar {
	sz := k.Size()
	off := lane * sz
	var bits uint64
	for b := 0; b < sz; b++ {
		bits |= uint64(v[off+b]) << (8 * b)
	}
	switch k {
	case cil.F32:
		return Scalar{F: float64(math.Float32frombits(uint32(bits)))}
	case cil.F64:
		return Scalar{F: math.Float64frombits(bits)}
	default:
		return Int(k, int64(bits))
	}
}

func refLaneSet(k cil.Kind, v *Vec, lane int, s Scalar) {
	sz := k.Size()
	off := lane * sz
	var bits uint64
	switch k {
	case cil.F32:
		bits = uint64(math.Float32bits(float32(s.F)))
	case cil.F64:
		bits = math.Float64bits(s.F)
	default:
		bits = uint64(Normalize(k, s.I))
	}
	for b := 0; b < sz; b++ {
		v[off+b] = byte(bits >> (8 * b))
	}
}

var scalarOpOf = map[cil.Opcode]cil.Opcode{cil.VAdd: cil.Add, cil.VSub: cil.Sub, cil.VMul: cil.Mul}

// referenceVecBinary is the per-lane generic loop — one erroring scalar
// Binary or Compare per lane — kept as the test oracle for the lane-typed
// implementation.
func referenceVecBinary(op cil.Opcode, k cil.Kind, a, b Vec) Vec {
	var out Vec
	for lane := 0; lane < k.Lanes(); lane++ {
		x, y := refLaneGet(k, a, lane), refLaneGet(k, b, lane)
		var r Scalar
		switch op {
		case cil.VAdd, cil.VSub, cil.VMul:
			r, _ = Binary(scalarOpOf[op], k, x, y)
		case cil.VMax, cil.VMin:
			cmp := cil.CmpGt
			if op == cil.VMin {
				cmp = cil.CmpLt
			}
			if keep, _ := Compare(cmp, k, x, y); keep {
				r = x
			} else {
				r = y
			}
		}
		refLaneSet(k, &out, lane, r)
	}
	return out
}

func referenceVecSplat(k cil.Kind, s Scalar) Vec {
	var out Vec
	for lane := 0; lane < k.Lanes(); lane++ {
		refLaneSet(k, &out, lane, s)
	}
	return out
}

func referenceVecReduce(op cil.Opcode, k cil.Kind, v Vec) Scalar {
	rk := cil.ReduceKind(op, k)
	acc := refLaneGet(k, v, 0)
	for lane := 1; lane < k.Lanes(); lane++ {
		x := refLaneGet(k, v, lane)
		switch op {
		case cil.VRedAdd:
			if k.IsFloat() {
				acc = Float(rk, acc.F+x.F)
			} else {
				acc = Scalar{I: acc.I + x.I}
			}
		default:
			cmp := cil.CmpGt
			if op == cil.VRedMin {
				cmp = cil.CmpLt
			}
			if keep, _ := Compare(cmp, k, x, acc); keep {
				acc = x
			}
		}
	}
	if !k.IsFloat() {
		acc.I = Normalize(rk, acc.I)
	}
	return acc
}

// sameVecResult reports whether got is the reference result want, bit for
// bit, up to the one thing the host leaves open: which payload the sum or
// product of two NaNs carries. Add and multiply commute, so the compiler
// may hand the FPU the operands of the reference loop and of the lane-typed
// code in different orders, and the FPU returns the first one's payload.
// Everything else — one NaN operand, subtraction, the lane max/min select —
// is fixed and must match exactly.
func sameVecResult(op cil.Opcode, k cil.Kind, a, b, got, want Vec) bool {
	if got == want {
		return true
	}
	if !k.IsFloat() || (op != cil.VAdd && op != cil.VMul) {
		return false
	}
	for lane := 0; lane < k.Lanes(); lane++ {
		g, w := refLaneGet(k, got, lane), refLaneGet(k, want, lane)
		if scalarEq(g, w) {
			continue
		}
		x, y := refLaneGet(k, a, lane), refLaneGet(k, b, lane)
		if !(math.IsNaN(x.F) && math.IsNaN(y.F) && math.IsNaN(g.F) && math.IsNaN(w.F)) {
			return false
		}
	}
	return true
}

// sameReduceResult is sameVecResult for reductions: a float sum that is NaN
// in both carries whichever payload the host's additions propagated.
func sameReduceResult(op cil.Opcode, k cil.Kind, got, want Scalar) bool {
	if scalarEq(got, want) {
		return true
	}
	return k.IsFloat() && op == cil.VRedAdd && got.I == want.I && math.IsNaN(got.F) && math.IsNaN(want.F)
}

var vecKinds = []cil.Kind{cil.I8, cil.U8, cil.I16, cil.U16, cil.I32, cil.U32, cil.I64, cil.U64, cil.F32, cil.F64}

func testVectors() []Vec {
	patterns := [][16]byte{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x80, 0x00, 0x80, 0x7F, 0xFF, 0x80, 0x01, 0xFE, 0x80, 0x00, 0x80, 0x7F, 0xFF, 0x80, 0x01, 0xFE},
		{0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0},
	}
	out := make([]Vec, len(patterns))
	for i, p := range patterns {
		out[i] = Vec(p)
	}
	// A vector of float lanes (f32 1.5, -2.25, 3e7, -0.0 / f64 views of same bits).
	var f Vec
	for lane, v := range []float32{1.5, -2.25, 3e7, math.Float32frombits(0x80000000)} {
		bits := math.Float32bits(v)
		for b := 0; b < 4; b++ {
			f[lane*4+b] = byte(bits >> (8 * b))
		}
	}
	return append(out, f)
}

func TestVecBinaryNoTrapMatchesReference(t *testing.T) {
	vecs := testVectors()
	for _, k := range vecKinds {
		for _, op := range []cil.Opcode{cil.VAdd, cil.VSub, cil.VMul, cil.VMax, cil.VMin} {
			for _, a := range vecs {
				for _, b := range vecs {
					want := referenceVecBinary(op, k, a, b)
					var got Vec
					if VecBinaryNoTrap(&got, op, k, &a, &b); !sameVecResult(op, k, a, b, got, want) {
						t.Fatalf("VecBinaryNoTrap(%s, %s, %x, %x) = %x, want %x", op, k, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestVecReduceNoTrapMatchesReference(t *testing.T) {
	vecs := testVectors()
	for _, k := range vecKinds {
		for _, op := range []cil.Opcode{cil.VRedAdd, cil.VRedMax, cil.VRedMin} {
			for _, v := range vecs {
				want := referenceVecReduce(op, k, v)
				if got := VecReduceNoTrap(op, k, &v); !sameReduceResult(op, k, got, want) {
					t.Fatalf("VecReduceNoTrap(%s, %s, %x) = %+v, want %+v", op, k, v, got, want)
				}
			}
		}
	}
}
