package prim

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cil"
)

// This file holds the vector unit shared by the reference interpreter and
// the simulator: one lane-typed implementation per operation, working in
// place on 16-byte registers with little-endian lanes.
//
// The rounding and NaN contract, per lane: integer lanes wrap at the lane
// width; F64 lanes compute in float64; F32 lanes widen to float64, compute,
// and round back to float32 at every step — also for max/min and for the
// lane an operation merely selects, so a signalling NaN leaves quieted.
// Max keeps x unless x<y or x==y and min keeps x only when x<y, so an
// unordered pair selects x for max and y for min.

var le = binary.LittleEndian

// Vec is the portable 16-byte virtual vector payload.
type Vec [cil.VecBytes]byte

// Load fills the register from the first 16 bytes of b.
func (v *Vec) Load(b []byte) { *v = Vec(b) }

// Store writes the register to the first 16 bytes of b.
func (v *Vec) Store(b []byte) { *(*Vec)(b) = *v }

// LoadScalar reads one element of kind k from the head of b. A Vec-kind
// element carries only its low 64 bits.
func LoadScalar(k cil.Kind, b []byte) Scalar {
	switch k {
	case cil.F32:
		return Scalar{F: float64(math.Float32frombits(le.Uint32(b)))}
	case cil.F64:
		return Scalar{F: math.Float64frombits(le.Uint64(b))}
	}
	var bits uint64
	switch k.Size() {
	case 1:
		bits = uint64(b[0])
	case 2:
		bits = uint64(le.Uint16(b))
	case 4:
		bits = uint64(le.Uint32(b))
	case 8, cil.VecBytes:
		bits = le.Uint64(b)
	}
	return Int(k, int64(bits))
}

// StoreScalar writes one element of kind k to the head of b.
func StoreScalar(k cil.Kind, b []byte, s Scalar) {
	switch k {
	case cil.F32:
		le.PutUint32(b, math.Float32bits(float32(s.F)))
		return
	case cil.F64:
		le.PutUint64(b, math.Float64bits(s.F))
		return
	}
	bits := uint64(Normalize(k, s.I))
	switch k.Size() {
	case 1:
		b[0] = byte(bits)
	case 2:
		le.PutUint16(b, uint16(bits))
	case 4:
		le.PutUint32(b, uint32(bits))
	case 8:
		le.PutUint64(b, bits)
	case cil.VecBytes:
		le.PutUint64(b, bits)
		le.PutUint64(b[8:], 0)
	}
}

// LaneGet reads lane i of the vector interpreted with element kind k.
func LaneGet(k cil.Kind, v Vec, lane int) Scalar { return LoadScalar(k, v[lane*k.Size():]) }

// LaneSet writes lane i of the vector with element kind k.
func LaneSet(k cil.Kind, v *Vec, lane int, s Scalar) { StoreScalar(k, v[lane*k.Size():], s) }

// VecBinary applies the element-wise vector operation op (cil.VAdd, cil.VSub,
// cil.VMul, cil.VMax or cil.VMin) with element kind k.
func VecBinary(op cil.Opcode, k cil.Kind, a, b Vec) (Vec, error) {
	switch op {
	case cil.VAdd, cil.VSub, cil.VMul, cil.VMax, cil.VMin:
		VecBinaryNoTrap(&a, op, k, &a, &b)
		return a, nil
	}
	return Vec{}, fmt.Errorf("prim: %s is not an element-wise vector operation", op)
}

// VecBinaryNoTrap sets dst to a op b lane by lane; dst may alias either
// operand. None of the element-wise operations can trap (there is no vector
// division). An opcode VecBinary would reject, or a kind that cannot be a
// vector element, yields the zero vector.
func VecBinaryNoTrap(dst *Vec, op cil.Opcode, k cil.Kind, a, b *Vec) {
	switch k {
	case cil.I8:
		for i := range dst {
			dst[i] = byte(intLane(op, int64(int8(a[i])), int64(int8(b[i])), 0))
		}
	case cil.U8:
		for i := range dst {
			dst[i] = byte(intLane(op, int64(a[i]), int64(b[i]), 0))
		}
	case cil.I16:
		for i := 0; i < cil.VecBytes; i += 2 {
			x, y := int64(int16(le.Uint16(a[i:]))), int64(int16(le.Uint16(b[i:])))
			le.PutUint16(dst[i:], uint16(intLane(op, x, y, 0)))
		}
	case cil.U16:
		for i := 0; i < cil.VecBytes; i += 2 {
			x, y := int64(le.Uint16(a[i:])), int64(le.Uint16(b[i:]))
			le.PutUint16(dst[i:], uint16(intLane(op, x, y, 0)))
		}
	case cil.I32:
		for i := 0; i < cil.VecBytes; i += 4 {
			x, y := int64(int32(le.Uint32(a[i:]))), int64(int32(le.Uint32(b[i:])))
			le.PutUint32(dst[i:], uint32(intLane(op, x, y, 0)))
		}
	case cil.U32:
		for i := 0; i < cil.VecBytes; i += 4 {
			x, y := int64(le.Uint32(a[i:])), int64(le.Uint32(b[i:]))
			le.PutUint32(dst[i:], uint32(intLane(op, x, y, 0)))
		}
	case cil.I64, cil.U64:
		bias := orderBias(k)
		for i := 0; i < cil.VecBytes; i += 8 {
			x, y := int64(le.Uint64(a[i:])), int64(le.Uint64(b[i:]))
			le.PutUint64(dst[i:], uint64(intLane(op, x, y, bias)))
		}
	case cil.F32:
		for i := 0; i < cil.VecBytes; i += 4 {
			x := float64(math.Float32frombits(le.Uint32(a[i:])))
			y := float64(math.Float32frombits(le.Uint32(b[i:])))
			le.PutUint32(dst[i:], math.Float32bits(float32(floatLane(op, x, y))))
		}
	case cil.F64:
		for i := 0; i < cil.VecBytes; i += 8 {
			x := math.Float64frombits(le.Uint64(a[i:]))
			y := math.Float64frombits(le.Uint64(b[i:]))
			le.PutUint64(dst[i:], math.Float64bits(floatLane(op, x, y)))
		}
	default:
		*dst = Vec{}
	}
}

// orderBias returns the value to xor into 64-bit lanes before a signed
// comparison so that it orders them as kind k does: the sign bit for U64,
// nothing for I64. Narrower lanes are already ordered by their sign- or
// zero-extension into int64.
func orderBias(k cil.Kind) int64 {
	if k == cil.U64 {
		return math.MinInt64
	}
	return 0
}

// intLane applies one element-wise integer operation to two lane values
// extended to int64; the caller truncates the result back to the lane width,
// which makes the wrap-around match Binary+Normalize. bias is orderBias of
// the lane kind.
func intLane(op cil.Opcode, x, y, bias int64) int64 {
	switch op {
	case cil.VAdd:
		return x + y
	case cil.VSub:
		return x - y
	case cil.VMul:
		return x * y
	case cil.VMax:
		if x^bias > y^bias {
			return x
		}
		return y
	case cil.VMin:
		if x^bias < y^bias {
			return x
		}
		return y
	}
	return 0
}

// floatLane applies one element-wise floating-point operation in float64.
func floatLane(op cil.Opcode, x, y float64) float64 {
	switch op {
	case cil.VAdd:
		return x + y
	case cil.VSub:
		return x - y
	case cil.VMul:
		return x * y
	case cil.VMax:
		if !(x < y) && !(x == y) {
			return x
		}
		return y
	case cil.VMin:
		if x < y {
			return x
		}
		return y
	}
	return 0
}

// VecSplat broadcasts the scalar s to all lanes of dst with element kind k.
// A kind that cannot be a vector element yields the zero vector.
func VecSplat(dst *Vec, k cil.Kind, s Scalar) {
	var w uint64
	switch k {
	case cil.I8, cil.U8:
		w = uint64(uint8(s.I)) * 0x0101010101010101
	case cil.I16, cil.U16:
		w = uint64(uint16(s.I)) * 0x0001000100010001
	case cil.I32, cil.U32:
		w = uint64(uint32(s.I)) * 0x0000000100000001
	case cil.I64, cil.U64:
		w = uint64(s.I)
	case cil.F32:
		w = uint64(math.Float32bits(float32(s.F))) * 0x0000000100000001
	case cil.F64:
		w = math.Float64bits(s.F)
	}
	le.PutUint64(dst[:], w)
	le.PutUint64(dst[8:], w)
}

// VecReduce performs the horizontal reduction op (cil.VRedAdd, cil.VRedMax or
// cil.VRedMin) over the vector with element kind k. The result kind follows
// cil.ReduceKind.
func VecReduce(op cil.Opcode, k cil.Kind, v Vec) (Scalar, error) {
	switch op {
	case cil.VRedAdd, cil.VRedMax, cil.VRedMin:
		return VecReduceNoTrap(op, k, &v), nil
	}
	return Scalar{}, fmt.Errorf("prim: %s is not a vector reduction", op)
}

// VecReduceNoTrap is VecReduce restricted to the reduction opcodes, which
// never fail; other opcodes return the zero Scalar. Lanes accumulate in
// lane order, lane 0 first: integer sums in 64 bits, float sums rounded to
// the element kind after every addition. A kind that cannot be a vector
// element reduces to its first element.
func VecReduceNoTrap(op cil.Opcode, k cil.Kind, v *Vec) Scalar {
	switch op {
	case cil.VRedAdd, cil.VRedMax, cil.VRedMin:
	default:
		return Scalar{}
	}
	sz := k.Size()
	switch k {
	case cil.F32, cil.F64:
		acc := floatLaneAt(v, 0, sz)
		for off := sz; off < cil.VecBytes; off += sz {
			x := floatLaneAt(v, off, sz)
			switch op {
			case cil.VRedAdd:
				acc += x
				if sz == 4 {
					acc = float64(float32(acc))
				}
			case cil.VRedMax:
				if !(x < acc) && !(x == acc) {
					acc = x
				}
			default:
				if x < acc {
					acc = x
				}
			}
		}
		return Scalar{F: acc}
	case cil.I8, cil.U8, cil.I16, cil.U16, cil.I32, cil.U32, cil.I64, cil.U64:
		signed, bias := k.IsSigned(), orderBias(k)
		acc := intLaneAt(v, 0, sz, signed)
		switch op {
		case cil.VRedAdd:
			for off := sz; off < cil.VecBytes; off += sz {
				acc += intLaneAt(v, off, sz, signed)
			}
		case cil.VRedMax:
			for off := sz; off < cil.VecBytes; off += sz {
				if x := intLaneAt(v, off, sz, signed); x^bias > acc^bias {
					acc = x
				}
			}
		default:
			for off := sz; off < cil.VecBytes; off += sz {
				if x := intLaneAt(v, off, sz, signed); x^bias < acc^bias {
					acc = x
				}
			}
		}
		return Scalar{I: Normalize(cil.ReduceKind(op, k), acc)}
	}
	return Scalar{I: Normalize(cil.ReduceKind(op, k), LoadScalar(k, v[:]).I)}
}

// intLaneAt reads the integer lane of sz bytes starting at byte off,
// sign- or zero-extended to int64.
func intLaneAt(v *Vec, off, sz int, signed bool) int64 {
	switch sz {
	case 1:
		if signed {
			return int64(int8(v[off]))
		}
		return int64(v[off])
	case 2:
		if signed {
			return int64(int16(le.Uint16(v[off:])))
		}
		return int64(le.Uint16(v[off:]))
	case 4:
		if signed {
			return int64(int32(le.Uint32(v[off:])))
		}
		return int64(le.Uint32(v[off:]))
	default:
		return int64(le.Uint64(v[off:]))
	}
}

// floatLaneAt reads the F32 (sz 4) or F64 lane starting at byte off.
func floatLaneAt(v *Vec, off, sz int) float64 {
	if sz == 4 {
		return float64(math.Float32frombits(le.Uint32(v[off:])))
	}
	return math.Float64frombits(le.Uint64(v[off:]))
}
