// Package prim implements the primitive scalar and vector value semantics
// shared by the bytecode interpreter (internal/vm) and the native-code
// simulator (internal/sim). Keeping one implementation of integer
// wrap-around, signedness-aware comparison, conversion and per-lane vector
// arithmetic guarantees that the reference interpreter and the JIT-compiled
// code agree bit-for-bit, which the differential tests rely on.
package prim

import (
	"fmt"

	"repro/internal/cil"
)

// Scalar is a primitive value: integers (of any width and signedness) are
// carried in I using their normalized 64-bit representation, floating-point
// values in F. Which field is meaningful is determined by the cil.Kind the
// value is used with.
type Scalar struct {
	I int64
	F float64
}

// Int returns a Scalar holding the integer v normalized to kind k.
func Int(k cil.Kind, v int64) Scalar { return Scalar{I: Normalize(k, v)} }

// Float returns a Scalar holding the floating-point v (rounded to float32
// when k is F32).
func Float(k cil.Kind, v float64) Scalar {
	if k == cil.F32 {
		v = float64(float32(v))
	}
	return Scalar{F: v}
}

// Normalize wraps v to the width of kind k and re-extends it into an int64:
// sign-extended for signed kinds, zero-extended for unsigned kinds. Bool is
// normalized to 0 or 1.
func Normalize(k cil.Kind, v int64) int64 {
	switch k {
	case cil.Bool:
		if v != 0 {
			return 1
		}
		return 0
	case cil.I8:
		return int64(int8(v))
	case cil.U8:
		return int64(uint8(v))
	case cil.I16:
		return int64(int16(v))
	case cil.U16:
		return int64(uint16(v))
	case cil.I32:
		return int64(int32(v))
	case cil.U32:
		return int64(uint32(v))
	case cil.I64:
		return v
	case cil.U64:
		return v // representation is the raw 64-bit pattern
	default:
		return v
	}
}

// Binary applies the two-operand arithmetic or bitwise operation op (one of
// cil.Add..cil.Shr) to a and b at kind k. Integer results wrap at the width
// of k. Division or remainder by zero returns an error (the simulated trap).
func Binary(op cil.Opcode, k cil.Kind, a, b Scalar) (Scalar, error) {
	if k.IsFloat() {
		var r float64
		switch op {
		case cil.Add:
			r = a.F + b.F
		case cil.Sub:
			r = a.F - b.F
		case cil.Mul:
			r = a.F * b.F
		case cil.Div:
			r = a.F / b.F
		default:
			return Scalar{}, fmt.Errorf("prim: %s not defined on %s", op, k)
		}
		return Float(k, r), nil
	}
	x, y := a.I, b.I
	var r int64
	switch op {
	case cil.Add:
		r = x + y
	case cil.Sub:
		r = x - y
	case cil.Mul:
		r = x * y
	case cil.Div:
		if y == 0 {
			return Scalar{}, fmt.Errorf("prim: integer division by zero")
		}
		if k.IsSigned() {
			r = x / y
		} else {
			r = int64(uint64(x) / uint64(y))
		}
	case cil.Rem:
		if y == 0 {
			return Scalar{}, fmt.Errorf("prim: integer remainder by zero")
		}
		if k.IsSigned() {
			r = x % y
		} else {
			r = int64(uint64(x) % uint64(y))
		}
	case cil.And:
		r = x & y
	case cil.Or:
		r = x | y
	case cil.Xor:
		r = x ^ y
	case cil.Shl:
		r = x << (uint64(y) & 63)
	case cil.Shr:
		if k.IsSigned() {
			r = x >> (uint64(y) & 63)
		} else {
			r = int64(uint64(x) >> (uint64(y) & 63))
		}
	default:
		return Scalar{}, fmt.Errorf("prim: %s is not a binary operation", op)
	}
	return Int(k, r), nil
}

// Unary applies a one-operand operation (cil.Neg or cil.Not) at kind k.
func Unary(op cil.Opcode, k cil.Kind, a Scalar) (Scalar, error) {
	switch op {
	case cil.Neg:
		if k.IsFloat() {
			return Float(k, -a.F), nil
		}
		return Int(k, -a.I), nil
	case cil.Not:
		if k.IsFloat() {
			return Scalar{}, fmt.Errorf("prim: not on %s", k)
		}
		return Int(k, ^a.I), nil
	}
	return Scalar{}, fmt.Errorf("prim: %s is not a unary operation", op)
}

// Compare evaluates the comparison op (cil.CmpEq..cil.CmpGe) at kind k.
func Compare(op cil.Opcode, k cil.Kind, a, b Scalar) (bool, error) {
	var lt, eq bool
	if k.IsFloat() {
		lt, eq = a.F < b.F, a.F == b.F
	} else if k.IsSigned() {
		lt, eq = a.I < b.I, a.I == b.I
	} else {
		lt, eq = uint64(a.I) < uint64(b.I), a.I == b.I
	}
	switch op {
	case cil.CmpEq:
		return eq, nil
	case cil.CmpNe:
		return !eq, nil
	case cil.CmpLt:
		return lt, nil
	case cil.CmpLe:
		return lt || eq, nil
	case cil.CmpGt:
		return !lt && !eq, nil
	case cil.CmpGe:
		return !lt, nil
	}
	return false, fmt.Errorf("prim: %s is not a comparison", op)
}

// Convert converts a from kind `from` to kind `to` following C-like
// conversion rules (truncation of integers, rounding of floats toward zero
// when converting to integer).
func Convert(from, to cil.Kind, a Scalar) Scalar {
	switch {
	case from.IsFloat() && to.IsFloat():
		return Float(to, a.F)
	case from.IsFloat() && to.IsInteger():
		return Int(to, int64(a.F))
	case from.IsInteger() && to.IsFloat():
		if from.IsSigned() || from == cil.Bool {
			return Float(to, float64(a.I))
		}
		return Float(to, float64(uint64(a.I)))
	default:
		return Int(to, a.I)
	}
}

// IsTrue reports whether the scalar is non-zero when interpreted at kind k.
func IsTrue(k cil.Kind, a Scalar) bool {
	if k.IsFloat() {
		return a.F != 0
	}
	return a.I != 0
}
