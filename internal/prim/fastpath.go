package prim

import "repro/internal/cil"

// This file provides the part of the scalar semantics the pre-decoded
// simulator core (internal/sim) resolves once per decoded instruction, so
// that its steady-state dispatch loop does not switch on the kind again. The
// non-erroring vector operations it runs are in vec.go.

// NormMode describes how Normalize(k, ·) re-extends a wrapped value, in a
// shape that applies with two shifts instead of a per-call kind switch. It
// is meant to be computed once per decoded instruction.
type NormMode struct {
	// Shift is 64 minus the bit width of the kind (0 for 64-bit kinds).
	Shift uint8
	// Signed selects arithmetic (sign-extending) right shifts.
	Signed bool
	// Bool normalizes to 0/1 instead of shifting.
	Bool bool
}

// NormModeOf returns the normalization parameters of kind k, such that
// NormModeOf(k).Apply(v) == Normalize(k, v) for every v. Kinds Normalize
// leaves untouched (floats, Ref, Vec, Void, 64-bit integers) yield the
// identity mode.
func NormModeOf(k cil.Kind) NormMode {
	if k == cil.Bool {
		return NormMode{Bool: true}
	}
	if !k.IsInteger() || k.Size() >= 8 {
		return NormMode{} // shift by zero: identity, like Normalize
	}
	return NormMode{Shift: uint8(64 - 8*k.Size()), Signed: k.IsSigned()}
}

// Apply normalizes v like Normalize of the kind the mode was built from.
func (n NormMode) Apply(v int64) int64 {
	if n.Bool {
		if v != 0 {
			return 1
		}
		return 0
	}
	if n.Signed {
		return v << n.Shift >> n.Shift
	}
	return int64(uint64(v) << n.Shift >> n.Shift)
}
