// Package vm implements the managed runtime of the virtualization layer: a
// module loader, verification on load, and a reference interpreter for the
// portable bytecode including the portable vector builtins.
//
// The interpreter plays the role Mono's interpreter plays in the paper's
// toolchain: it defines the semantics every JIT back end must preserve, and
// it is the oracle the differential tests compare JIT-compiled code against.
package vm

import (
	"fmt"

	"repro/internal/cil"
	"repro/internal/prim"
)

// Value is a runtime value on the evaluation stack, in a local slot or in an
// argument slot.
type Value struct {
	Kind cil.Kind
	S    prim.Scalar // scalar payload (integers normalized per Kind)
	Ref  *Array      // array payload when Kind == cil.Ref
	Vec  prim.Vec    // vector payload when Kind == cil.Vec
}

// IntValue returns a scalar integer Value of kind k: the value is truncated
// to k's width and then held in its evaluation-stack representation.
func IntValue(k cil.Kind, v int64) Value {
	return Value{Kind: k.StackKind(), S: prim.Int(k.StackKind(), prim.Normalize(k, v))}
}

// FloatValue returns a scalar floating-point Value of kind k.
func FloatValue(k cil.Kind, v float64) Value {
	return Value{Kind: k, S: prim.Float(k, v)}
}

// RefValue returns an array-reference Value.
func RefValue(a *Array) Value { return Value{Kind: cil.Ref, Ref: a} }

// VecValue returns a vector Value.
func VecValue(v prim.Vec) Value { return Value{Kind: cil.Vec, Vec: v} }

// Int returns the integer payload.
func (v Value) Int() int64 { return v.S.I }

// Float returns the floating-point payload.
func (v Value) Float() float64 { return v.S.F }

func (v Value) String() string {
	switch {
	case v.Kind == cil.Ref:
		if v.Ref == nil {
			return "null"
		}
		return fmt.Sprintf("%s[%d]", v.Ref.Elem, v.Ref.Len())
	case v.Kind == cil.Vec:
		return fmt.Sprintf("vec%x", v.Vec)
	case v.Kind.IsFloat():
		return fmt.Sprintf("%s(%g)", v.Kind, v.S.F)
	default:
		return fmt.Sprintf("%s(%d)", v.Kind, v.S.I)
	}
}

// Array is a managed, typed one-dimensional array. Its storage is a raw byte
// buffer laid out exactly like native memory (little-endian, densely packed)
// so that vector loads and stores behave identically in the interpreter and
// on the simulated machines.
type Array struct {
	Elem cil.Kind
	Data []byte
}

// NewArray allocates an array of n elements of kind elem, zero-initialized.
func NewArray(elem cil.Kind, n int) *Array {
	return &Array{Elem: elem, Data: make([]byte, n*elem.Size())}
}

// Len returns the number of elements.
func (a *Array) Len() int {
	if a == nil {
		return 0
	}
	return len(a.Data) / a.Elem.Size()
}

// check panics with a descriptive message on out-of-bounds access; the
// interpreter converts the panic into a trap error.
func (a *Array) check(i, n int) error {
	if a == nil {
		return fmt.Errorf("vm: null array dereference")
	}
	if i < 0 || i+n > a.Len() {
		return fmt.Errorf("vm: index %d (+%d) out of range for %s[%d]", i, n-1, a.Elem, a.Len())
	}
	return nil
}

// Get reads element i as a scalar.
func (a *Array) Get(i int) (prim.Scalar, error) {
	if err := a.check(i, 1); err != nil {
		return prim.Scalar{}, err
	}
	return prim.LoadScalar(a.Elem, a.Data[i*a.Elem.Size():]), nil
}

// Set writes element i from a scalar.
func (a *Array) Set(i int, s prim.Scalar) error {
	if err := a.check(i, 1); err != nil {
		return err
	}
	prim.StoreScalar(a.Elem, a.Data[i*a.Elem.Size():], s)
	return nil
}

// GetVec reads cil.VecBytes worth of consecutive elements starting at i.
func (a *Array) GetVec(i int) (prim.Vec, error) {
	lanes := a.Elem.Lanes()
	if err := a.check(i, lanes); err != nil {
		return prim.Vec{}, err
	}
	var v prim.Vec
	copy(v[:], a.Data[i*a.Elem.Size():])
	return v, nil
}

// SetVec writes cil.VecBytes worth of consecutive elements starting at i.
func (a *Array) SetVec(i int, v prim.Vec) error {
	lanes := a.Elem.Lanes()
	if err := a.check(i, lanes); err != nil {
		return err
	}
	copy(a.Data[i*a.Elem.Size():], v[:])
	return nil
}

// SetInt is a convenience wrapper storing an integer element.
func (a *Array) SetInt(i int, v int64) error { return a.Set(i, prim.Int(a.Elem, v)) }

// SetFloat is a convenience wrapper storing a floating-point element.
func (a *Array) SetFloat(i int, v float64) error { return a.Set(i, prim.Float(a.Elem, v)) }

// Int returns element i as an int64 (panics on out of range; intended for
// tests and harness code).
func (a *Array) Int(i int) int64 {
	s, err := a.Get(i)
	if err != nil {
		panic(err)
	}
	return s.I
}

// Float returns element i as a float64 (panics on out of range; intended for
// tests and harness code).
func (a *Array) Float(i int) float64 {
	s, err := a.Get(i)
	if err != nil {
		panic(err)
	}
	return s.F
}
