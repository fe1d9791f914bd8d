// Package cil defines the portable, target-independent bytecode format used
// as the processor-virtualization layer of the split compiler.
//
// The format is modeled after the ECMA-335 Common Language Infrastructure the
// paper builds on: a verifiable stack machine with typed instructions, typed
// locals and arguments, array objects, and free-form metadata annotations
// attached to methods and modules. Annotations are the vehicle of split
// compilation: the offline compiler stores analysis results in them and the
// online (JIT) compiler consumes them; they are never required for
// correctness.
//
// The package also provides a compact binary encoding (Encode/Decode), a
// verifier that type-checks the evaluation stack across all control-flow
// paths (Verify), a structured builder (NewMethodBuilder), and a
// disassembler (Disassemble).
package cil

import "fmt"

// Kind identifies a primitive value kind manipulated by the evaluation stack.
type Kind uint8

// Primitive kinds. Vec is the portable 16-byte virtual vector used by the
// split vectorizer's builtins; Ref is a typed array reference.
const (
	Void Kind = iota
	Bool
	I8
	U8
	I16
	U16
	I32
	U32
	I64
	U64
	F32
	F64
	Ref
	Vec
)

// VecBytes is the size in bytes of the portable virtual vector. It matches
// the narrowest common denominator of the SIMD extensions the paper targets
// (SSE, AltiVec, VIS all provide at least 128-bit registers).
const VecBytes = 16

var kindNames = [...]string{
	Void: "void",
	Bool: "bool",
	I8:   "i8",
	U8:   "u8",
	I16:  "i16",
	U16:  "u16",
	I32:  "i32",
	U32:  "u32",
	I64:  "i64",
	U64:  "u64",
	F32:  "f32",
	F64:  "f64",
	Ref:  "ref",
	Vec:  "vec",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Size returns the storage size of the kind in bytes. Void has size zero and
// Ref has the size of a machine word on the simulated 32-bit targets.
func (k Kind) Size() int {
	switch k {
	case Void:
		return 0
	case Bool, I8, U8:
		return 1
	case I16, U16:
		return 2
	case I32, U32, F32, Ref:
		return 4
	case I64, U64, F64:
		return 8
	case Vec:
		return VecBytes
	}
	return 0
}

// IsInteger reports whether the kind is an integer (including Bool).
func (k Kind) IsInteger() bool {
	switch k {
	case Bool, I8, U8, I16, U16, I32, U32, I64, U64:
		return true
	}
	return false
}

// IsFloat reports whether the kind is a floating-point kind.
func (k Kind) IsFloat() bool { return k == F32 || k == F64 }

// IsSigned reports whether the kind is a signed integer kind.
func (k Kind) IsSigned() bool {
	switch k {
	case I8, I16, I32, I64:
		return true
	}
	return false
}

// IsNumeric reports whether the kind is an integer or floating-point kind.
func (k Kind) IsNumeric() bool { return k.IsInteger() || k.IsFloat() }

// Lanes returns the number of elements of kind k that fit in the portable
// virtual vector, or 0 if k cannot be a vector element.
func (k Kind) Lanes() int {
	if !k.IsNumeric() || k == Bool {
		return 0
	}
	return VecBytes / k.Size()
}

// StackKind returns the kind a value of kind k has once loaded on the
// evaluation stack. Sub-word integers are widened to their 32-bit
// representative, mirroring the CLI evaluation-stack rules.
func (k Kind) StackKind() Kind {
	switch k {
	case Bool, I8, I16, I32:
		return I32
	case U8, U16, U32:
		return U32
	default:
		return k
	}
}

// Type describes the type of an argument, local variable or return value.
// For Ref types, Elem is the element kind of the referenced array. A Vec
// declaration leaves Elem Void; on the verifier's evaluation stack a Vec
// carries the element kind of the builtin that produced it.
type Type struct {
	Kind Kind
	Elem Kind
}

// Scalar returns a Type with the given scalar kind.
func Scalar(k Kind) Type { return Type{Kind: k} }

// Array returns a Ref Type whose elements have kind elem.
func Array(elem Kind) Type { return Type{Kind: Ref, Elem: elem} }

func (t Type) String() string {
	switch {
	case t.Kind == Ref:
		return t.Elem.String() + "[]"
	case t.Kind == Vec && t.Elem != Void:
		return "vec." + t.Elem.String()
	}
	return t.Kind.String()
}

// IsArray reports whether the type is an array reference.
func (t Type) IsArray() bool { return t.Kind == Ref }
