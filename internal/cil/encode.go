package cil

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/wire"
)

// Binary format of an encoded module ("SVBC": split-compilation virtual
// bytecode). All integers are unsigned LEB128 varints unless noted; signed
// quantities use zig-zag encoding. Strings are length-prefixed UTF-8.
//
//	magic   "SVBC"
//	u8      format version
//	string  module name
//	uvarint annotation count, then (string key, bytes value)*
//	uvarint import count, then import*        (format version 2 only)
//	uvarint method count, then method*
//
// Each import (version 2):
//
//	raw32   SHA-256 of the imported module's encoded bytes
//	string  imported module name (diagnostics only)
//	uvarint method count, then (string name, uvarint param count, type*,
//	        type return)*
//
// A module without imports always encodes as format version 1, bit-for-bit
// identical to pre-linking toolchains: the code-size experiment and every
// content hash of an unlinked module are unchanged by the import feature.
//
// Each method:
//
//	string  name
//	uvarint param count,  then type*
//	type    return type
//	uvarint local count,  then type*
//	uvarint max stack
//	uvarint annotation count, then (string key, bytes value)*
//	uvarint instruction count, then instruction*
//
// Each type is one byte kind plus, for Ref, one byte element kind. Each
// instruction is one opcode byte, one kind byte, then operands selected by
// the opcode (see encodeInstr).
const (
	formatMagic = "SVBC"
	// formatVersion is the original, import-free encoding; formatVersionImports
	// adds the import table and is only emitted when a module declares one.
	formatVersion        = 1
	formatVersionImports = 2
)

// Encode serializes the module to its compact binary deployment format. The
// size of this encoding is what the code-size experiment (EXP-SIZE) compares
// against native code.
func Encode(mod *Module) []byte {
	// Compiled code takes under 128 bytes per method header and about three
	// per instruction: a buffer of that size is seldom grown.
	size := 64 + len(mod.Name)
	for _, m := range mod.Methods {
		size += 128 + 3*len(m.Code)
	}
	w := encoder{buf: make([]byte, 0, size)}
	w.raw([]byte(formatMagic))
	version := uint8(formatVersion)
	if len(mod.Imports) > 0 {
		version = formatVersionImports
	}
	w.u8(version)
	w.str(mod.Name)
	w.annotations(mod.Annotations)
	if version >= formatVersionImports {
		w.imports(mod.Imports)
	}
	w.uvarint(uint64(len(mod.Methods)))
	for _, m := range mod.Methods {
		w.method(m)
	}
	return w.buf
}

// Decode parses a module previously produced by Encode. The input is
// untrusted, so it is read through wire.Reader: every declared count is
// checked against the bytes that remain before anything is sized by it, and
// only the one encoding Encode produces is accepted (shortest varints,
// annotation keys in ascending order), so whatever decodes re-encodes to the
// same bytes.
func Decode(data []byte) (*Module, error) {
	r := decoder{wire.NewReader(data)}
	if magic := r.Take(len(formatMagic)); r.Err() == nil && string(magic) != formatMagic {
		return nil, fmt.Errorf("cil: bad magic %q", magic)
	}
	v := r.Byte()
	if r.Err() == nil && v != formatVersion && v != formatVersionImports {
		return nil, fmt.Errorf("cil: unsupported format version %d", v)
	}
	mod := NewModule(r.String())
	mod.Annotations = r.annotations()
	if v >= formatVersionImports {
		mod.Imports = r.imports()
		if r.Err() == nil {
			r.fail(ValidateImports(mod))
		}
	}
	// A method is at least a name length, three counts, a return type, a
	// stack depth and an annotation count.
	n := r.Count(7)
	if n > 0 {
		mod.Methods = make([]*Method, 0, n)
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m := r.method()
		if seen[m.Name] {
			r.fail(fmt.Errorf("duplicate method %q in module %q", m.Name, mod.Name))
		}
		seen[m.Name] = true
		mod.Methods = append(mod.Methods, m)
	}
	if r.Err() == nil && r.Len() != 0 {
		r.fail(fmt.Errorf("%d trailing bytes after module", r.Len()))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cil: decode: %w", err)
	}
	return mod, nil
}

// EncodedSize returns the size in bytes of the module's binary encoding.
func EncodedSize(mod *Module) int { return len(Encode(mod)) }

type encoder struct {
	buf []byte
}

func (w *encoder) raw(b []byte)     { w.buf = append(w.buf, b...) }
func (w *encoder) u8(v uint8)       { w.buf = append(w.buf, v) }
func (w *encoder) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *encoder) svarint(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *encoder) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *encoder) str(s string)    { w.uvarint(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *encoder) bytesv(b []byte) { w.uvarint(uint64(len(b))); w.raw(b) }

func (w *encoder) annotations(a map[string][]byte) {
	var small [4]string // the keys of a compiled method fit here
	keys := small[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.bytesv(a[k])
	}
}

func (w *encoder) imports(imports []Import) {
	w.uvarint(uint64(len(imports)))
	for _, im := range imports {
		w.raw(im.Hash[:])
		w.str(im.Module)
		w.uvarint(uint64(len(im.Methods)))
		for _, m := range im.Methods {
			w.str(m.Name)
			w.uvarint(uint64(len(m.Params)))
			for _, t := range m.Params {
				w.typ(t)
			}
			w.typ(m.Ret)
		}
	}
}

func (w *encoder) typ(t Type) {
	w.u8(uint8(t.Kind))
	if t.Kind == Ref {
		w.u8(uint8(t.Elem))
	}
}

func (w *encoder) method(m *Method) {
	w.str(m.Name)
	w.uvarint(uint64(len(m.Params)))
	for _, t := range m.Params {
		w.typ(t)
	}
	w.typ(m.Ret)
	w.uvarint(uint64(len(m.Locals)))
	for _, t := range m.Locals {
		w.typ(t)
	}
	w.uvarint(uint64(m.MaxStack))
	w.annotations(m.Annotations)
	w.uvarint(uint64(len(m.Code)))
	for _, in := range m.Code {
		w.instr(in)
	}
}

// opNeedsKind reports whether the opcode carries an element/operand kind in
// the encoding. Untyped opcodes (loads of variables, branches, stack
// manipulation) omit the kind byte, which keeps the deployment format
// compact.
func opNeedsKind(op Opcode) bool {
	switch op {
	case Nop, LdArg, StArg, LdLoc, StLoc, Dup, Pop, Br, BrTrue, BrFalse, Call, Ret, LdLen:
		return false
	}
	return true
}

func (w *encoder) instr(in Instr) {
	w.u8(uint8(in.Op))
	if opNeedsKind(in.Op) {
		w.u8(uint8(in.Kind))
	}
	switch in.Op {
	case LdcI, LdArg, StArg, LdLoc, StLoc:
		w.svarint(in.Int)
	case LdcF:
		w.f64(in.Float)
	case Br, BrTrue, BrFalse:
		w.svarint(int64(in.Target))
	case Call:
		w.str(in.Str)
	}
}

// decoder reads the module format's composite pieces off a wire.Reader,
// whose first failure sticks: callers read on and check Err once.
type decoder struct{ wire.Reader }

// fail records a validation failure (nil is not one).
func (r *decoder) fail(err error) {
	if err != nil {
		r.Fail(err)
	}
}

func (r *decoder) bytesv() []byte {
	return append([]byte(nil), r.Take(r.Count(1))...)
}

func (r *decoder) annotations() map[string][]byte {
	n := r.Count(2) // a key length and a value length
	a := make(map[string][]byte, n)
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		if i > 0 && k <= prev {
			r.fail(fmt.Errorf("annotation key %q out of order", k))
		}
		prev = k
		a[k] = r.bytesv()
	}
	return a
}

// types reads a counted, exactly-sized type list (nil when empty).
func (r *decoder) types() []Type {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]Type, n)
	for i := range out {
		out[i] = r.typ()
	}
	return out
}

func (r *decoder) imports() []Import {
	n := r.Count(HashSize + 2)
	if r.Err() == nil && n == 0 {
		// Encode writes the import-free format for such a module.
		r.fail(fmt.Errorf("format version %d without imports", formatVersionImports))
	}
	out := make([]Import, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var im Import
		copy(im.Hash[:], r.Take(HashSize))
		im.Module = r.String()
		nm := r.Count(3)
		im.Methods = make([]ImportedMethod, 0, nm)
		for j := 0; j < nm && r.Err() == nil; j++ {
			m := ImportedMethod{Name: r.String()}
			m.Params = r.types()
			m.Ret = r.typ()
			im.Methods = append(im.Methods, m)
		}
		out = append(out, im)
	}
	return out
}

func (r *decoder) typ() Type {
	t := Type{Kind: Kind(r.Byte())}
	if t.Kind == Ref {
		t.Elem = Kind(r.Byte())
	}
	if r.Err() == nil && int(t.Kind) >= len(kindNames) {
		r.fail(fmt.Errorf("invalid kind %d", t.Kind))
	}
	return t
}

func (r *decoder) method() *Method {
	m := &Method{Name: r.String()}
	m.Params = r.types()
	m.Ret = r.typ()
	m.Locals = r.types()
	m.MaxStack = int(r.Uvarint())
	m.Annotations = r.annotations()
	nc := r.Count(1)
	m.Code = make([]Instr, 0, nc)
	for i := 0; i < nc && r.Err() == nil; i++ {
		m.Code = append(m.Code, r.instr())
	}
	return m
}

func (r *decoder) instr() Instr {
	in := Instr{Op: Opcode(r.Byte())}
	if r.Err() == nil && !in.Op.Valid() {
		r.fail(fmt.Errorf("invalid opcode %d", in.Op))
		return in
	}
	if opNeedsKind(in.Op) {
		in.Kind = Kind(r.Byte())
	}
	switch in.Op {
	case LdcI, LdArg, StArg, LdLoc, StLoc:
		in.Int = r.Varint()
	case LdcF:
		in.Float = math.Float64frombits(r.Uint64())
	case Br, BrTrue, BrFalse:
		in.Target = r.Int()
	case Call:
		in.Str = r.String()
	}
	return in
}
