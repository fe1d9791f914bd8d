package nisa

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/cil"
	"repro/internal/wire"
)

// The binary codec for compiled code: the one serialized form of a Func and
// a Program, used by every persistence path (whole disk-cache images and
// lazy per-method entries in pkg/splitvm).
//
// Two properties make it safe to share a cache volume between replicas and
// to read it back after a crash or from an untrusted disk:
//
//   - Canonical. Equal values encode to equal bytes (a program's functions are
//     written in sorted-name order) and every accepted input re-encodes to
//     itself: varints are shortest-form, a field marked present is never
//     zero. Decoded code is reflect.DeepEqual to the code that was encoded,
//     including nil versus empty Args/ArgSlots and the bit pattern of FImm
//     (NaN payloads, -0); an empty Params or Code decodes as nil, which is
//     what the JIT produces, and an instruction has a Call record exactly
//     when one of Sym, Args or ArgSlots is set.
//   - Validated. Decoding checks structure, not just framing: opcodes, kinds,
//     conditions and register indices are in range, branch targets lie inside
//     the function, spill-slot and GetArg operands inside the frame and the
//     parameter list, call argument lists are capped and ArgSlots matches
//     Args. Every allocation is sized exactly and bounded by the input that
//     remains, so memory is O(len(input)) whatever the bytes claim.
//
// Layout (uvarint = unsigned LEB128, varint = zig-zag, string = uvarint
// length + bytes, type = kind byte + element-kind byte):
//
//	program:  string TargetName, uvarint nfuncs, nfuncs × func (sorted by name)
//	func:     string Name, uvarint nparams, nparams × type, type Ret,
//	          uvarint FrameSlots,
//	          varint SpillSlots, SpillLoads, SpillStores, SpillWeight,
//	                 VectorLowered, VectorScalarized, CompileSteps,
//	          uvarint ncode, ncode × instr
//	instr:    byte Op, uvarint mask, then each field whose mask bit is set, in
//	          bit order: Kind byte, Rd/Ra/Rb reg, Imm varint, Cond byte,
//	          Target varint, SrcKind byte, FImm 8 bytes little-endian IEEE bits,
//	          Sym string, Args (uvarint n, n × reg), ArgSlots (uvarint n,
//	          n × varint)
//	reg:      uvarint Index<<3 | Virtual<<2 | Class
//
// A clear mask bit means the field holds its zero value (for Args/ArgSlots:
// nil) and costs no bytes; the common instruction is an opcode, one mask
// byte and three or four operand bytes.

// Presence-mask bits of an encoded instruction. The seven most common
// fields come first so that their mask fits one varint byte.
const (
	hasKind uint64 = 1 << iota
	hasRd
	hasRa
	hasRb
	hasImm
	hasCond
	hasTarget
	hasSrcKind
	hasFImm
	hasSym
	hasArgs
	hasArgSlots
	maskEnd // first undefined bit
)

// Decode-time limits. They are far above anything the JIT emits (register
// files have at most a few dozen entries, frames a few hundred slots) and
// exist so that a forged entry cannot make the simulator size a register
// index, a frame or a callee argument buffer from an attacker-chosen number.
const (
	maxRegIndex   = 1<<16 - 1
	maxFrameSlots = 1 << 16
	maxCallArgs   = 1 << 10
)

// Minimum encoded sizes, the divisors that bound decoded counts.
const (
	minFuncBytes  = 13 // empty name, no params, Ret, FrameSlots, 7 stats, no code
	minInstrBytes = 2  // opcode + mask
	typeBytes     = 2
)

var (
	errMalformed = errors.New("nisa: malformed code")
	errFuncOrder = errors.New("nisa: program functions not in sorted order")
)

func packReg(r Reg) uint64 {
	v := uint64(r.Index)<<3 | uint64(r.Class)
	if r.Virtual {
		v |= 4
	}
	return v
}

func appendType(dst []byte, t cil.Type) []byte {
	return append(dst, byte(t.Kind), byte(t.Elem))
}

// AppendFunc appends the encoding of f to dst. f must be well formed (what
// the JIT produces): encoding cannot fail, but a function that violates the
// decoder's structural checks encodes to bytes DecodeFunc rejects.
func AppendFunc(dst []byte, f *Func) []byte {
	dst = wire.AppendString(dst, f.Name)
	dst = binary.AppendUvarint(dst, uint64(len(f.Params)))
	for _, p := range f.Params {
		dst = appendType(dst, p)
	}
	dst = appendType(dst, f.Ret)
	dst = binary.AppendUvarint(dst, uint64(f.FrameSlots))
	st := &f.Stats
	for _, v := range [...]int64{
		int64(st.SpillSlots), int64(st.SpillLoads), int64(st.SpillStores), st.SpillWeight,
		int64(st.VectorLowered), int64(st.VectorScalarized), st.CompileSteps,
	} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Code)))
	for i := range f.Code {
		dst = appendInstr(dst, &f.Code[i])
	}
	return dst
}

func appendInstr(dst []byte, in *Instr) []byte {
	var mask uint64
	set := func(present bool, bit uint64) {
		if present {
			mask |= bit
		}
	}
	fimm := math.Float64bits(in.FImm)
	var call CallInfo
	if in.Call != nil {
		call = *in.Call
	}
	set(in.Kind != 0, hasKind)
	set(in.Rd != Reg{}, hasRd)
	set(in.Ra != Reg{}, hasRa)
	set(in.Rb != Reg{}, hasRb)
	set(in.Imm != 0, hasImm)
	set(in.Cond != 0, hasCond)
	set(in.Target != 0, hasTarget)
	set(in.SrcKind != 0, hasSrcKind)
	set(fimm != 0, hasFImm)
	set(call.Sym != "", hasSym)
	set(call.Args != nil, hasArgs)
	set(call.ArgSlots != nil, hasArgSlots)

	dst = append(dst, byte(in.Op))
	dst = binary.AppendUvarint(dst, mask)
	if mask&hasKind != 0 {
		dst = append(dst, byte(in.Kind))
	}
	if mask&hasRd != 0 {
		dst = binary.AppendUvarint(dst, packReg(in.Rd))
	}
	if mask&hasRa != 0 {
		dst = binary.AppendUvarint(dst, packReg(in.Ra))
	}
	if mask&hasRb != 0 {
		dst = binary.AppendUvarint(dst, packReg(in.Rb))
	}
	if mask&hasImm != 0 {
		dst = binary.AppendVarint(dst, in.Imm)
	}
	if mask&hasCond != 0 {
		dst = append(dst, byte(in.Cond))
	}
	if mask&hasTarget != 0 {
		dst = binary.AppendVarint(dst, int64(in.Target))
	}
	if mask&hasSrcKind != 0 {
		dst = append(dst, byte(in.SrcKind))
	}
	if mask&hasFImm != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, fimm)
	}
	if mask&hasSym != 0 {
		dst = wire.AppendString(dst, call.Sym)
	}
	if mask&hasArgs != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(call.Args)))
		for _, a := range call.Args {
			dst = binary.AppendUvarint(dst, packReg(a))
		}
	}
	if mask&hasArgSlots != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(call.ArgSlots)))
		for _, s := range call.ArgSlots {
			dst = binary.AppendVarint(dst, int64(s))
		}
	}
	return dst
}

// AppendProgram appends the encoding of p to dst, functions in sorted-name
// order so that equal programs are equal bytes on every replica.
func AppendProgram(dst []byte, p *Program) []byte {
	dst = wire.AppendString(dst, p.TargetName)
	dst = binary.AppendUvarint(dst, uint64(len(p.Funcs)))
	for _, name := range sortedNames(p.Funcs) {
		dst = AppendFunc(dst, p.Funcs[name])
	}
	return dst
}

// DecodeProgram decodes and validates one program from r. Failures are
// recorded on r (check r.Err before using the result); what follows the
// program is left unread.
func DecodeProgram(r *wire.Reader) *Program {
	p := &Program{TargetName: r.String()}
	n := r.Count(minFuncBytes)
	p.Funcs = make(map[string]*Func, n)
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		f := DecodeFunc(r)
		if i > 0 && f.Name <= prev {
			r.Fail(errFuncOrder)
		}
		prev = f.Name
		p.Funcs[f.Name] = f
	}
	return p
}

// readKind reads a kind byte; zero (Void) is only legal where the field is
// always present.
func readKind(r *wire.Reader, allowVoid bool) cil.Kind {
	k := cil.Kind(r.Byte())
	if k > cil.Vec || k == cil.Void && !allowVoid {
		r.Fail(errMalformed)
	}
	return k
}

func readType(r *wire.Reader) cil.Type {
	return cil.Type{Kind: readKind(r, true), Elem: readKind(r, true)}
}

// readReg reads a packed register; zero is only legal inside an argument
// list (a lone operand equal to Reg{} is encoded as absent).
func readReg(r *wire.Reader, allowZero bool) Reg {
	v := r.Uvarint()
	if v>>3 > maxRegIndex || v == 0 && !allowZero {
		r.Fail(errMalformed)
		return Reg{}
	}
	return Reg{Class: RegClass(v & 3), Index: int32(v >> 3), Virtual: v&4 != 0}
}

// DecodeFunc decodes and validates one function from r. Failures are
// recorded on r (check r.Err before using the result); what follows the
// function is left unread.
func DecodeFunc(r *wire.Reader) *Func {
	f := &Func{Name: r.String()}
	if n := r.Count(typeBytes); n > 0 {
		f.Params = make([]cil.Type, n)
		for i := range f.Params {
			f.Params[i] = readType(r)
		}
	}
	f.Ret = readType(r)
	slots := r.Uvarint()
	if slots > maxFrameSlots {
		r.Fail(errMalformed)
	}
	f.FrameSlots = int(slots)
	f.Stats = Stats{
		SpillSlots:       r.Int(),
		SpillLoads:       r.Int(),
		SpillStores:      r.Int(),
		SpillWeight:      r.Varint(),
		VectorLowered:    r.Int(),
		VectorScalarized: r.Int(),
		CompileSteps:     r.Varint(),
	}
	if n := r.Count(minInstrBytes); n > 0 {
		f.Code = make([]Instr, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			decodeInstr(r, &f.Code[i], f)
		}
	}
	return f
}

// decodeInstr decodes one instruction of f into in; f's Params, FrameSlots
// and len(Code) are final and bound the instruction's operands.
func decodeInstr(r *wire.Reader, in *Instr, f *Func) {
	in.Op = Op(r.Byte())
	mask := r.Uvarint()
	if !in.Op.Valid() || mask >= maskEnd {
		r.Fail(errMalformed)
		return
	}
	if mask&hasKind != 0 {
		in.Kind = readKind(r, false)
	}
	if mask&hasRd != 0 {
		in.Rd = readReg(r, false)
	}
	if mask&hasRa != 0 {
		in.Ra = readReg(r, false)
	}
	if mask&hasRb != 0 {
		in.Rb = readReg(r, false)
	}
	if mask&hasImm != 0 {
		in.Imm = r.Varint()
	}
	if mask&hasCond != 0 {
		in.Cond = Cond(r.Byte())
	}
	if mask&hasTarget != 0 {
		t := r.Varint()
		if t != int64(int32(t)) {
			r.Fail(errMalformed)
		}
		in.Target = int32(t)
	}
	if mask&hasSrcKind != 0 {
		in.SrcKind = readKind(r, false)
	}
	var fimm uint64
	if mask&hasFImm != 0 {
		fimm = r.Uint64()
		in.FImm = math.Float64frombits(fimm)
	}
	var call *CallInfo
	if mask&(hasSym|hasArgs|hasArgSlots) != 0 {
		call = new(CallInfo)
		in.Call = call
	}
	if mask&hasSym != 0 {
		call.Sym = r.String()
	}
	if mask&hasArgs != 0 {
		n := r.Count(1)
		if n > maxCallArgs {
			r.Fail(errMalformed)
			return
		}
		call.Args = make([]Reg, n)
		for i := range call.Args {
			call.Args[i] = readReg(r, true)
		}
	}
	if mask&hasArgSlots != 0 {
		n := r.Count(1)
		if n != len(call.Args) {
			r.Fail(errMalformed)
			return
		}
		call.ArgSlots = make([]int, n)
		for i := range call.ArgSlots {
			s := r.Int()
			if s < -1 || s >= f.FrameSlots {
				r.Fail(errMalformed)
			}
			call.ArgSlots[i] = s
		}
	}

	// A set mask bit promises a non-zero field (registers and kinds were
	// checked as they were read); anything else has a shorter encoding.
	if mask&hasImm != 0 && in.Imm == 0 || mask&hasCond != 0 && in.Cond == 0 ||
		mask&hasTarget != 0 && in.Target == 0 || mask&hasFImm != 0 && fimm == 0 ||
		mask&hasSym != 0 && call.Sym == "" || in.Cond > CondGe {
		r.Fail(errMalformed)
	}
	switch in.Op {
	case Jump, BranchCmp:
		if in.Target < 0 || int(in.Target) >= len(f.Code) {
			r.Fail(errMalformed)
		}
	case SpillLoad, SpillStore:
		if in.Imm < 0 || in.Imm >= int64(f.FrameSlots) {
			r.Fail(errMalformed)
		}
	case GetArg:
		if in.Imm < 0 || in.Imm >= int64(len(f.Params)) {
			r.Fail(errMalformed)
		}
	}
}
