// Package nisa defines the native instruction set of the simulated target
// processors: a load/store register machine with integer, floating-point and
// (on SIMD-capable targets) 128-bit vector register classes.
//
// The JIT (internal/jit) translates portable bytecode into nisa programs; the
// machine simulator (internal/sim) executes them with the per-target cycle
// costs from internal/target. The instruction set is deliberately close to
// the common denominator of the paper's evaluation machines so that per-
// instruction cost accounting is meaningful.
package nisa

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cil"
)

// RegClass identifies a register file.
type RegClass uint8

// Register classes.
const (
	ClassInt RegClass = iota
	ClassFloat
	ClassVec
	ClassNone // operand not used
)

func (c RegClass) String() string {
	switch c {
	case ClassInt:
		return "r"
	case ClassFloat:
		return "f"
	case ClassVec:
		return "v"
	default:
		return "-"
	}
}

// ClassOf returns the register class used to hold values of the given kind.
func ClassOf(k cil.Kind) RegClass {
	switch {
	case k == cil.Vec:
		return ClassVec
	case k.IsFloat():
		return ClassFloat
	default:
		return ClassInt // integers, booleans and array references
	}
}

// Reg is a physical or virtual register. Virtual registers (used between
// translation and register assignment) have Virtual == true. A Reg is 8
// bytes: the codec bounds Index far below 2^31.
type Reg struct {
	Class   RegClass
	Virtual bool
	Index   int32
}

func (r Reg) String() string {
	if r.Class == ClassNone {
		return "_"
	}
	if r.Virtual {
		return fmt.Sprintf("%s%%%d", r.Class, r.Index)
	}
	return fmt.Sprintf("%s%d", r.Class, r.Index)
}

// NoReg is the absent-operand register.
var NoReg = Reg{Class: ClassNone}

// Op is a native opcode.
type Op uint8

// Native opcodes.
const (
	Nop Op = iota

	// Constants and moves.
	MovImm  // Rd <- Imm (integer / reference)
	MovFImm // Rd <- FImm (float)
	Mov     // Rd <- Ra (same class)

	// Integer ALU, operating at the width/signedness of Kind.
	Add
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Neg
	Not

	// Floating-point ALU (Kind is F32 or F64).
	FAdd
	FSub
	FMul
	FDiv
	FNeg

	// SetCmp Rd <- (Ra cond Rb) as 0/1, at kind/signedness Kind.
	SetCmp
	// Select Rd <- (Ra cond Rb) ? Ra : Rb, at kind/signedness Kind (the
	// conditional-move every evaluation target provides in some form).
	Select

	// Conversions between kinds (and register classes): Rd <- conv(Ra),
	// converting from SrcKind to Kind.
	Conv

	// GetArg Rd <- incoming argument number Imm (function prologue only).
	GetArg

	// Memory. Addresses are formed as Ra + Rb*size(Kind): Ra holds the
	// array base address, Rb the element index.
	Load  // Rd <- mem[Ra + Rb*size]
	Store // mem[Ra + Rb*size] <- Rd
	// Spill slots live in the function frame and are addressed by slot
	// index (Imm).
	SpillLoad  // Rd <- frame[Imm]
	SpillStore // frame[Imm] <- Rd
	// Array runtime support.
	Alloc  // Rd <- new array of Imm? no: Rd <- allocate(Ra elements of Kind)
	ArrLen // Rd <- length of array at Ra

	// Control flow.
	Jump      // unconditional branch to Target
	BranchCmp // if (Ra cond Rb) at Kind, branch to Target
	Call      // call Sym; arguments follow the ABI (see package sim)
	Ret       // return; value (if any) is in the ABI return register

	// Vector unit (only emitted for SIMD-capable targets).
	VLoad  // Vd <- mem[Ra + Rb*size] (16 bytes)
	VStore // mem[Ra + Rb*size] <- Vd (16 bytes)
	VAdd   // element-wise, element kind Kind
	VSub
	VMul
	VMax
	VMin
	VSplat  // Vd <- broadcast Ra/Fa
	VRedAdd // Rd/Fd <- horizontal sum of Va
	VRedMax
	VRedMin

	numOps
)

var opNames = [...]string{
	Nop: "nop", MovImm: "movi", MovFImm: "movf", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Neg: "neg", Not: "not",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	SetCmp: "setcmp", Select: "select", Conv: "conv", GetArg: "getarg",
	Load: "load", Store: "store", SpillLoad: "ld.spill", SpillStore: "st.spill",
	Alloc: "alloc", ArrLen: "arrlen",
	Jump: "jump", BranchCmp: "bcmp", Call: "call", Ret: "ret",
	VLoad: "vload", VStore: "vstore", VAdd: "vadd", VSub: "vsub", VMul: "vmul",
	VMax: "vmax", VMin: "vmin", VSplat: "vsplat",
	VRedAdd: "vredadd", VRedMax: "vredmax", VRedMin: "vredmin",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// OpCount is the number of defined opcodes; [OpCount]-sized arrays make
// handy dense per-opcode tables (the pre-decoded simulator core indexes a
// few of them).
const OpCount = int(numOps)

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps }

// IsVector reports whether the opcode uses the vector unit.
func (op Op) IsVector() bool { return op >= VLoad && op <= VRedMin }

// IsBranch reports whether the opcode may transfer control to Target.
func (op Op) IsBranch() bool { return op == Jump || op == BranchCmp }

// aluOpcodes maps native scalar ALU opcodes to the shared primitive
// semantics of internal/prim (cil opcodes). Zero (cil.Nop) marks opcodes
// without a scalar ALU equivalent.
var aluOpcodes = [OpCount]cil.Opcode{
	Add: cil.Add, Sub: cil.Sub, Mul: cil.Mul, Div: cil.Div, Rem: cil.Rem,
	And: cil.And, Or: cil.Or, Xor: cil.Xor, Shl: cil.Shl, Shr: cil.Shr,
	FAdd: cil.Add, FSub: cil.Sub, FMul: cil.Mul, FDiv: cil.Div,
}

// ALUOpcode returns the cil opcode carrying the shared scalar semantics of a
// native ALU opcode (Add..Shr, FAdd..FDiv), or cil.Nop for opcodes that are
// not two-operand ALU instructions.
func (op Op) ALUOpcode() cil.Opcode { return aluOpcodes[op] }

// vectorOpcodes maps native vector opcodes to the portable vector builtin
// semantics of internal/prim.
var vectorOpcodes = [OpCount]cil.Opcode{
	VAdd: cil.VAdd, VSub: cil.VSub, VMul: cil.VMul, VMax: cil.VMax, VMin: cil.VMin,
	VRedAdd: cil.VRedAdd, VRedMax: cil.VRedMax, VRedMin: cil.VRedMin,
}

// VectorOpcode returns the cil opcode carrying the shared element-wise or
// reduction semantics of a native vector opcode, or cil.Nop for opcodes
// without one (VLoad, VStore, VSplat and every scalar opcode).
func (op Op) VectorOpcode() cil.Opcode { return vectorOpcodes[op] }

// Cond is a comparison condition for SetCmp and BranchCmp.
type Cond uint8

// Conditions.
const (
	CondEq Cond = iota
	CondNe
	CondLt
	CondLe
	CondGt
	CondGe
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Opcode returns the cil comparison opcode carrying the condition's shared
// semantics (the inverse of CondOf).
func (c Cond) Opcode() cil.Opcode {
	switch c {
	case CondEq:
		return cil.CmpEq
	case CondNe:
		return cil.CmpNe
	case CondLt:
		return cil.CmpLt
	case CondLe:
		return cil.CmpLe
	case CondGt:
		return cil.CmpGt
	default:
		return cil.CmpGe
	}
}

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondEq:
		return CondNe
	case CondNe:
		return CondEq
	case CondLt:
		return CondGe
	case CondLe:
		return CondGt
	case CondGt:
		return CondLe
	default:
		return CondLt
	}
}

// CondOf maps a bytecode comparison opcode to the native condition.
func CondOf(op cil.Opcode) Cond {
	switch op {
	case cil.CmpEq:
		return CondEq
	case cil.CmpNe:
		return CondNe
	case cil.CmpLt:
		return CondLt
	case cil.CmpLe:
		return CondLe
	case cil.CmpGt:
		return CondGt
	default:
		return CondGe
	}
}

// Instr is one native instruction. Field use depends on the opcode. An
// Instr is 56 bytes: what only calls use lives behind Call.
type Instr struct {
	Op   Op
	Kind cil.Kind
	// SrcKind is the source kind of a Conv (the destination kind is Kind).
	SrcKind cil.Kind
	Cond    Cond
	// Target is the instruction index a Jump or BranchCmp transfers to.
	Target int32
	Rd     Reg
	Ra     Reg
	Rb     Reg
	// Imm is the integer immediate; for Load/Store/VLoad/VStore it is an
	// additional element displacement (address = Ra + (Rb+Imm)*size), which
	// the scalarizer uses for per-lane accesses.
	Imm  int64
	FImm float64
	// Call is the call site of a Call instruction; nil on every other one.
	Call *CallInfo
}

// CallInfo is the part of a Call instruction no other instruction needs.
type CallInfo struct {
	// Sym names the callee.
	Sym string
	// Args lists the argument registers in ABI order; the simulator
	// marshals the callee frame from them.
	Args []Reg
	// ArgSlots, when non-nil, gives for each argument the frame spill slot
	// it lives in (-1 when the argument is in Args[i]); filled in by the
	// register assigner when arguments had to be spilled.
	ArgSlots []int
}

func (in Instr) String() string {
	switch in.Op {
	case Nop, Ret:
		return in.Op.String()
	case MovImm:
		return fmt.Sprintf("%-8s %s, #%d", in.Op, in.Rd, in.Imm)
	case MovFImm:
		return fmt.Sprintf("%-8s %s, #%g", in.Op, in.Rd, in.FImm)
	case Mov:
		return fmt.Sprintf("%-8s %s, %s", in.Op, in.Rd, in.Ra)
	case SpillLoad:
		return fmt.Sprintf("%-8s %s, [frame+%d]", in.Op, in.Rd, in.Imm)
	case SpillStore:
		return fmt.Sprintf("%-8s [frame+%d], %s", in.Op, in.Imm, in.Rd)
	case Load, VLoad:
		return fmt.Sprintf("%-8s %s, [%s + (%s+%d)*%d]", opKind(in), in.Rd, in.Ra, in.Rb, in.Imm, in.Kind.Size())
	case Store, VStore:
		return fmt.Sprintf("%-8s [%s + (%s+%d)*%d], %s", opKind(in), in.Ra, in.Rb, in.Imm, in.Kind.Size(), in.Rd)
	case GetArg:
		return fmt.Sprintf("%-8s %s, arg%d", in.Op, in.Rd, in.Imm)
	case Select:
		return fmt.Sprintf("%-8s %s, %s, %s", opKind(in)+"."+in.Cond.String(), in.Rd, in.Ra, in.Rb)
	case Alloc:
		return fmt.Sprintf("%-8s %s, %s x %s", opKind(in), in.Rd, in.Ra, in.Kind)
	case ArrLen:
		return fmt.Sprintf("%-8s %s, %s", in.Op, in.Rd, in.Ra)
	case Jump:
		return fmt.Sprintf("%-8s @%d", in.Op, in.Target)
	case BranchCmp:
		return fmt.Sprintf("%-8s %s %s, %s, @%d", opKind(in)+"."+in.Cond.String(), "", in.Ra, in.Rb, in.Target)
	case SetCmp:
		return fmt.Sprintf("%-8s %s, %s, %s", opKind(in)+"."+in.Cond.String(), in.Rd, in.Ra, in.Rb)
	case Call:
		var c CallInfo
		if in.Call != nil {
			c = *in.Call
		}
		args := make([]string, len(c.Args))
		for i, a := range c.Args {
			args[i] = a.String()
		}
		return fmt.Sprintf("%-8s %s(%s) -> %s", in.Op, c.Sym, strings.Join(args, ", "), in.Rd)
	case Neg, Not, FNeg, Conv, VSplat, VRedAdd, VRedMax, VRedMin:
		return fmt.Sprintf("%-8s %s, %s", opKind(in), in.Rd, in.Ra)
	default:
		return fmt.Sprintf("%-8s %s, %s, %s", opKind(in), in.Rd, in.Ra, in.Rb)
	}
}

func opKind(in Instr) string {
	if in.Kind == cil.Void {
		return in.Op.String()
	}
	return in.Op.String() + "." + in.Kind.String()
}

// Func is one compiled native function.
type Func struct {
	Name   string
	Params []cil.Type
	Ret    cil.Type
	Code   []Instr
	// FrameSlots is the number of 16-byte spill slots in the frame.
	FrameSlots int

	// Compile-time statistics reported by the experiments.
	Stats Stats
}

// Stats captures per-function JIT statistics.
type Stats struct {
	// SpillSlots is the number of virtual registers that did not receive a
	// physical register.
	SpillSlots int
	// SpillLoads and SpillStores count emitted spill instructions (static).
	SpillLoads  int
	SpillStores int
	// SpillWeight is the estimated number of dynamic accesses to spilled
	// values (each spilled virtual register contributes its loop-depth
	// weighted use count); it approximates the spill memory traffic the
	// register allocation experiment reports.
	SpillWeight int64
	// VectorLowered counts portable vector builtins mapped to native vector
	// instructions; VectorScalarized counts builtins expanded to scalar
	// sequences.
	VectorLowered    int
	VectorScalarized int
	// CompileSteps approximates the JIT's own work (translation + register
	// assignment elementary steps); the Figure 1 experiment uses it to
	// compare online compilation effort with and without annotations.
	CompileSteps int64
}

// Program is a set of compiled functions forming a deployable native image
// for one target.
type Program struct {
	TargetName string
	Funcs      map[string]*Func
}

// NewProgram returns an empty program for the named target.
func NewProgram(targetName string) *Program {
	return &Program{TargetName: targetName, Funcs: make(map[string]*Func)}
}

// Add registers a compiled function.
func (p *Program) Add(f *Func) { p.Funcs[f.Name] = f }

// Func returns the named function or nil.
func (p *Program) Func(name string) *Func { return p.Funcs[name] }

// Disassemble renders the whole program as text.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; native image for %s\n", p.TargetName)
	for _, name := range sortedNames(p.Funcs) {
		b.WriteString(DisassembleFunc(p.Funcs[name]))
	}
	return b.String()
}

// DisassembleFunc renders one function as text.
func DisassembleFunc(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s: ; frame=%d slots, spills=%d\n", f.Name, f.FrameSlots, f.Stats.SpillSlots)
	for pc, in := range f.Code {
		fmt.Fprintf(&b, "  %4d: %s\n", pc, in)
	}
	return b.String()
}

func sortedNames(m map[string]*Func) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// CodeBytes estimates the encoded size in bytes of the function's code for a
// target with the given average instruction size. Vector instructions and
// memory operations with large immediates are charged one extra byte on
// variable-length targets (bytesPerInstr < 4), mimicking x86 prefixes.
func (f *Func) CodeBytes(bytesPerInstr int) int {
	total := 0
	for _, in := range f.Code {
		sz := bytesPerInstr
		if bytesPerInstr < 4 {
			if in.Op.IsVector() {
				sz += 2 // SSE prefix + ModRM
			}
			if in.Op == MovImm && (in.Imm > 127 || in.Imm < -128) || in.Op == MovFImm {
				sz += 3
			}
		}
		total += sz
	}
	return total
}

// CodeBytes sums the code size estimate over all functions of the program.
func (p *Program) CodeBytes(bytesPerInstr int) int {
	total := 0
	for _, f := range p.Funcs {
		total += f.CodeBytes(bytesPerInstr)
	}
	return total
}
