package nisa

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cil"
)

func TestRegAndOpStrings(t *testing.T) {
	if (Reg{Class: ClassInt, Index: 3}).String() != "r3" {
		t.Error("physical register formatting wrong")
	}
	if (Reg{Class: ClassVec, Index: 2, Virtual: true}).String() != "v%2" {
		t.Error("virtual register formatting wrong")
	}
	if NoReg.String() != "_" {
		t.Error("NoReg formatting wrong")
	}
	if Add.String() != "add" || VRedMax.String() != "vredmax" || Op(200).String() == "" {
		t.Error("opcode names wrong")
	}
	if !VLoad.IsVector() || Add.IsVector() {
		t.Error("IsVector misclassifies")
	}
	if !Jump.IsBranch() || !BranchCmp.IsBranch() || Ret.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !Add.Valid() || Op(250).Valid() {
		t.Error("Valid misclassifies")
	}
}

func TestCondHelpers(t *testing.T) {
	pairs := map[Cond]Cond{CondEq: CondNe, CondLt: CondGe, CondLe: CondGt, CondGt: CondLe, CondGe: CondLt, CondNe: CondEq}
	for c, want := range pairs {
		if c.Negate() != want {
			t.Errorf("%v.Negate() = %v, want %v", c, c.Negate(), want)
		}
	}
	if CondOf(cil.CmpLt) != CondLt || CondOf(cil.CmpGe) != CondGe || CondOf(cil.CmpEq) != CondEq {
		t.Error("CondOf mapping wrong")
	}
	if CondLt.String() != "lt" || Cond(99).String() == "" {
		t.Error("condition names wrong")
	}
}

func TestInstrStringsAndDisassembly(t *testing.T) {
	r0 := Reg{Class: ClassInt, Index: 0}
	f := &Func{
		Name: "demo",
		Ret:  cil.Scalar(cil.I32),
		Code: []Instr{
			{Op: GetArg, Kind: cil.I32, Rd: r0},
			{Op: MovImm, Kind: cil.I32, Rd: r0, Imm: 300},
			{Op: MovFImm, Kind: cil.F64, Rd: Reg{Class: ClassFloat}, FImm: 1.5},
			{Op: Load, Kind: cil.U8, Rd: r0, Ra: r0, Rb: r0, Imm: 3},
			{Op: Store, Kind: cil.U8, Rd: r0, Ra: r0, Rb: r0},
			{Op: SpillLoad, Rd: r0, Imm: 2},
			{Op: SpillStore, Rd: r0, Imm: 2},
			{Op: BranchCmp, Kind: cil.I32, Cond: CondLt, Ra: r0, Rb: r0, Target: 9},
			{Op: Select, Kind: cil.I32, Cond: CondGt, Rd: r0, Ra: r0, Rb: r0},
			{Op: Call, Call: &CallInfo{Sym: "callee", Args: []Reg{r0}}, Rd: r0},
			{Op: VSplat, Kind: cil.U8, Rd: Reg{Class: ClassVec}, Ra: r0},
			{Op: Alloc, Kind: cil.I32, Rd: r0, Ra: r0},
			{Op: ArrLen, Rd: r0, Ra: r0},
			{Op: Jump, Target: 0},
			{Op: Ret, Kind: cil.I32, Ra: r0},
		},
	}
	for i, in := range f.Code {
		if in.String() == "" {
			t.Errorf("instruction %d has empty rendering", i)
		}
	}
	p := NewProgram("demo target")
	p.Add(f)
	if p.Func("demo") != f || p.Func("missing") != nil {
		t.Error("program lookup wrong")
	}
	text := p.Disassemble()
	for _, want := range []string{"demo target", "demo:", "movi", "bcmp", "ld.spill", "call"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestCodeBytes(t *testing.T) {
	r0 := Reg{Class: ClassInt, Index: 0}
	f := &Func{Name: "f", Code: []Instr{
		{Op: MovImm, Rd: r0, Imm: 100000},
		{Op: Add, Rd: r0, Ra: r0, Rb: r0},
		{Op: VAdd, Kind: cil.U8, Rd: Reg{Class: ClassVec}, Ra: Reg{Class: ClassVec}, Rb: Reg{Class: ClassVec}},
	}}
	risc := f.CodeBytes(4)
	if risc != 12 {
		t.Errorf("fixed-width size = %d, want 12", risc)
	}
	x86 := f.CodeBytes(3)
	if x86 <= 9 {
		t.Errorf("variable-width size = %d, want extra bytes for the large immediate and the SSE op", x86)
	}
	p := NewProgram("t")
	p.Add(f)
	if p.CodeBytes(4) != risc {
		t.Error("program size must sum function sizes")
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(cil.F32) != ClassFloat || ClassOf(cil.U8) != ClassInt || ClassOf(cil.Vec) != ClassVec || ClassOf(cil.Ref) != ClassInt {
		t.Error("ClassOf mapping wrong")
	}
	if ClassInt.String() != "r" || ClassFloat.String() != "f" || ClassVec.String() != "v" || ClassNone.String() != "-" {
		t.Error("class names wrong")
	}
}

// TestInstructionFootprint pins the size of what every compiled function
// keeps per instruction: calls carry their operands behind a pointer.
func TestInstructionFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Reg{}); n > 8 {
		t.Errorf("Reg is %d bytes, want <= 8", n)
	}
	if n := unsafe.Sizeof(Instr{}); n > 64 {
		t.Errorf("Instr is %d bytes, want <= 64", n)
	}
}
