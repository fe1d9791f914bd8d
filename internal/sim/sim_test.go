package sim

import (
	"strings"
	"testing"

	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/target"
	"repro/internal/vm"
)

// handProgram builds a small native function directly (no JIT): it sums the
// elements of an i32 array.
//
//	sum(arr, n): r2 = 0 (acc); r3 = 0 (i)
//	loop: if i >= n goto done; r4 = load arr[i]; acc += r4; i += 1; jump loop
//	done: ret acc
func handProgram() *nisa.Program {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: int32(i)} }
	f := &nisa.Func{
		Name:   "sum",
		Params: []cil.Type{cil.Array(cil.I32), cil.Scalar(cil.I32)},
		Ret:    cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(0), Imm: 0},                                     // 0
			{Op: nisa.GetArg, Kind: cil.I32, Rd: r(1), Imm: 1},                                     // 1
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(2)},                                             // 2: acc = 0
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(3)},                                             // 3: i = 0
			{Op: nisa.BranchCmp, Kind: cil.I32, Cond: nisa.CondGe, Ra: r(3), Rb: r(1), Target: 10}, // 4
			{Op: nisa.Load, Kind: cil.I32, Rd: r(4), Ra: r(0), Rb: r(3)},                           // 5
			{Op: nisa.Add, Kind: cil.I32, Rd: r(2), Ra: r(2), Rb: r(4)},                            // 6
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(5), Imm: 1},                                     // 7
			{Op: nisa.Add, Kind: cil.I32, Rd: r(3), Ra: r(3), Rb: r(5)},                            // 8
			{Op: nisa.Jump, Target: 4},                                                             // 9
			{Op: nisa.Ret, Kind: cil.I32, Ra: r(2)},                                                // 10
		},
	}
	prog := nisa.NewProgram("hand")
	prog.Add(f)
	return prog
}

func TestMachineExecutesHandWrittenLoop(t *testing.T) {
	tgt := target.MustLookup(target.PPC)
	m := New(tgt, handProgram())
	arr := vm.NewArray(cil.I32, 10)
	want := int64(0)
	for i := 0; i < 10; i++ {
		arr.SetInt(i, int64(i*i))
		want += int64(i * i)
	}
	addr := m.CopyInArray(arr)
	res, err := m.Call("sum", IntArg(int64(addr)), IntArg(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != want {
		t.Errorf("sum = %d, want %d", res.I, want)
	}
	if m.Stats.Cycles == 0 || m.Stats.Instructions == 0 || m.Stats.Loads != 10 || m.Stats.Branches == 0 {
		t.Errorf("statistics look wrong: %+v", m.Stats)
	}
	m.ResetStats()
	if m.Stats.Cycles != 0 {
		t.Error("ResetStats did not clear cycles")
	}
}

func TestMachineArrayRoundTrip(t *testing.T) {
	m := New(target.MustLookup(target.X86SSE), nisa.NewProgram("empty"))
	src := vm.NewArray(cil.F64, 5)
	for i := 0; i < 5; i++ {
		src.SetFloat(i, float64(i)+0.5)
	}
	addr := m.CopyInArray(src)
	dst := vm.NewArray(cil.F64, 5)
	if err := m.CopyOutArray(addr, dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if dst.Float(i) != src.Float(i) {
			t.Fatalf("element %d mismatch", i)
		}
	}
	wrong := vm.NewArray(cil.F64, 3)
	if err := m.CopyOutArray(addr, wrong); err == nil {
		t.Error("length mismatch accepted")
	}
	// A second allocation must not overlap the first.
	addr2 := m.AllocArray(cil.U8, 32)
	if addr2 <= addr {
		t.Error("allocations overlap")
	}
}

func TestMachineTraps(t *testing.T) {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: int32(i)} }
	mk := func(code ...nisa.Instr) *Machine {
		f := &nisa.Func{Name: "f", Ret: cil.Scalar(cil.I32), Code: code}
		p := nisa.NewProgram("t")
		p.Add(f)
		return New(target.MustLookup(target.MCU), p)
	}

	// Division by zero.
	m := mk(
		nisa.Instr{Op: nisa.MovImm, Kind: cil.I32, Rd: r(0), Imm: 3},
		nisa.Instr{Op: nisa.MovImm, Kind: cil.I32, Rd: r(1), Imm: 0},
		nisa.Instr{Op: nisa.Div, Kind: cil.I32, Rd: r(2), Ra: r(0), Rb: r(1)},
		nisa.Instr{Op: nisa.Ret, Kind: cil.I32, Ra: r(2)},
	)
	if _, err := m.Call("f"); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected division trap, got %v", err)
	}

	// Null / out-of-range memory access.
	m = mk(
		nisa.Instr{Op: nisa.MovImm, Kind: cil.I32, Rd: r(0), Imm: 0},
		nisa.Instr{Op: nisa.Load, Kind: cil.I32, Rd: r(1), Ra: r(0), Rb: r(0)},
		nisa.Instr{Op: nisa.Ret, Kind: cil.I32, Ra: r(1)},
	)
	if _, err := m.Call("f"); err == nil || !strings.Contains(err.Error(), "null reference") {
		t.Errorf("expected null trap, got %v", err)
	}
	m = mk(
		nisa.Instr{Op: nisa.MovImm, Kind: cil.I32, Rd: r(0), Imm: 1 << 30},
		nisa.Instr{Op: nisa.Load, Kind: cil.I32, Rd: r(1), Ra: r(0), Rb: r(0)},
		nisa.Instr{Op: nisa.Ret, Kind: cil.I32, Ra: r(1)},
	)
	if _, err := m.Call("f"); err == nil || !strings.Contains(err.Error(), "outside the heap") {
		t.Errorf("expected bounds trap, got %v", err)
	}

	// Vector instruction on a target without SIMD.
	m = mk(
		nisa.Instr{Op: nisa.VSplat, Kind: cil.U8, Rd: nisa.Reg{Class: nisa.ClassVec}, Ra: r(0)},
		nisa.Instr{Op: nisa.Ret, Kind: cil.I32, Ra: r(0)},
	)
	if _, err := m.Call("f"); err == nil || !strings.Contains(err.Error(), "without a vector unit") {
		t.Errorf("expected missing-SIMD trap, got %v", err)
	}

	// Step budget.
	m = mk(nisa.Instr{Op: nisa.Jump, Target: 0})
	m.MaxSteps = 1000
	if _, err := m.Call("f"); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("expected step budget trap, got %v", err)
	}

	// Unknown function and wrong arity.
	if _, err := m.Call("missing"); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := m.Call("f", IntArg(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	// Negative allocation.
	m = mk(
		nisa.Instr{Op: nisa.MovImm, Kind: cil.I32, Rd: r(0), Imm: -1},
		nisa.Instr{Op: nisa.Alloc, Kind: cil.I32, Rd: r(1), Ra: r(0)},
		nisa.Instr{Op: nisa.Ret, Kind: cil.I32, Ra: r(1)},
	)
	if _, err := m.Call("f"); err == nil || !strings.Contains(err.Error(), "negative array length") {
		t.Errorf("expected negative-length trap, got %v", err)
	}
}

func TestVectorInstructionSemantics(t *testing.T) {
	tgt := target.MustLookup(target.X86SSE)
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: int32(i)} }
	v := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassVec, Index: int32(i)} }
	// f(arr): v0 = vload arr[0]; v1 = splat(3); v2 = vmax(v0, v1); ret vredadd(v2)
	f := &nisa.Func{
		Name:   "f",
		Params: []cil.Type{cil.Array(cil.U8)},
		Ret:    cil.Scalar(cil.U64),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(0), Imm: 0},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(1)},
			{Op: nisa.VLoad, Kind: cil.U8, Rd: v(0), Ra: r(0), Rb: r(1)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(2), Imm: 3},
			{Op: nisa.VSplat, Kind: cil.U8, Rd: v(1), Ra: r(2)},
			{Op: nisa.VMax, Kind: cil.U8, Rd: v(2), Ra: v(0), Rb: v(1)},
			{Op: nisa.VRedAdd, Kind: cil.U8, Rd: r(3), Ra: v(2)},
			{Op: nisa.Ret, Kind: cil.U64, Ra: r(3)},
		},
	}
	p := nisa.NewProgram("t")
	p.Add(f)
	m := New(tgt, p)
	arr := vm.NewArray(cil.U8, 16)
	want := int64(0)
	for i := 0; i < 16; i++ {
		arr.SetInt(i, int64(i))
		if i > 3 {
			want += int64(i)
		} else {
			want += 3
		}
	}
	addr := m.CopyInArray(arr)
	res, err := m.Call("f", IntArg(int64(addr)))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != want {
		t.Errorf("vector pipeline = %d, want %d", res.I, want)
	}
	if m.Stats.VectorOps != 4 {
		t.Errorf("vector op count = %d, want 4", m.Stats.VectorOps)
	}
}
