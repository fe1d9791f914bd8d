package sim

import (
	"strings"
	"testing"

	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/target"
	"repro/internal/vm"
)

func intReg(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: int32(i)} }
func fltReg(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassFloat, Index: int32(i)} }
func vecReg(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassVec, Index: int32(i)} }

func machineFor(t *testing.T, arch target.Arch, fns ...*nisa.Func) *Machine {
	t.Helper()
	p := nisa.NewProgram("edge")
	for _, f := range fns {
		p.Add(f)
	}
	return New(target.MustLookup(arch), p)
}

// TestVectorAccessOutOfBounds checks that a VLoad whose 16-byte span hangs
// over the end of an array's heap allocation traps instead of reading the
// neighbouring allocation, and that a VLoad through a null base traps as a
// null dereference.
func TestVectorAccessOutOfBounds(t *testing.T) {
	f := &nisa.Func{
		Name:   "f",
		Params: []cil.Type{cil.Array(cil.U8), cil.Scalar(cil.I32)},
		Ret:    cil.Scalar(cil.U64),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: intReg(0), Imm: 0},
			{Op: nisa.GetArg, Kind: cil.I32, Rd: intReg(1), Imm: 1},
			{Op: nisa.VLoad, Kind: cil.U8, Rd: vecReg(0), Ra: intReg(0), Rb: intReg(1)},
			{Op: nisa.VRedAdd, Kind: cil.U8, Rd: intReg(2), Ra: vecReg(0)},
			{Op: nisa.Ret, Kind: cil.U64, Ra: intReg(2)},
		},
	}
	m := machineFor(t, target.X86SSE, f)
	arr := vm.NewArray(cil.U8, 16)
	addr := m.CopyInArray(arr)

	// In bounds: a full vector starting at element 0.
	if _, err := m.Call("f", IntArg(int64(addr)), IntArg(0)); err != nil {
		t.Fatalf("in-bounds vector load failed: %v", err)
	}
	// The heap is padded for alignment, so probe far past the end: the
	// 16-byte span starting there must trap.
	if _, err := m.Call("f", IntArg(int64(addr)), IntArg(1<<28)); err == nil || !strings.Contains(err.Error(), "outside the heap") {
		t.Errorf("overhanging vector load: got %v, want bounds trap", err)
	}
	// Null base.
	if _, err := m.Call("f", IntArg(0), IntArg(0)); err == nil || !strings.Contains(err.Error(), "null reference") {
		t.Errorf("null vector load: got %v, want null trap", err)
	}
}

// TestSpillRoundTripAllClasses spills and reloads a value in each register
// class (int, float, vector) and checks both the reloaded values and the
// spill statistics.
func TestSpillRoundTripAllClasses(t *testing.T) {
	f := &nisa.Func{
		Name:       "f",
		Ret:        cil.Scalar(cil.F64),
		FrameSlots: 3,
		Code: []nisa.Instr{
			// Spill an integer, a float and a vector.
			{Op: nisa.MovImm, Kind: cil.I64, Rd: intReg(0), Imm: -123456789},
			{Op: nisa.SpillStore, Rd: intReg(0), Imm: 0},
			{Op: nisa.MovFImm, Rd: fltReg(0), FImm: 2.75},
			{Op: nisa.SpillStore, Rd: fltReg(0), Imm: 1},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: intReg(1), Imm: 9},
			{Op: nisa.VSplat, Kind: cil.I32, Rd: vecReg(0), Ra: intReg(1)},
			{Op: nisa.SpillStore, Rd: vecReg(0), Imm: 2},
			// Clobber every register involved.
			{Op: nisa.MovImm, Kind: cil.I64, Rd: intReg(0), Imm: 0},
			{Op: nisa.MovFImm, Rd: fltReg(0), FImm: 0},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: intReg(2)},
			{Op: nisa.VSplat, Kind: cil.I32, Rd: vecReg(0), Ra: intReg(2)},
			// Reload and combine: ret = float(int + vredadd(vec)) + flt
			{Op: nisa.SpillLoad, Rd: intReg(0), Imm: 0},
			{Op: nisa.SpillLoad, Rd: fltReg(0), Imm: 1},
			{Op: nisa.SpillLoad, Rd: vecReg(0), Imm: 2},
			{Op: nisa.VRedAdd, Kind: cil.I32, Rd: intReg(3), Ra: vecReg(0)},
			{Op: nisa.Add, Kind: cil.I64, Rd: intReg(0), Ra: intReg(0), Rb: intReg(3)},
			{Op: nisa.Conv, Kind: cil.F64, SrcKind: cil.I64, Rd: fltReg(1), Ra: intReg(0)},
			{Op: nisa.FAdd, Kind: cil.F64, Rd: fltReg(0), Ra: fltReg(0), Rb: fltReg(1)},
			{Op: nisa.Ret, Kind: cil.F64, Ra: fltReg(0)},
		},
	}
	m := machineFor(t, target.X86SSE, f)
	res, err := m.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	want := float64(-123456789+4*9) + 2.75
	if res.F != want {
		t.Errorf("spill round trip = %v, want %v", res.F, want)
	}
	if m.Stats.SpillStores != 3 || m.Stats.SpillLoads != 3 {
		t.Errorf("spill stats = %d stores, %d loads, want 3/3", m.Stats.SpillStores, m.Stats.SpillLoads)
	}
}

// TestMaxCallDepth checks that unbounded recursion is cut off at the call
// depth limit rather than exhausting the host stack.
func TestMaxCallDepth(t *testing.T) {
	f := &nisa.Func{
		Name: "f",
		Ret:  cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "f"}, Rd: intReg(0)},
			{Op: nisa.Ret, Kind: cil.I32, Ra: intReg(0)},
		},
	}
	m := machineFor(t, target.MCU, f)
	if _, err := m.Call("f"); err == nil || !strings.Contains(err.Error(), "call depth exceeds") {
		t.Errorf("unbounded recursion: got %v, want call depth trap", err)
	}
	// The machine must stay usable after unwinding.
	g := &nisa.Func{
		Name: "g",
		Ret:  cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.MovImm, Kind: cil.I32, Rd: intReg(0), Imm: 7},
			{Op: nisa.Ret, Kind: cil.I32, Ra: intReg(0)},
		},
	}
	m.Program.Add(g)
	res, err := m.Call("g")
	if err != nil || res.I != 7 {
		t.Errorf("machine unusable after depth trap: res=%v err=%v", res, err)
	}
}

// TestCopyOutArrayHardening checks that CopyOutArray rejects addresses
// outside the heap with an error instead of panicking on the slice index.
func TestCopyOutArrayHardening(t *testing.T) {
	m := machineFor(t, target.X86SSE)
	src := vm.NewArray(cil.I32, 4)
	addr := m.CopyInArray(src)
	dst := vm.NewArray(cil.I32, 4)

	for _, bad := range []Addr{-1, 0, arrayHeader - 1, 1 << 40} {
		if err := m.CopyOutArray(bad, dst); err == nil {
			t.Errorf("CopyOutArray(%d) accepted an out-of-range address", bad)
		}
	}
	// An address so close to the end that the data would overrun.
	end := Addr(len(m.memBytes()))
	if err := m.CopyOutArray(end-2, dst); err == nil {
		t.Error("CopyOutArray accepted an overrunning copy")
	}
	if err := m.CopyOutArray(addr, dst); err != nil {
		t.Errorf("valid CopyOutArray failed: %v", err)
	}
}

// memBytes exposes the heap size to the hardening test.
func (m *Machine) memBytes() []byte { return m.mem }

// TestReusedFramesAreZeroed guards the frame pool: a function reading a
// register it never wrote must see zero even when an earlier call left other
// values in the pooled frame.
func TestReusedFramesAreZeroed(t *testing.T) {
	dirty := &nisa.Func{
		Name: "dirty",
		Ret:  cil.Scalar(cil.I64),
		Code: []nisa.Instr{
			{Op: nisa.MovImm, Kind: cil.I64, Rd: intReg(5), Imm: 777},
			{Op: nisa.Ret, Kind: cil.I64, Ra: intReg(5)},
		},
	}
	// Reads r5 without initializing it.
	lazy := &nisa.Func{
		Name: "lazy",
		Ret:  cil.Scalar(cil.I64),
		Code: []nisa.Instr{
			{Op: nisa.Ret, Kind: cil.I64, Ra: intReg(5)},
		},
	}
	m := machineFor(t, target.PPC, dirty, lazy)
	if res, err := m.Call("dirty"); err != nil || res.I != 777 {
		t.Fatalf("dirty = %v, %v", res, err)
	}
	if res, err := m.Call("lazy"); err != nil || res.I != 0 {
		t.Errorf("reused frame leaked state: lazy = %d (err %v), want 0", res.I, err)
	}
}
