package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cil"
	"repro/internal/faultinject"
	"repro/internal/nisa"
	"repro/internal/target"
	"repro/internal/vm"
)

func TestResourceErrorMessages(t *testing.T) {
	// The cycles rendering is the historical budget message, byte for byte:
	// callers (and tests) matched on its prose long before the error was
	// typed, and typing it must not break them.
	cyc := &ResourceError{Kind: ResourceCycles, Limit: 42, Func: "f"}
	if got, want := cyc.Error(), "sim: instruction budget of 42 exhausted in f"; got != want {
		t.Errorf("cycles message = %q, want %q", got, want)
	}
	mem := &ResourceError{Kind: ResourceMem, Limit: 100, Need: 164, Func: "g"}
	if got := mem.Error(); !strings.Contains(got, "memory limit of 100") || !strings.Contains(got, "164") {
		t.Errorf("mem message = %q", got)
	}
	dl := &ResourceError{Kind: ResourceDeadline, Limit: int64(1e9), Func: "h"}
	if got := dl.Error(); !strings.Contains(got, "deadline of 1s") {
		t.Errorf("deadline message = %q", got)
	}
}

func TestBudgetExhaustionIsTyped(t *testing.T) {
	prog := nisa.NewProgram("p")
	prog.Add(&nisa.Func{
		Name: "f",
		Ret:  cil.Scalar(cil.I32),
		Code: []nisa.Instr{{Op: nisa.Jump, Target: 0}},
	})
	m := New(target.MustLookup(target.PPC), prog)
	m.MaxSteps = 1000
	_, err := m.Call("f")
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("budget exhaustion = %v, want *ResourceError", err)
	}
	if re.Kind != ResourceCycles || re.Limit != 1000 || re.Func != "f" {
		t.Errorf("ResourceError = %+v", re)
	}
	if !strings.Contains(err.Error(), "instruction budget") {
		t.Errorf("typed budget error lost the historical message: %q", err)
	}
}

// countdownProgram holds count(n), a loop that retires exactly 3n+5
// instructions, and thrice(n), which calls count(n) three times.
func countdownProgram() *nisa.Program {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: i} }
	prog := nisa.NewProgram("budget")
	prog.Add(&nisa.Func{
		Name:   "count",
		Params: []cil.Type{cil.Scalar(cil.I32)},
		Ret:    cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.I32, Rd: r(0)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(1), Imm: 1},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(2)},
			{Op: nisa.BranchCmp, Kind: cil.I32, Cond: nisa.CondLe, Ra: r(0), Rb: r(2), Target: 6},
			{Op: nisa.Sub, Kind: cil.I32, Rd: r(0), Ra: r(0), Rb: r(1)},
			{Op: nisa.Jump, Target: 3},
			{Op: nisa.Ret, Kind: cil.I32, Ra: r(0)},
		},
	})
	call := nisa.Instr{Op: nisa.Call, Sym: "count", Rd: r(1), Args: []nisa.Reg{r(0)}}
	prog.Add(&nisa.Func{
		Name:   "thrice",
		Params: []cil.Type{cil.Scalar(cil.I32)},
		Ret:    cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.I32, Rd: r(0)},
			call, call, call,
			{Op: nisa.Ret, Kind: cil.I32, Ra: r(1)},
		},
	})
	return prog
}

// TestInstructionBudgetIsPerTopLevelCall: MaxSteps bounds one Call, not the
// machine's lifetime. A long-lived machine keeps answering calls that fit
// the budget, a single call one instruction over it still fails typed, and
// the activations nested under one Call draw on the same budget.
func TestInstructionBudgetIsPerTopLevelCall(t *testing.T) {
	m := New(target.MustLookup(target.PPC), countdownProgram())
	m.MaxSteps = 1000
	for call := 0; call < 10000; call++ {
		before := m.Stats.Instructions
		if _, err := m.Call("count", IntArg(165)); err != nil {
			t.Fatalf("call %d of a 500-instruction function: %v", call, err)
		}
		if got := m.Stats.Instructions - before; got != 500 {
			t.Fatalf("count(165) retired %d instructions, want 500", got)
		}
	}
	wantBudgetError := func(what string, err error) {
		t.Helper()
		var re *ResourceError
		if !errors.As(err, &re) || re.Kind != ResourceCycles || re.Limit != 1000 {
			t.Fatalf("%s = %v, want the typed budget error with Limit 1000", what, err)
		}
	}
	before := m.Stats.Instructions
	_, err := m.Call("count", IntArg(332)) // 1001 instructions
	wantBudgetError("a 1001-instruction call", err)
	if got := m.Stats.Instructions - before; got != 1000 {
		t.Errorf("the failed call retired %d instructions, want exactly the budget", got)
	}
	_, err = m.Call("thrice", IntArg(165)) // three 500-instruction activations
	wantBudgetError("three nested 500-instruction calls", err)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = m.CallContext(ctx, "count", IntArg(332))
	wantBudgetError("a 1001-instruction CallContext", err)
	if _, err := m.CallContext(ctx, "count", IntArg(165)); err != nil {
		t.Fatalf("a machine that exhausted a budget refuses the next call: %v", err)
	}
}

// runSum executes the hand-written array-sum program once on a fresh
// machine with the given memory limit and returns the machine and outcome.
func runSum(limit int64) (*Machine, Value, error) {
	m := New(target.MustLookup(target.PPC), handProgram())
	m.MemLimit = limit
	arr := vm.NewArray(cil.I32, 16)
	for i := 0; i < 16; i++ {
		arr.SetInt(i, int64(i))
	}
	addr := m.CopyInArray(arr)
	v, err := m.Call("sum", IntArg(int64(addr)), IntArg(16))
	return m, v, err
}

func TestMemAccountingDeterministicAndTight(t *testing.T) {
	m1, want, err := runSum(0)
	if err != nil {
		t.Fatal(err)
	}
	used := m1.MemUsed()
	if used <= 0 {
		t.Fatalf("MemUsed = %d after a run that copied an array in", used)
	}
	m2, _, err := runSum(0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.MemUsed() != used {
		t.Fatalf("accounting not deterministic: %d then %d", used, m2.MemUsed())
	}

	// The reported usage is the exact smallest sufficient limit: governed at
	// MemUsed the run is identical, one byte lower it fails typed.
	gov, got, err := runSum(used)
	if err != nil {
		t.Fatalf("run under just-sufficient limit: %v", err)
	}
	if got.I != want.I {
		t.Fatalf("governed run computed %d, want %d", got.I, want.I)
	}
	if gov.MemUsed() != used {
		t.Fatalf("governed run charged %d, ungoverned %d", gov.MemUsed(), used)
	}
	_, _, err = runSum(used - 1)
	var re *ResourceError
	if !errors.As(err, &re) || re.Kind != ResourceMem {
		t.Fatalf("one-byte-lower limit = %v, want ResourceError{mem}", err)
	}
}

// allocProgram returns a program whose single function allocates an i64
// array of n elements and returns its address.
func allocProgram(n int64) *nisa.Program {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: i} }
	prog := nisa.NewProgram("p")
	prog.Add(&nisa.Func{
		Name: "f",
		Ret:  cil.Scalar(cil.I64),
		Code: []nisa.Instr{
			{Op: nisa.MovImm, Kind: cil.I64, Rd: r(0), Imm: n},
			{Op: nisa.Alloc, Kind: cil.I64, Rd: r(1), Ra: r(0)},
			{Op: nisa.Ret, Kind: cil.I64, Ra: r(1)},
		},
	})
	return prog
}

func TestHostileAllocationCheckedBeforeHostAllocator(t *testing.T) {
	// A hostile length must fail the governed run before the host allocator
	// ever sees it — the whole point of pre-checking xAlloc. 1<<40 i64
	// elements would be 8 TiB; if the check ran after allocation this test
	// would OOM instead of failing typed.
	m := New(target.MustLookup(target.PPC), allocProgram(1<<40))
	m.MemLimit = 1 << 20
	_, err := m.Call("f")
	var re *ResourceError
	if !errors.As(err, &re) || re.Kind != ResourceMem {
		t.Fatalf("hostile alloc = %v, want ResourceError{mem}", err)
	}

	// Lengths whose byte size overflows int64 take the overflow guard to the
	// same typed error.
	m = New(target.MustLookup(target.PPC), allocProgram(math.MaxInt64/4))
	m.MemLimit = 1 << 20
	_, err = m.Call("f")
	if !errors.As(err, &re) || re.Kind != ResourceMem {
		t.Fatalf("overflowing alloc = %v, want ResourceError{mem}", err)
	}
}

func TestMemGrowFaultSite(t *testing.T) {
	if err := faultinject.Arm("sim.memgrow:error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	m := New(target.MustLookup(target.PPC), allocProgram(4))
	_, err := m.Call("f")
	var re *ResourceError
	if !errors.As(err, &re) || re.Kind != ResourceMem {
		t.Fatalf("injected memgrow = %v, want ResourceError{mem}", err)
	}
	if re.Need != math.MaxInt64 {
		t.Errorf("injected breach Need = %d, want MaxInt64", re.Need)
	}
}

func TestPanicFaultSitePanics(t *testing.T) {
	if err := faultinject.Arm("sim.panic:error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	defer func() {
		if r := recover(); r == nil {
			t.Error("sim.panic fault site did not panic")
		}
	}()
	m := New(target.MustLookup(target.PPC), allocProgram(4))
	_, _ = m.Call("f")
}
