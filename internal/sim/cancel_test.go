package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/target"
	"repro/internal/vm"
)

// countProgram builds count(n): a pure counting loop with no memory
// traffic, so tests can make runs arbitrarily long without allocating
// simulated arrays.
func countProgram() *nisa.Program {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: int32(i)} }
	f := &nisa.Func{
		Name:   "count",
		Params: []cil.Type{cil.Scalar(cil.I64)},
		Ret:    cil.Scalar(cil.I64),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.I64, Rd: r(0), Imm: 0},
			{Op: nisa.MovImm, Kind: cil.I64, Rd: r(1)},
			{Op: nisa.MovImm, Kind: cil.I64, Rd: r(2), Imm: 1},
			{Op: nisa.BranchCmp, Kind: cil.I64, Cond: nisa.CondGe, Ra: r(1), Rb: r(0), Target: 6},
			{Op: nisa.Add, Kind: cil.I64, Rd: r(1), Ra: r(1), Rb: r(2)},
			{Op: nisa.Jump, Target: 3},
			{Op: nisa.Ret, Kind: cil.I64, Ra: r(1)},
		},
	}
	prog := nisa.NewProgram("cancel")
	prog.Add(f)
	return prog
}

func TestCallContextCancelMidRun(t *testing.T) {
	m := New(target.MustLookup(target.PPC), countProgram())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := m.CallContext(ctx, "count", IntArg(1<<40))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CallContext = %v, want context.Canceled", err)
	}
	if m.Stats.Instructions == 0 {
		t.Fatal("cancelled run executed nothing")
	}
	// The machine survives an interrupted run: a fresh call works and the
	// disabled-polling sentinel is restored.
	res, err := m.CallContext(context.Background(), "count", IntArg(100))
	if err != nil || res.I != 100 {
		t.Fatalf("call after cancel = %v, %v; want 100", res.I, err)
	}
}

func TestCallContextDeadline(t *testing.T) {
	m := New(target.MustLookup(target.PPC), countProgram())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := m.CallContext(ctx, "count", IntArg(1<<40))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CallContext = %v, want context.DeadlineExceeded", err)
	}
}

func TestCallContextPreCancelled(t *testing.T) {
	m := New(target.MustLookup(target.PPC), countProgram())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.CallContext(ctx, "count", IntArg(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CallContext = %v, want context.Canceled", err)
	}
	if m.Stats.Instructions != 0 {
		t.Fatalf("pre-cancelled run executed %d instructions", m.Stats.Instructions)
	}
}

// TestCallContextIsMeteringInvisible pins the zero-drift contract: running
// under a live (never-cancelled) context must produce exactly the cycles,
// instructions and result of a plain Call — cancellation support may not
// move a gated metric.
func TestCallContextIsMeteringInvisible(t *testing.T) {
	tgt := target.MustLookup(target.X86SSE)
	run := func(withCtx bool) (Value, Stats) {
		m := New(tgt, handProgram())
		arr := vm.NewArray(cil.I32, 64)
		for i := 0; i < 64; i++ {
			arr.SetInt(i, int64(i))
		}
		addr := m.CopyInArray(arr)
		var res Value
		var err error
		if withCtx {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err = m.CallContext(ctx, "sum", IntArg(int64(addr)), IntArg(64))
		} else {
			res, err = m.Call("sum", IntArg(int64(addr)), IntArg(64))
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Stats
	}
	plainRes, plainStats := run(false)
	ctxRes, ctxStats := run(true)
	if plainRes != ctxRes {
		t.Fatalf("results differ: %v vs %v", plainRes, ctxRes)
	}
	if plainStats != ctxStats {
		t.Fatalf("stats differ:\nplain = %+v\n  ctx = %+v", plainStats, ctxStats)
	}
}
