package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/profile"
	"repro/internal/target"
	"repro/internal/vm"
)

// vecProgram builds a vectorized loop by hand so the vector fusion
// patterns have something to bite on: out[i..i+16) = max(in[i..i+16), 3)
// over one 32-element u8 array, vector step 16.
//
//	pc 0-1: args; 2: vc = splat(3); 3: i = 0; 4: n = 32; 5: step = 16
//	loop 6: if i >= n goto 12
//	     7: v0 = vload in[i]        (fuses with 8)
//	     8: v1 = vmax(v0, vc)
//	     9: vstore out[i] = v1
//	    10: i += step
//	    11: jump 6
//	done 12: ret i
func vecProgram() *nisa.Program {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: i} }
	v := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassVec, Index: i} }
	f := &nisa.Func{
		Name:   "vmax3",
		Params: []cil.Type{cil.Array(cil.U8), cil.Array(cil.U8)},
		Ret:    cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(0), Imm: 0},
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(1), Imm: 1},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(2), Imm: 3},
			{Op: nisa.VSplat, Kind: cil.U8, Rd: v(2), Ra: r(2)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(3)},                                             // i = 0
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(4), Imm: 32},                                    // n
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(5), Imm: 16},                                    // step
			{Op: nisa.BranchCmp, Kind: cil.I32, Cond: nisa.CondGe, Ra: r(3), Rb: r(4), Target: 13}, // 7
			{Op: nisa.VLoad, Kind: cil.U8, Rd: v(0), Ra: r(0), Rb: r(3)},                           // 8
			{Op: nisa.VMax, Kind: cil.U8, Rd: v(1), Ra: v(0), Rb: v(2)},                            // 9
			{Op: nisa.VStore, Kind: cil.U8, Rd: v(1), Ra: r(1), Rb: r(3)},                          // 10
			{Op: nisa.Add, Kind: cil.I32, Rd: r(3), Ra: r(3), Rb: r(5)},                            // 11
			{Op: nisa.Jump, Target: 7},                                                             // 12
			{Op: nisa.Ret, Kind: cil.I32, Ra: r(3)},                                                // 13
		},
	}
	prog := nisa.NewProgram("vec")
	prog.Add(f)
	return prog
}

func sumInput(m *Machine) (addr Addr, want int64) {
	arr := vm.NewArray(cil.I32, 10)
	for i := 0; i < 10; i++ {
		arr.SetInt(i, int64(i*i))
		want += int64(i * i)
	}
	return m.CopyInArray(arr), want
}

// TestTieredExecutionBitIdentical is the sim-level differential gate: a
// tiered machine promoting mid-run must produce the same per-call results
// and the same cumulative Stats — cycles included — as a plain tier-1
// machine, before and after promotion.
func TestTieredExecutionBitIdentical(t *testing.T) {
	tgt := target.MustLookup(target.PPC)
	plain := New(tgt, handProgram())
	tiered := New(tgt, handProgram())
	tiered.EnableTiering(profile.Policy{PromoteCalls: 3})

	addrP, want := sumInput(plain)
	addrT, _ := sumInput(tiered)

	for call := 1; call <= 8; call++ {
		rp, errP := plain.Call("sum", IntArg(int64(addrP)), IntArg(10))
		rt, errT := tiered.Call("sum", IntArg(int64(addrT)), IntArg(10))
		if errP != nil || errT != nil {
			t.Fatalf("call %d: errors %v / %v", call, errP, errT)
		}
		if rp != rt || rt.I != want {
			t.Fatalf("call %d: plain %v tiered %v want %d", call, rp, rt, want)
		}
		if plain.Stats != tiered.Stats {
			t.Fatalf("call %d: stats diverged\nplain:  %+v\ntiered: %+v", call, plain.Stats, tiered.Stats)
		}
	}

	ts := tiered.TierStats()
	if ts.Promotions != 1 || ts.PromoteCallsSum != 3 {
		t.Errorf("promotion bookkeeping = %+v, want 1 promotion at call 3", ts)
	}
	// handProgram's loop latch is MovImm #1; Add — one fusible pair.
	if ts.FusedPairs < 1 {
		t.Errorf("FusedPairs = %d, want >= 1", ts.FusedPairs)
	}
	if plain.TierStats() != (TierStats{}) || plain.TieringEnabled() {
		t.Error("plain machine reports tiering activity")
	}
}

func TestTieredVectorLoopBitIdentical(t *testing.T) {
	tgt := target.MustLookup(target.X86SSE)
	plain := New(tgt, vecProgram())
	tiered := New(tgt, vecProgram())
	tiered.EnableTiering(profile.Policy{PromoteCalls: 2})

	in := vm.NewArray(cil.U8, 32)
	for i := 0; i < 32; i++ {
		in.SetInt(i, int64(i%7))
	}
	run := func(m *Machine) (Value, []int64) {
		inAddr := m.CopyInArray(in)
		outAddr := m.AllocArray(cil.U8, 32)
		var res Value
		for call := 0; call < 4; call++ {
			var err error
			res, err = m.Call("vmax3", IntArg(int64(inAddr)), IntArg(int64(outAddr)))
			if err != nil {
				t.Fatal(err)
			}
		}
		out := vm.NewArray(cil.U8, 32)
		if err := m.CopyOutArray(outAddr, out); err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, 32)
		for i := range vals {
			vals[i] = out.Int(i)
		}
		return res, vals
	}
	rp, outP := run(plain)
	rt, outT := run(tiered)
	if rp != rt || !reflect.DeepEqual(outP, outT) {
		t.Fatalf("vector results diverged: %v/%v", rp, rt)
	}
	for i, v := range outP {
		want := int64(i % 7)
		if want < 3 {
			want = 3
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
	if plain.Stats != tiered.Stats {
		t.Fatalf("stats diverged\nplain:  %+v\ntiered: %+v", plain.Stats, tiered.Stats)
	}
	ts := tiered.TierStats()
	// VLoad;VMax fuses (the VStore partner is consumed by the pair ahead
	// of it); the Add;Jump latch does not match any pattern here.
	if ts.Promotions != 1 || ts.FusedPairs < 1 {
		t.Errorf("tier stats = %+v, want a promotion with fused vector pairs", ts)
	}
}

// TestTieredBudgetTrapIdentical pins the subtlest invariance case: the
// instruction budget can expire between the two halves of a fused pair,
// and the error plus the statistics at the point of the trap must match
// tier 1 exactly.
func TestTieredBudgetTrapIdentical(t *testing.T) {
	tgt := target.MustLookup(target.PPC)
	plain := New(tgt, handProgram())
	tiered := New(tgt, handProgram())
	tiered.EnableTiering(profile.Policy{PromoteCalls: 2})

	addrP, _ := sumInput(plain)
	addrT, _ := sumInput(tiered)
	for call := 0; call < 3; call++ { // past promotion, fused code in place
		if _, err := tiered.Call("sum", IntArg(int64(addrT)), IntArg(10)); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Call("sum", IntArg(int64(addrP)), IntArg(10)); err != nil {
			t.Fatal(err)
		}
	}
	if tiered.TierStats().FusedPairs < 1 {
		t.Fatal("loop did not fuse; budget test would not cover fused dispatch")
	}
	// Walk the budget through every expiry point in the loop body.
	for extra := int64(1); extra <= 8; extra++ {
		plain.ResetStats()
		tiered.ResetStats()
		plain.MaxSteps = 20 + extra
		tiered.MaxSteps = 20 + extra
		_, errP := plain.Call("sum", IntArg(int64(addrP)), IntArg(10))
		_, errT := tiered.Call("sum", IntArg(int64(addrT)), IntArg(10))
		if errP == nil || errT == nil {
			t.Fatalf("budget %d: expected traps, got %v / %v", extra, errP, errT)
		}
		if errP.Error() != errT.Error() {
			t.Fatalf("budget %d: error mismatch\nplain:  %v\ntiered: %v", extra, errP, errT)
		}
		if !strings.Contains(errT.Error(), "instruction budget") {
			t.Fatalf("budget %d: unexpected trap %v", extra, errT)
		}
		if plain.Stats != tiered.Stats {
			t.Fatalf("budget %d: stats at trap diverged\nplain:  %+v\ntiered: %+v", extra, plain.Stats, tiered.Stats)
		}
	}
}

// TestResetStatsKeepsProfileCounters: Stats are per-measurement and reset
// freely; the profile counters live outside them and must survive, or
// promotion would restart whenever a benchmark harness resets statistics.
func TestResetStatsKeepsProfileCounters(t *testing.T) {
	tgt := target.MustLookup(target.MCU)
	m := New(tgt, handProgram())
	m.EnableTiering(profile.Policy{PromoteCalls: 4})
	addr, _ := sumInput(m)
	for call := 0; call < 2; call++ {
		if _, err := m.Call("sum", IntArg(int64(addr)), IntArg(10)); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetStats()
	if m.Stats.Cycles != 0 || m.Stats.Instructions != 0 {
		t.Fatalf("ResetStats left statistics: %+v", m.Stats)
	}
	p := m.ProfileSnapshot()
	fp := p.Func("sum")
	if fp == nil || fp.Calls != 2 {
		t.Fatalf("profile counters did not survive ResetStats: %+v", p)
	}
	// Guard branch (ordinal 0): not-taken once per iteration, taken once
	// per call; back-edge jump (ordinal 1): taken once per iteration.
	want := []profile.BranchCount{{Taken: 2, NotTaken: 20}, {Taken: 20}}
	if !reflect.DeepEqual(fp.Branches, want) {
		t.Fatalf("branch counters = %+v, want %+v", fp.Branches, want)
	}
	// Promotion still lands on schedule (call 4) after the reset.
	for call := 0; call < 2; call++ {
		if _, err := m.Call("sum", IntArg(int64(addr)), IntArg(10)); err != nil {
			t.Fatal(err)
		}
	}
	if ts := m.TierStats(); ts.Promotions != 1 || ts.PromoteCallsSum != 4 {
		t.Fatalf("promotion after ResetStats = %+v", ts)
	}
}

// TestWarmProfilePromotesImmediately: importing a hot profile means the
// first local call promotes — the split-compilation payoff the tier
// metric family measures as promotion latency 1 instead of threshold.
func TestWarmProfilePromotesImmediately(t *testing.T) {
	tgt := target.MustLookup(target.PPC)
	exporter := New(tgt, handProgram())
	exporter.EnableTiering(profile.Policy{PromoteCalls: -1}) // profile only
	addr, _ := sumInput(exporter)
	for call := 0; call < 6; call++ {
		if _, err := exporter.Call("sum", IntArg(int64(addr)), IntArg(10)); err != nil {
			t.Fatal(err)
		}
	}
	if ts := exporter.TierStats(); ts.Promotions != 0 {
		t.Fatalf("profile-only machine promoted: %+v", ts)
	}
	exported := exporter.ProfileSnapshot()

	warm := New(tgt, handProgram())
	warm.EnableTiering(profile.Policy{PromoteCalls: 4})
	warm.WarmProfile(exported)
	addrW, want := sumInput(warm)
	res, err := warm.Call("sum", IntArg(int64(addrW)), IntArg(10))
	if err != nil || res.I != want {
		t.Fatalf("warm call: %v %v", res, err)
	}
	ts := warm.TierStats()
	if ts.WarmSeeded != 1 || ts.WarmDegraded != 0 {
		t.Fatalf("warm seeding = %+v", ts)
	}
	if ts.Promotions != 1 || ts.PromoteCallsSum != 1 {
		t.Fatalf("warm promotion latency = %+v, want promotion on local call 1", ts)
	}
	if ts.FusedPairs < 1 {
		t.Errorf("imported edge counts did not drive fusion: %+v", ts)
	}
	// The re-exported profile includes the imported history plus our call.
	if fp := warm.ProfileSnapshot().Func("sum"); fp == nil || fp.Calls != 7 {
		t.Errorf("re-exported profile = %+v", fp)
	}
}

// TestTieredSteadyStateZeroAlloc: with the counters bucketed into the
// pre-allocated dfunc, a profiled (and promoted) machine keeps the
// tier-1 zero-allocation steady state.
func TestTieredSteadyStateZeroAlloc(t *testing.T) {
	m := New(target.MustLookup(target.PPC), handProgram())
	m.EnableTiering(profile.Policy{PromoteCalls: 2})
	addr, _ := sumInput(m)
	args := []Value{IntArg(int64(addr)), IntArg(10)}
	for call := 0; call < 3; call++ { // warm up past promotion
		if _, err := m.Call("sum", args...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.Call("sum", args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("tiered steady state allocates %.1f per call, want 0", allocs)
	}
}

// TestWarmProfileShapeMismatchDegrades: a profile whose branch counters do
// not match the code (recorded on code that translated differently) seeds
// the invocation count only — negotiate-or-fallback, never an error.
func TestWarmProfileShapeMismatchDegrades(t *testing.T) {
	tgt := target.MustLookup(target.PPC)
	m := New(tgt, handProgram())
	m.EnableTiering(profile.Policy{PromoteCalls: 4})
	m.WarmProfile(&profile.ModuleProfile{Funcs: []profile.FuncProfile{
		{Name: "sum", Calls: 100, Branches: []profile.BranchCount{{Taken: 5}}}, // code has 2 branches
	}})
	addr, want := sumInput(m)
	res, err := m.Call("sum", IntArg(int64(addr)), IntArg(10))
	if err != nil || res.I != want {
		t.Fatalf("degraded warm call: %v %v", res, err)
	}
	ts := m.TierStats()
	if ts.WarmDegraded != 1 || ts.WarmSeeded != 0 {
		t.Fatalf("degraded seeding = %+v", ts)
	}
	// The call count still promotes on the first call, but with no edge
	// counts there is nothing to fuse.
	if ts.Promotions != 1 || ts.PromoteCallsSum != 1 || ts.FusedPairs != 0 {
		t.Fatalf("degraded promotion = %+v", ts)
	}
}
