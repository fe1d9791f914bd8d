package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/target"
	"repro/internal/vm"
)

// TestCallReturnsItsFrames: frames are scratch between top-level calls, so
// a machine holds none once a call has returned, however it returned.
func TestCallReturnsItsFrames(t *testing.T) {
	ppc := target.MustLookup(target.PPC)
	recursive := &nisa.Func{
		Name: "f",
		Ret:  cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "f"}, Rd: intReg(0)},
			{Op: nisa.Ret, Kind: cil.I32, Ra: intReg(0)},
		},
	}
	recProg := nisa.NewProgram("rec")
	recProg.Add(recursive)

	cases := []struct {
		name    string
		machine func() *Machine
		call    func(m *Machine) error
		wantErr bool
	}{
		{"normal", func() *Machine { return New(ppc, countdownProgram()) },
			func(m *Machine) error { _, err := m.Call("thrice", IntArg(5)); return err }, false},
		{"budget", func() *Machine { m := New(ppc, countdownProgram()); m.MaxSteps = 100; return m },
			func(m *Machine) error { _, err := m.Call("thrice", IntArg(50)); return err }, true},
		{"memory fault", func() *Machine { return New(ppc, handProgram()) },
			func(m *Machine) error { _, err := m.Call("sum", IntArg(0), IntArg(4)); return err }, true},
		{"governed breach", func() *Machine { m := New(ppc, allocProgram(1<<16)); m.MemLimit = 4096; return m },
			func(m *Machine) error { _, err := m.Call("f"); return err }, true},
		{"call depth", func() *Machine { return New(ppc, recProg) },
			func(m *Machine) error { _, err := m.Call("f"); return err }, true},
		{"deadline", func() *Machine { return New(ppc, countProgram()) },
			func(m *Machine) error {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
				defer cancel()
				_, err := m.CallContext(ctx, "count", IntArg(1<<40))
				return err
			}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.machine()
			err := c.call(m)
			if (err != nil) != c.wantErr {
				t.Fatalf("call error = %v, want error %v", err, c.wantErr)
			}
			if m.frames != nil {
				t.Errorf("machine holds a frame stack after the call returned")
			}
			if len(m.charged) == 0 {
				t.Errorf("no frame was charged to the machine")
			}
		})
	}
}

// sharedCodeProgram holds count and thrice (countdownProgram), sum
// (handProgram), and deep(n), which keeps n in the last of 40 spill slots
// across a nested call of thrice: three call depths and a spill area that
// only it needs.
func sharedCodeProgram() *nisa.Program {
	prog := countdownProgram()
	for _, f := range handProgram().Funcs {
		prog.Add(f)
	}
	prog.Add(&nisa.Func{
		Name:       "deep",
		Params:     []cil.Type{cil.Scalar(cil.I32)},
		Ret:        cil.Scalar(cil.I32),
		FrameSlots: 40,
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.I32, Rd: intReg(0)},
			{Op: nisa.SpillStore, Rd: intReg(0), Imm: 39},
			{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "thrice", Args: []nisa.Reg{intReg(0)}}, Rd: intReg(1)},
			{Op: nisa.SpillLoad, Rd: intReg(2), Imm: 39},
			{Op: nisa.Add, Kind: cil.I32, Rd: intReg(1), Ra: intReg(1), Rb: intReg(2)},
			{Op: nisa.Ret, Kind: cil.I32, Ra: intReg(1)},
		},
	})
	return prog
}

// callScript is one machine's sequence of top-level calls; step runs call
// i and renders its outcome.
type callScript struct {
	steps []func(m *Machine) (Value, error)
}

func (s callScript) step(m *Machine, i int) string {
	v, err := s.steps[i](m)
	return fmt.Sprintf("%+v %v", v, err)
}

// sumCall copies an n-element array in and sums it: the heap grows by a
// call's arguments as well as by its code.
func sumCall(n int) func(m *Machine) (Value, error) {
	return func(m *Machine) (Value, error) {
		arr := vm.NewArray(cil.I32, n)
		for i := 0; i < n; i++ {
			arr.SetInt(i, int64(i))
		}
		return m.Call("sum", IntArg(int64(m.CopyInArray(arr))), IntArg(int64(n)))
	}
}

func namedCall(name string, arg int64) func(m *Machine) (Value, error) {
	return func(m *Machine) (Value, error) { return m.Call(name, IntArg(arg)) }
}

// TestMachinesSharingCodeMatchSolo: two machines over one Code borrow from
// the same frame pool, yet each computes, counts and charges exactly what
// it does alone. The deep machine grows the pooled stacks (three depths, a
// 40-slot spill area) that the shallow one then runs on; the shallow one's
// MemUsed must not see them.
func TestMachinesSharingCodeMatchSolo(t *testing.T) {
	tgt := target.MustLookup(target.X86SSE)
	prog := sharedCodeProgram()
	deep := callScript{steps: []func(*Machine) (Value, error){
		namedCall("deep", 4), namedCall("thrice", 7), namedCall("deep", 9), sumCall(32), namedCall("deep", 1),
	}}
	shallow := callScript{steps: []func(*Machine) (Value, error){
		namedCall("count", 3), sumCall(8), namedCall("count", 11), namedCall("thrice", 2), sumCall(16),
	}}
	type outcome struct {
		results []string // of the first repetition
		stats   Stats
		used    int64
	}
	// run plays s reps times on m; step, when set, runs before each call
	// (the interleaving hook).
	run := func(m *Machine, s callScript, reps int, step func(i int)) outcome {
		var res []string
		for rep := 0; rep < reps; rep++ {
			for i := range s.steps {
				if step != nil {
					step(i)
				}
				if r := s.step(m, i); rep == 0 {
					res = append(res, r)
				}
			}
		}
		if m.frames != nil {
			t.Errorf("machine holds a frame stack between calls")
		}
		return outcome{res, m.Stats, m.MemUsed()}
	}
	check := func(mode string, s callScript, reps int, got outcome) {
		t.Helper()
		want := run(New(tgt, prog), s, reps, nil)
		if fmt.Sprint(got.results) != fmt.Sprint(want.results) {
			t.Errorf("%s: results %v, alone %v", mode, got.results, want.results)
		}
		if got.stats != want.stats {
			t.Errorf("%s: stats %+v, alone %+v", mode, got.stats, want.stats)
		}
		if got.used != want.used {
			t.Errorf("%s: MemUsed %d, alone %d", mode, got.used, want.used)
		}
	}

	// Interleaved on one goroutine: every call of one machine runs on the
	// stack the other's previous call returned.
	code := NewCode(tgt)
	md, ms := NewWithCode(prog, code), NewWithCode(prog, code)
	var shallowOut []string
	gotDeep := run(md, deep, 1, func(i int) { shallowOut = append(shallowOut, shallow.step(ms, i)) })
	check("interleaved deep", deep, 1, gotDeep)
	check("interleaved shallow", shallow, 1, outcome{shallowOut, ms.Stats, ms.MemUsed()})

	// Concurrent: both machines borrow from the pool at the same time.
	const reps = 50
	code = NewCode(tgt)
	md, ms = NewWithCode(prog, code), NewWithCode(prog, code)
	var wg sync.WaitGroup
	var gotShallow outcome
	wg.Add(2)
	go func() { defer wg.Done(); gotDeep = run(md, deep, reps, nil) }()
	go func() { defer wg.Done(); gotShallow = run(ms, shallow, reps, nil) }()
	wg.Wait()
	check("concurrent deep", deep, reps, gotDeep)
	check("concurrent shallow", shallow, reps, gotShallow)
}

// TestBorrowedStackCannotRaiseCharges: a stack another machine grew is
// larger than a fresh machine needs; running on it must charge the fresh
// machine exactly for its own needs — count(n) runs at depth 1 with one
// argument, so two frames (depths 0 and 1, as always) and one argument
// entry — and a governed run at that charge must still succeed.
func TestBorrowedStackCannotRaiseCharges(t *testing.T) {
	tgt := target.MustLookup(target.PPC)
	prog := sharedCodeProgram()
	code := NewCode(tgt)
	need := 2*code.frames.shape.frameBytes() + 16

	big := NewWithCode(prog, code)
	if _, err := big.Call("deep", IntArg(5)); err != nil {
		t.Fatal(err)
	}
	small := NewWithCode(prog, code)
	small.MemLimit = need
	if _, err := small.Call("count", IntArg(5)); err != nil {
		t.Fatalf("governed at its own charge %d: %v", need, err)
	}
	if small.MemUsed() != need {
		t.Errorf("MemUsed on a borrowed stack = %d, want %d", small.MemUsed(), need)
	}
	small = NewWithCode(prog, code)
	small.MemLimit = need - 1
	var re *ResourceError
	if _, err := small.Call("count", IntArg(5)); !errors.As(err, &re) || re.Kind != ResourceMem {
		t.Errorf("one byte under its own charge = %v, want ResourceError{mem}", err)
	}
}

// TestPoolKeepsNoDeepStack: a deep recursion or a spill-heavy function
// grows the stack it borrowed, and the pool outlives every machine; what it
// keeps must stay within pooledDepth frames of at most pooledSlots spill
// slots and argument entries. A machine charged for a deep call keeps its
// charge, and repeats the call on a trimmed stack with the same result and
// charge.
func TestPoolKeepsNoDeepStack(t *testing.T) {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: int32(i)} }
	prog := nisa.NewProgram("deep")
	// down(n) recurses to depth n+1 and returns 0.
	prog.Add(&nisa.Func{
		Name:   "down",
		Params: []cil.Type{cil.Scalar(cil.I32)},
		Ret:    cil.Scalar(cil.I32),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.I32, Rd: r(0)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(2)},
			{Op: nisa.BranchCmp, Kind: cil.I32, Cond: nisa.CondLe, Ra: r(0), Rb: r(2), Target: 6},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(1), Imm: 1},
			{Op: nisa.Sub, Kind: cil.I32, Rd: r(0), Ra: r(0), Rb: r(1)},
			{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "down", Args: []nisa.Reg{r(0)}}, Rd: r(0)},
			{Op: nisa.Ret, Kind: cil.I32, Ra: r(0)},
		},
	})
	// wide(n) keeps n in the last of a spill area larger than pooledSlots.
	prog.Add(&nisa.Func{
		Name:       "wide",
		Params:     []cil.Type{cil.Scalar(cil.I32)},
		Ret:        cil.Scalar(cil.I32),
		FrameSlots: 4 * pooledSlots,
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.I32, Rd: r(0)},
			{Op: nisa.SpillStore, Rd: r(0), Imm: 4*pooledSlots - 1},
			{Op: nisa.SpillLoad, Rd: r(1), Imm: 4*pooledSlots - 1},
			{Op: nisa.Ret, Kind: cil.I32, Ra: r(1)},
		},
	})
	code := NewCode(target.MustLookup(target.PPC))
	pool := code.frames
	checkPool := func(after string) {
		t.Helper()
		pool.mu.Lock()
		defer pool.mu.Unlock()
		if len(pool.free) == 0 {
			t.Fatalf("after %s: the pool keeps no stack", after)
		}
		for _, st := range pool.free {
			if len(st.frames) > pooledDepth {
				t.Errorf("after %s: pooled stack keeps %d frames, bound %d", after, len(st.frames), pooledDepth)
			}
			for d, fr := range st.frames {
				if cap(fr.spill) > pooledSlots || cap(fr.args) > pooledSlots {
					t.Errorf("after %s: pooled frame %d keeps %d spill slots and %d argument entries, bound %d",
						after, d, cap(fr.spill), cap(fr.args), pooledSlots)
				}
			}
		}
	}

	m := NewWithCode(prog, code)
	for _, c := range []struct {
		name string
		arg  int64
		want int64
	}{{"down", 200, 0}, {"wide", 7, 7}, {"down", 3, 0}} {
		for rep := 0; rep < 2; rep++ {
			before := m.MemUsed()
			v, err := m.Call(c.name, IntArg(c.arg))
			if err != nil || v.I != c.want {
				t.Fatalf("%s(%d) = %d, %v; want %d", c.name, c.arg, v.I, err, c.want)
			}
			if rep == 1 && m.MemUsed() != before {
				t.Errorf("repeated %s(%d) charged %d more bytes", c.name, c.arg, m.MemUsed()-before)
			}
			checkPool(fmt.Sprintf("%s(%d)", c.name, c.arg))
		}
	}
	if want := 202 * pool.shape.frameBytes(); m.MemUsed() < want {
		t.Errorf("MemUsed = %d after a 201-deep call, want at least %d", m.MemUsed(), want)
	}

	// A call that overflows the depth limit leaves the deepest stack of all.
	if _, err := NewWithCode(prog, code).Call("down", IntArg(maxCallDepth+10)); err == nil {
		t.Fatalf("down(%d) ran past the depth limit", maxCallDepth+10)
	}
	checkPool("a depth overflow")
}
