// Package sim executes native programs produced by the JIT on a
// cycle-approximate model of one simulated target processor.
//
// The simulator is the stand-in for the paper's physical evaluation machines:
// it interprets the native instruction set of internal/nisa over a flat
// little-endian memory, charging each instruction the latency given by the
// target's cost model (internal/target). Absolute cycle counts are not meant
// to match 2010 silicon; the relative numbers (scalar vs vectorized code on
// the same target, the same bytecode across targets) are what the experiments
// report.
//
// Execution uses a pre-decoded core (see decode.go): each function is
// lowered once, on its first call, into flat records with operand classes,
// signedness, cycle costs and callee pointers resolved, and the dispatch
// loop below runs those records with zero heap allocations in steady state.
// The records live in a Code that every machine over the same image shares
// (code.go). Frames are not kept either: a top-level call borrows a frame
// stack from the pool its Code names and returns it, trimmed to a bounded
// size, when the call ends (frames.go). A machine is its heap and statistics; an idle one holds no
// registers. The machine assumes the program's code is not mutated after
// its first execution.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/prim"
	"repro/internal/target"
	"repro/internal/vm"
)

// Value is a native-level value: integers and addresses in I, floating-point
// values in F.
type Value struct {
	I int64
	F float64
}

// IntArg builds an integer argument.
func IntArg(v int64) Value { return Value{I: v} }

// FloatArg builds a floating-point argument.
func FloatArg(v float64) Value { return Value{F: v} }

// Addr is an address in simulated memory.
type Addr = int64

// Stats aggregates execution statistics.
type Stats struct {
	Cycles       int64
	Instructions int64
	Loads        int64
	Stores       int64
	SpillLoads   int64
	SpillStores  int64
	VectorOps    int64
	Branches     int64
	Calls        int64
}

// Machine is one simulated processor executing one native program. It is not
// safe for concurrent use.
type Machine struct {
	Target  *target.Desc
	Program *nisa.Program

	// MaxSteps aborts a top-level Call or CallContext after this many
	// instructions, nested calls included (a safety net against generated
	// infinite loops); 0 means the default of 2e9. Every top-level call
	// starts with a full budget, however long the machine has lived.
	MaxSteps int64

	// MemLimit bounds the guest memory the machine may consume (simulated
	// heap plus the frame, spill and argument buffers its calls need), in
	// bytes; a breach returns a *ResourceError with Kind ResourceMem,
	// checked before the offending allocation so a hostile length never
	// reaches the host allocator. 0 — the default — leaves guest memory
	// ungoverned.
	MemLimit int64

	Stats Stats

	mem     []byte
	callDep int
	// memCharged accumulates the guest memory charges (see resource.go); it
	// is bookkeeping, never part of the simulated statistics.
	memCharged int64

	// code is the pre-decoded form of the program's functions, shared with
	// every machine instantiated over the same image (see Code).
	code *Code
	// frames is the frame stack of the running top-level call, borrowed
	// from code's pool (frames.go); nil between calls.
	frames *frameStack
	// charged records, per call depth, what the governor has charged this
	// machine for: a frame at every depth up to len(charged)-1, and the
	// largest spill area and argument buffer each depth has needed. It
	// keeps MemUsed the machine's own whichever borrowed frames a call ran
	// on.
	charged []frameCharge

	// tier holds the profiling and promotion state of tiered execution
	// (tier.go); nil — the default — runs plain tier 1.
	tier *tierState

	// runCtx, when set by CallContext, is polled every interruptStride
	// instructions so a cancelled context aborts execution between
	// instructions. interruptAt is the instruction count of the next poll;
	// math.MaxInt64 — the Call default — disables polling.
	runCtx      context.Context
	interruptAt int64
	// budgetEnd is the instruction count at which the running top-level
	// call has used up MaxSteps. stopAt is the earlier of budgetEnd and
	// interruptAt: the one compare the dispatch loop makes per instruction
	// (see stopCheck).
	budgetEnd int64
	stopAt    int64

	// resolver, when set, supplies functions the program does not hold yet:
	// the lazy-JIT trampoline. A call to an unknown symbol asks the resolver
	// once, patches the machine's program and the pre-decoded call site, and
	// re-dispatches; without a resolver unknown callees keep reporting the
	// original runtime error.
	resolver Resolver
}

// Resolver produces the native code of a symbol on first call. The context is
// the one the enclosing CallContext run carries (context.Background for plain
// Call): a cancelled run aborts resolution without patching anything, so a
// later call retries cleanly.
type Resolver func(ctx context.Context, sym string) (*nisa.Func, error)

// SetResolver installs the machine's lazy-call resolver (nil disables it).
// Resolution results are patched into the machine's own Program, so machines
// sharing compiled functions must each carry their own Program value.
func (m *Machine) SetResolver(r Resolver) { m.resolver = r }

// resolve asks the resolver for sym and patches the program on success. The
// program map is keyed by the call symbol, not the function's own name: a
// hash-qualified cross-module symbol resolves to a function whose Name is the
// plain method name in its home module.
func (m *Machine) resolve(sym string) (*nisa.Func, error) {
	ctx := m.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	f, err := m.resolver(ctx, sym)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("sim: resolver returned no function for %q", sym)
	}
	m.Program.Funcs[sym] = f
	return f, nil
}

// interruptStride is how many instructions run between context polls in
// CallContext. Large enough that the ctx.Err() call vanishes from the
// per-instruction cost, small enough that cancellation lands within
// microseconds of simulated work.
const interruptStride = 16384

const (
	arrayHeader     = 8 // length (4 bytes) + padding to keep data 8-aligned
	maxCallDepth    = 512
	defaultMaxSteps = 2_000_000_000
)

// New returns a machine for the target and program that decodes the
// program for itself. The initial heap is small and grows on demand.
func New(t *target.Desc, prog *nisa.Program) *Machine {
	return NewWithCode(prog, NewCode(t))
}

// NewWithCode returns a machine for prog that shares the decoded code of
// every other machine built over code. Machines sharing a Code must
// resolve every call symbol to the same function: they share one program,
// or resolve through the same image.
func NewWithCode(prog *nisa.Program, code *Code) *Machine {
	t := code.target
	m := &Machine{Target: t, Program: prog, MaxSteps: defaultMaxSteps, interruptAt: math.MaxInt64, code: code}
	// Address 0 is the null reference; start the heap past it.
	m.mem = make([]byte, 64)
	return m
}

// Code returns the decoded code the machine executes.
func (m *Machine) Code() *Code { return m.code }

// ResetStats clears the execution statistics (the memory image is kept).
// Tiering profile counters are not statistics and survive a reset: they
// describe the code's observed behavior since deployment, which resetting
// a measurement window must not erase.
func (m *Machine) ResetStats() { m.Stats = Stats{} }

// AllocArray allocates an array of n elements of kind elem in simulated
// memory and returns the address of its first element.
func (m *Machine) AllocArray(elem cil.Kind, n int) Addr {
	size := n * elem.Size()
	base := len(m.mem)
	grow := arrayHeader + size
	// Keep subsequent arrays 16-byte aligned so vector accesses behave.
	if rem := (base + arrayHeader + grow) % 16; rem != 0 {
		grow += 16 - rem
	}
	m.memCharged += int64(grow)
	m.mem = append(m.mem, make([]byte, grow)...)
	binary.LittleEndian.PutUint32(m.mem[base:], uint32(n))
	return Addr(base + arrayHeader)
}

// CopyInArray copies a managed VM array into simulated memory and returns its
// address. It is how the experiment harness shares one set of inputs between
// the interpreter and the simulated targets.
func (m *Machine) CopyInArray(a *vm.Array) Addr {
	addr := m.AllocArray(a.Elem, a.Len())
	copy(m.mem[addr:], a.Data)
	return addr
}

// CopyOutArray copies array contents from simulated memory back into a
// managed VM array (sizes must match). The address must point at the data of
// an array previously allocated in this machine's heap; out-of-range
// addresses return an error.
func (m *Machine) CopyOutArray(addr Addr, a *vm.Array) error {
	if addr < arrayHeader || addr > int64(len(m.mem)) {
		return fmt.Errorf("sim: copy-out address %d outside the heap of %d bytes", addr, len(m.mem))
	}
	if addr+int64(len(a.Data)) > int64(len(m.mem)) {
		return fmt.Errorf("sim: copy-out of %d bytes at %d overruns the heap of %d bytes", len(a.Data), addr, len(m.mem))
	}
	n := int(binary.LittleEndian.Uint32(m.mem[addr-arrayHeader:]))
	if n != a.Len() {
		return fmt.Errorf("sim: array length mismatch: %d in memory, %d in destination", n, a.Len())
	}
	copy(a.Data, m.mem[addr:int(addr)+len(a.Data)])
	return nil
}

// Call executes the named function with the given arguments and returns its
// result (integers and addresses in I, floats in F).
func (m *Machine) Call(name string, args ...Value) (Value, error) {
	injectPanic(name)
	f := m.Program.Func(name)
	if f == nil && m.resolver != nil {
		var err error
		if f, err = m.resolve(name); err != nil {
			return Value{}, fmt.Errorf("sim: %q: %w", name, err)
		}
	}
	if f == nil {
		return Value{}, fmt.Errorf("sim: unknown function %q", name)
	}
	if len(args) != len(f.Params) {
		return Value{}, fmt.Errorf("sim: %q expects %d arguments, got %d", name, len(f.Params), len(args))
	}
	if m.callDep == 0 {
		m.frames = m.code.frames.get()
		defer m.returnFrames()
		m.budgetEnd = math.MaxInt64 // a budget too large to ever run out
		if steps := m.maxSteps(); steps < math.MaxInt64-m.Stats.Instructions {
			m.budgetEnd = m.Stats.Instructions + steps
		}
	}
	m.stopAt = min(m.budgetEnd, m.interruptAt)
	av := m.argBuf(m.callDep+1, len(args))
	for i, a := range args {
		av[i] = argval{i: a.I, f: a.F}
	}
	return m.exec(f, av)
}

// maxSteps is the instruction budget of one top-level call.
func (m *Machine) maxSteps() int64 {
	if m.MaxSteps == 0 {
		return defaultMaxSteps
	}
	return m.MaxSteps
}

// stopCheck runs when the instruction count reaches stopAt: it reports the
// exhausted budget, or polls the run context and schedules the next poll.
// Keeping both conditions behind one precomputed limit leaves the dispatch
// loop a single compare per instruction.
func (m *Machine) stopCheck(name string) error {
	if m.Stats.Instructions >= m.budgetEnd {
		return m.budgetExhausted(name)
	}
	if err := m.runCtx.Err(); err != nil {
		return fmt.Errorf("sim: %s interrupted: %w", name, err)
	}
	m.interruptAt += interruptStride
	m.stopAt = min(m.budgetEnd, m.interruptAt)
	return nil
}

// CallContext is Call with cooperative cancellation: once ctx is done, the
// dispatch loop aborts between simulated instructions and returns an error
// wrapping ctx.Err(). The context is polled every interruptStride
// instructions, so an uncancelled run executes the exact same instruction
// and cycle sequence as Call — cancellation support never moves a gated
// metric. A ctx that can never be cancelled delegates straight to Call.
func (m *Machine) CallContext(ctx context.Context, name string, args ...Value) (Value, error) {
	if ctx == nil || ctx.Done() == nil {
		return m.Call(name, args...)
	}
	if err := ctx.Err(); err != nil {
		return Value{}, fmt.Errorf("sim: %q not started: %w", name, err)
	}
	prevCtx, prevAt := m.runCtx, m.interruptAt
	m.runCtx = ctx
	m.interruptAt = m.Stats.Instructions + interruptStride
	defer func() { m.runCtx, m.interruptAt = prevCtx, prevAt }()
	return m.Call(name, args...)
}

// dAddrOK computes the effective address of a pre-decoded indexed access and
// checks it against the heap bounds. It is small enough to inline into the
// dispatch loop; the failing path rebuilds the precise error in memFault.
func (m *Machine) dAddrOK(fr *dframe, d *dinstr) (int64, bool) {
	base := fr.ints[d.ra]
	addr := base + (fr.ints[d.rb]+d.imm)*int64(d.size)
	if base == 0 || addr < arrayHeader || addr+int64(d.span) > int64(len(m.mem)) {
		return 0, false
	}
	return addr, true
}

// memFault reports a failed memory access with the original interpreter's
// error message (null dereference takes precedence over the bounds check).
func (m *Machine) memFault(f *nisa.Func, pc int, fr *dframe, d *dinstr) error {
	base := fr.ints[d.ra]
	addr := base + (fr.ints[d.rb]+d.imm)*int64(d.size)
	if base == 0 {
		return fmt.Errorf("sim: %s @%d: null reference access", f.Name, pc)
	}
	return fmt.Errorf("sim: %s @%d: memory access at %d (+%d) outside the heap of %d bytes",
		f.Name, pc, addr, d.span, len(m.mem))
}

// exec runs one function activation. The hot loop dispatches on pre-decoded
// records; every per-instruction decision that does not depend on run-time
// values (operand classes, signedness, cycle costs, callees, access spans)
// was resolved by decode.go.
func (m *Machine) exec(f *nisa.Func, args []argval) (Value, error) {
	m.callDep++
	defer func() { m.callDep-- }()
	if m.callDep > maxCallDepth {
		return Value{}, fmt.Errorf("sim: call depth exceeds %d", maxCallDepth)
	}
	df := m.code.decoded(f, m.Program)
	fr := m.frameAt(m.callDep)
	clear(fr.ints)
	clear(fr.flts)
	clear(fr.vecs)
	if c := &m.charged[m.callDep]; c.spill < f.FrameSlots {
		c.spill = f.FrameSlots
		m.memCharged += int64(f.FrameSlots) * vecBytes
	}
	if cap(fr.spill) < f.FrameSlots {
		fr.spill = make([]prim.Vec, f.FrameSlots)
		if f.FrameSlots > pooledSlots {
			m.frames.oversized = true
		}
	} else {
		fr.spill = fr.spill[:f.FrameSlots]
		clear(fr.spill)
	}
	// The per-activation limit check catches frame, spill, argument and
	// copy-in growth; the allocation instruction pre-checks its own growth
	// below. One predictable branch per activation when ungoverned.
	if m.MemLimit > 0 {
		if err := m.memCheck(f); err != nil {
			return Value{}, err
		}
	}
	budgetEnd := m.budgetEnd
	stats := &m.Stats
	code := df.code
	var bcnt []uint64 // branch profile counters; nil keeps tiering free
	if t := m.tier; t != nil {
		tf := t.funcFor(df)
		tf.calls++
		if !tf.promoted && t.threshold >= 0 && tf.calls >= uint64(t.threshold) {
			m.promoteFunc(tf)
		}
		code, bcnt = tf.code, tf.branchCounts
	}

	pc := 0
	for {
		if uint(pc) >= uint(len(code)) {
			return Value{}, fmt.Errorf("sim: %s: program counter %d out of range", f.Name, pc)
		}
		if stats.Instructions >= m.stopAt {
			if err := m.stopCheck(f.Name); err != nil {
				return Value{}, err
			}
		}
		d := &code[pc]
		stats.Instructions++
		next := pc + 1

		switch d.x {
		case xNop:
			stats.Cycles += int64(d.cost)

		case xMovImm:
			fr.ints[d.rd] = d.imm
			stats.Cycles += int64(d.cost)
		case xMovFImm:
			fr.flts[d.rd] = math.Float64frombits(uint64(d.imm))
			stats.Cycles += int64(d.cost)
		case xMovInt:
			fr.ints[d.rd] = fr.ints[d.ra]
			stats.Cycles += int64(d.cost)
		case xMovFloat:
			fr.flts[d.rd] = fr.flts[d.ra]
			stats.Cycles += int64(d.cost)
		case xMovVec:
			fr.vecs[d.rd] = fr.vecs[d.ra]
			stats.Cycles += int64(d.cost)
		case xGetArgInt:
			fr.ints[d.rd] = args[d.imm].i
			stats.Cycles += int64(d.cost)
		case xGetArgFloat:
			fr.flts[d.rd] = args[d.imm].f
			stats.Cycles += int64(d.cost)

		case xAdd:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] + fr.ints[d.rb])
			stats.Cycles += int64(d.cost)
		case xSub:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] - fr.ints[d.rb])
			stats.Cycles += int64(d.cost)
		case xMul:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] * fr.ints[d.rb])
			stats.Cycles += int64(d.cost)
		case xAnd:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] & fr.ints[d.rb])
			stats.Cycles += int64(d.cost)
		case xOr:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] | fr.ints[d.rb])
			stats.Cycles += int64(d.cost)
		case xXor:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] ^ fr.ints[d.rb])
			stats.Cycles += int64(d.cost)
		case xShl:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] << (uint64(fr.ints[d.rb]) & 63))
			stats.Cycles += int64(d.cost)
		case xShrS:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] >> (uint64(fr.ints[d.rb]) & 63))
			stats.Cycles += int64(d.cost)
		case xShrU:
			fr.ints[d.rd] = d.norm.Apply(int64(uint64(fr.ints[d.ra]) >> (uint64(fr.ints[d.rb]) & 63)))
			stats.Cycles += int64(d.cost)
		case xDivS:
			y := fr.ints[d.rb]
			if y == 0 {
				return Value{}, fmt.Errorf("sim: %s @%d: prim: integer division by zero", f.Name, pc)
			}
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] / y)
			stats.Cycles += int64(d.cost)
		case xDivU:
			y := fr.ints[d.rb]
			if y == 0 {
				return Value{}, fmt.Errorf("sim: %s @%d: prim: integer division by zero", f.Name, pc)
			}
			fr.ints[d.rd] = d.norm.Apply(int64(uint64(fr.ints[d.ra]) / uint64(y)))
			stats.Cycles += int64(d.cost)
		case xRemS:
			y := fr.ints[d.rb]
			if y == 0 {
				return Value{}, fmt.Errorf("sim: %s @%d: prim: integer remainder by zero", f.Name, pc)
			}
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] % y)
			stats.Cycles += int64(d.cost)
		case xRemU:
			y := fr.ints[d.rb]
			if y == 0 {
				return Value{}, fmt.Errorf("sim: %s @%d: prim: integer remainder by zero", f.Name, pc)
			}
			fr.ints[d.rd] = d.norm.Apply(int64(uint64(fr.ints[d.ra]) % uint64(y)))
			stats.Cycles += int64(d.cost)
		case xNeg:
			fr.ints[d.rd] = d.norm.Apply(-fr.ints[d.ra])
			stats.Cycles += int64(d.cost)
		case xNot:
			fr.ints[d.rd] = d.norm.Apply(^fr.ints[d.ra])
			stats.Cycles += int64(d.cost)

		case xFAdd:
			r := fr.flts[d.ra] + fr.flts[d.rb]
			if d.f32 {
				r = float64(float32(r))
			}
			fr.flts[d.rd] = r
			stats.Cycles += int64(d.cost)
		case xFSub:
			r := fr.flts[d.ra] - fr.flts[d.rb]
			if d.f32 {
				r = float64(float32(r))
			}
			fr.flts[d.rd] = r
			stats.Cycles += int64(d.cost)
		case xFMul:
			r := fr.flts[d.ra] * fr.flts[d.rb]
			if d.f32 {
				r = float64(float32(r))
			}
			fr.flts[d.rd] = r
			stats.Cycles += int64(d.cost)
		case xFDiv:
			r := fr.flts[d.ra] / fr.flts[d.rb]
			if d.f32 {
				r = float64(float32(r))
			}
			fr.flts[d.rd] = r
			stats.Cycles += int64(d.cost)
		case xFNeg:
			fr.flts[d.rd] = -fr.flts[d.ra]
			stats.Cycles += int64(d.cost)

		case xSetCmp:
			if d.evalCond(fr) {
				fr.ints[d.rd] = 1
			} else {
				fr.ints[d.rd] = 0
			}
			stats.Cycles += int64(d.cost)
		case xSelect:
			src := d.rb
			if d.evalCond(fr) {
				src = d.ra
			}
			if d.dstFloat {
				fr.flts[d.rd] = fr.flts[src]
			} else {
				fr.ints[d.rd] = fr.ints[src]
			}
			stats.Cycles += int64(d.cost)

		case xConv:
			var src prim.Scalar
			if d.srcFloat {
				src = prim.Scalar{F: fr.flts[d.ra]}
			} else {
				src = prim.Scalar{I: fr.ints[d.ra]}
			}
			r := prim.Convert(d.srcKind, d.kind, src)
			if d.dstFloat {
				fr.flts[d.rd] = r.F
			} else {
				fr.ints[d.rd] = r.I
			}
			stats.Cycles += int64(d.cost)

		case xLoadInt:
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			mem := m.mem
			var v int64
			switch d.kind {
			case cil.Bool:
				if mem[addr] != 0 {
					v = 1
				}
			case cil.I8:
				v = int64(int8(mem[addr]))
			case cil.U8:
				v = int64(mem[addr])
			case cil.I16:
				v = int64(int16(binary.LittleEndian.Uint16(mem[addr:])))
			case cil.U16:
				v = int64(binary.LittleEndian.Uint16(mem[addr:]))
			case cil.I32:
				v = int64(int32(binary.LittleEndian.Uint32(mem[addr:])))
			case cil.U32, cil.Ref:
				v = int64(binary.LittleEndian.Uint32(mem[addr:]))
			default: // I64, U64
				v = int64(binary.LittleEndian.Uint64(mem[addr:]))
			}
			fr.ints[d.rd] = v
			stats.Loads++
			stats.Cycles += int64(d.cost)
		case xLoadFloat:
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			if d.kind == cil.F32 {
				fr.flts[d.rd] = float64(math.Float32frombits(binary.LittleEndian.Uint32(m.mem[addr:])))
			} else {
				fr.flts[d.rd] = math.Float64frombits(binary.LittleEndian.Uint64(m.mem[addr:]))
			}
			stats.Loads++
			stats.Cycles += int64(d.cost)
		case xStoreInt:
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			mem := m.mem
			v := fr.ints[d.rd]
			switch d.kind {
			case cil.Bool:
				b := byte(0)
				if v != 0 {
					b = 1
				}
				mem[addr] = b
			case cil.I8, cil.U8:
				mem[addr] = byte(v)
			case cil.I16, cil.U16:
				binary.LittleEndian.PutUint16(mem[addr:], uint16(v))
			case cil.I32, cil.U32, cil.Ref:
				binary.LittleEndian.PutUint32(mem[addr:], uint32(v))
			default: // I64, U64
				binary.LittleEndian.PutUint64(mem[addr:], uint64(v))
			}
			stats.Stores++
			stats.Cycles += int64(d.cost)
		case xStoreFloat:
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			if d.kind == cil.F32 {
				binary.LittleEndian.PutUint32(m.mem[addr:], math.Float32bits(float32(fr.flts[d.rd])))
			} else {
				binary.LittleEndian.PutUint64(m.mem[addr:], math.Float64bits(fr.flts[d.rd]))
			}
			stats.Stores++
			stats.Cycles += int64(d.cost)

		case xSpillLoadInt:
			slot := fr.spill[d.imm]
			fr.ints[d.rd] = int64(binary.LittleEndian.Uint64(slot[:8]))
			stats.SpillLoads++
			stats.Cycles += int64(d.cost)
		case xSpillLoadFloat:
			slot := fr.spill[d.imm]
			fr.flts[d.rd] = math.Float64frombits(binary.LittleEndian.Uint64(slot[:8]))
			stats.SpillLoads++
			stats.Cycles += int64(d.cost)
		case xSpillLoadVec:
			fr.vecs[d.rd] = fr.spill[d.imm]
			stats.SpillLoads++
			stats.Cycles += int64(d.cost)
		case xSpillStoreInt:
			var slot prim.Vec
			binary.LittleEndian.PutUint64(slot[:8], uint64(fr.ints[d.rd]))
			fr.spill[d.imm] = slot
			stats.SpillStores++
			stats.Cycles += int64(d.cost)
		case xSpillStoreFloat:
			var slot prim.Vec
			binary.LittleEndian.PutUint64(slot[:8], math.Float64bits(fr.flts[d.rd]))
			fr.spill[d.imm] = slot
			stats.SpillStores++
			stats.Cycles += int64(d.cost)
		case xSpillStoreVec:
			fr.spill[d.imm] = fr.vecs[d.rd]
			stats.SpillStores++
			stats.Cycles += int64(d.cost)

		case xAlloc:
			n := fr.ints[d.ra]
			if n < 0 {
				return Value{}, fmt.Errorf("sim: %s @%d: negative array length %d", f.Name, pc, n)
			}
			if err := m.injectMemGrow(f); err != nil {
				return Value{}, err
			}
			if m.MemLimit > 0 {
				if err := m.allocGoverned(f, d.kind, n); err != nil {
					return Value{}, err
				}
			}
			fr.ints[d.rd] = m.AllocArray(d.kind, int(n))
			stats.Cycles += int64(d.cost)
		case xArrLen:
			base := fr.ints[d.ra]
			if base < arrayHeader || int(base) > len(m.mem) {
				return Value{}, fmt.Errorf("sim: %s @%d: arrlen on invalid address %d", f.Name, pc, base)
			}
			fr.ints[d.rd] = int64(binary.LittleEndian.Uint32(m.mem[base-arrayHeader:]))
			stats.Cycles += int64(d.cost)

		case xJump:
			next = int(d.target)
			stats.Branches++
			stats.Cycles += int64(d.cost)
			if bcnt != nil {
				bcnt[d.prof]++
			}
		case xBranchCmp:
			stats.Branches++
			if d.evalCond(fr) {
				next = int(d.target)
				stats.Cycles += int64(d.cost)
				if bcnt != nil {
					bcnt[d.prof]++
				}
			} else {
				stats.Cycles += int64(d.cost2)
				if bcnt != nil {
					bcnt[d.prof+1]++
				}
			}

		case xCall:
			site := d.site
			callee := site.callee.Load()
			if callee == nil {
				// Slow path, taken until the call site is bound: lazy callees
				// resolve through the machine's resolver and bind the shared
				// call site; without a resolver the decode-time error is
				// reported here, like the original interpreter.
				if m.resolver == nil {
					return Value{}, fmt.Errorf("sim: %s @%d: %s", f.Name, pc, site.errMsg)
				}
				callee = m.Program.Func(site.sym)
				if callee == nil {
					var err error
					if callee, err = m.resolve(site.sym); err != nil {
						return Value{}, fmt.Errorf("sim: %s @%d: call %q: %w", f.Name, pc, site.sym, err)
					}
				}
				site.callee.Store(callee)
			}
			cargs := m.argBuf(m.callDep+1, len(site.args))
			for i := range site.args {
				src := &site.args[i]
				if src.slot >= 0 {
					bits := binary.LittleEndian.Uint64(fr.spill[src.slot][:8])
					cargs[i] = argval{i: int64(bits), f: math.Float64frombits(bits)}
				} else if src.float {
					cargs[i] = argval{f: fr.flts[src.idx]}
				} else {
					cargs[i] = argval{i: fr.ints[src.idx]}
				}
			}
			stats.Cycles += int64(d.cost) // marshalling + call overhead
			stats.Calls++
			ret, err := m.exec(callee, cargs)
			if err != nil {
				return Value{}, err
			}
			switch d.mode {
			case retFloat:
				fr.flts[d.rd] = ret.F
			case retInt:
				fr.ints[d.rd] = ret.I
			}

		case xRetInt:
			stats.Cycles += int64(d.cost)
			return Value{I: fr.ints[d.ra]}, nil
		case xRetFloat:
			stats.Cycles += int64(d.cost)
			return Value{F: fr.flts[d.ra]}, nil
		case xRetVoid:
			stats.Cycles += int64(d.cost)
			return Value{}, nil

		case xVLoad:
			stats.VectorOps++
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			fr.vecs[d.rd].Load(m.mem[addr:])
			stats.Loads++
			stats.Cycles += int64(d.cost)
		case xVStore:
			stats.VectorOps++
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			fr.vecs[d.rd].Store(m.mem[addr:])
			stats.Stores++
			stats.Cycles += int64(d.cost)
		case xVBin:
			stats.VectorOps++
			prim.VecBinaryNoTrap(&fr.vecs[d.rd], d.vop, d.kind, &fr.vecs[d.ra], &fr.vecs[d.rb])
			stats.Cycles += int64(d.cost)
		case xVSplatInt:
			stats.VectorOps++
			prim.VecSplat(&fr.vecs[d.rd], d.kind, prim.Scalar{I: fr.ints[d.ra]})
			stats.Cycles += int64(d.cost)
		case xVSplatFloat:
			stats.VectorOps++
			prim.VecSplat(&fr.vecs[d.rd], d.kind, prim.Scalar{F: fr.flts[d.ra]})
			stats.Cycles += int64(d.cost)
		case xVRedInt:
			stats.VectorOps++
			fr.ints[d.rd] = prim.VecReduceNoTrap(d.vop, d.kind, &fr.vecs[d.ra]).I
			stats.Cycles += int64(d.cost)
		case xVRedFloat:
			stats.VectorOps++
			fr.flts[d.rd] = prim.VecReduceNoTrap(d.vop, d.kind, &fr.vecs[d.ra]).F
			stats.Cycles += int64(d.cost)

		case xAluGeneric:
			r, err := prim.Binary(d.vop, d.kind, prim.Scalar{I: fr.ints[d.ra]}, prim.Scalar{I: fr.ints[d.rb]})
			if err != nil {
				return Value{}, fmt.Errorf("sim: %s @%d: %v", f.Name, pc, err)
			}
			fr.ints[d.rd] = r.I
			stats.Cycles += int64(d.cost)
		case xUnaryGeneric:
			r, err := prim.Unary(d.vop, d.kind, prim.Scalar{I: fr.ints[d.ra]})
			if err != nil {
				return Value{}, fmt.Errorf("sim: %s @%d: %v", f.Name, pc, err)
			}
			fr.ints[d.rd] = r.I
			stats.Cycles += int64(d.cost)
		case xFpuGeneric:
			r, err := prim.Binary(d.vop, d.kind, prim.Scalar{F: fr.flts[d.ra]}, prim.Scalar{F: fr.flts[d.rb]})
			if err != nil {
				return Value{}, fmt.Errorf("sim: %s @%d: %v", f.Name, pc, err)
			}
			fr.flts[d.rd] = r.F
			stats.Cycles += int64(d.cost)
		case xLoadGeneric:
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			s := prim.LoadScalar(d.kind, m.mem[addr:])
			if d.dstFloat {
				fr.flts[d.rd] = s.F
			} else {
				fr.ints[d.rd] = s.I
			}
			stats.Loads++
			stats.Cycles += int64(d.cost)
		case xStoreGeneric:
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			var s prim.Scalar
			if d.srcFloat {
				s = prim.Scalar{F: fr.flts[d.rd]}
			} else {
				s = prim.Scalar{I: fr.ints[d.rd]}
			}
			prim.StoreScalar(d.kind, m.mem[addr:], s)
			stats.Stores++
			stats.Cycles += int64(d.cost)

		// Tier-2 superinstructions (tier.go). Each case runs the fused
		// record's own operation, then — after reproducing the exact
		// per-instruction budget check of the loop head — the partner
		// record at pc+1, so statistics, cycles and every error path stay
		// bit-identical to dispatching the two instructions separately.
		case xFusedMovImmAdd:
			fr.ints[d.rd] = d.imm
			stats.Cycles += int64(d.cost)
			if stats.Instructions >= budgetEnd {
				return Value{}, m.budgetExhausted(f.Name)
			}
			stats.Instructions++
			d2 := &code[pc+1]
			fr.ints[d2.rd] = d2.norm.Apply(fr.ints[d2.ra] + fr.ints[d2.rb])
			stats.Cycles += int64(d2.cost)
			next = pc + 2

		case xFusedAddMov:
			fr.ints[d.rd] = d.norm.Apply(fr.ints[d.ra] + fr.ints[d.rb])
			stats.Cycles += int64(d.cost)
			if stats.Instructions >= budgetEnd {
				return Value{}, m.budgetExhausted(f.Name)
			}
			stats.Instructions++
			d2 := &code[pc+1]
			fr.ints[d2.rd] = fr.ints[d2.ra]
			stats.Cycles += int64(d2.cost)
			next = pc + 2

		case xFusedMovJump:
			fr.ints[d.rd] = fr.ints[d.ra]
			stats.Cycles += int64(d.cost)
			if stats.Instructions >= budgetEnd {
				return Value{}, m.budgetExhausted(f.Name)
			}
			stats.Instructions++
			d2 := &code[pc+1]
			next = int(d2.target)
			stats.Branches++
			stats.Cycles += int64(d2.cost)
			if bcnt != nil {
				bcnt[d2.prof]++
			}

		case xFusedVLoadVBin:
			stats.VectorOps++
			addr, ok := m.dAddrOK(fr, d)
			if !ok {
				return Value{}, m.memFault(f, pc, fr, d)
			}
			fr.vecs[d.rd].Load(m.mem[addr:])
			stats.Loads++
			stats.Cycles += int64(d.cost)
			if stats.Instructions >= budgetEnd {
				return Value{}, m.budgetExhausted(f.Name)
			}
			stats.Instructions++
			d2 := &code[pc+1]
			stats.VectorOps++
			prim.VecBinaryNoTrap(&fr.vecs[d2.rd], d2.vop, d2.kind, &fr.vecs[d2.ra], &fr.vecs[d2.rb])
			stats.Cycles += int64(d2.cost)
			next = pc + 2

		case xFusedVBinVStore:
			stats.VectorOps++
			prim.VecBinaryNoTrap(&fr.vecs[d.rd], d.vop, d.kind, &fr.vecs[d.ra], &fr.vecs[d.rb])
			stats.Cycles += int64(d.cost)
			if stats.Instructions >= budgetEnd {
				return Value{}, m.budgetExhausted(f.Name)
			}
			stats.Instructions++
			d2 := &code[pc+1]
			stats.VectorOps++
			addr, ok := m.dAddrOK(fr, d2)
			if !ok {
				return Value{}, m.memFault(f, pc+1, fr, d2)
			}
			fr.vecs[d2.rd].Store(m.mem[addr:])
			stats.Stores++
			stats.Cycles += int64(d2.cost)
			next = pc + 2

		default: // xTrap
			return Value{}, fmt.Errorf("sim: %s @%d: %s", f.Name, pc, d.site.errMsg)
		}
		pc = next
	}
}

func aluCost(c *target.CostModel, op nisa.Op) int64 {
	switch op {
	case nisa.Mul:
		return int64(c.IntMul)
	case nisa.Div, nisa.Rem:
		return int64(c.IntDiv)
	default:
		return int64(c.IntALU)
	}
}

func fpuCost(c *target.CostModel, op nisa.Op) int64 {
	switch op {
	case nisa.FMul:
		return int64(c.FloatMul)
	case nisa.FDiv:
		return int64(c.FloatDiv)
	default:
		return int64(c.FloatALU)
	}
}
