package sim_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/nisa"
	"repro/internal/prim"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/vm"
)

// TestPreDecodedCoreMatchesReferenceInterpreter is the differential gate of
// the pre-decoded execution core: every bench kernel, compiled both scalar
// and vectorized, deployed on every registered target, is executed by the
// production machine and by refMachine — an independent re-implementation of
// the original generic dispatch loop built only on the generic internal/prim
// entry points. Results, output arrays and every Stats counter (cycles,
// instructions, loads, stores, spills, vector ops, branches, calls) must
// match exactly.
func TestPreDecodedCoreMatchesReferenceInterpreter(t *testing.T) {
	const n = 257 // odd length exercises the vectorized loops' scalar tails
	for _, name := range kernels.Table1Names {
		k := kernels.MustGet(name)
		for _, variant := range []struct {
			label string
			opts  core.OfflineOptions
		}{
			{"scalar", core.OfflineOptions{DisableVectorize: true}},
			{"vectorized", core.OfflineOptions{}},
		} {
			res, err := core.CompileOffline(k.Source, variant.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, variant.label, err)
			}
			for _, tgt := range target.All() {
				t.Run(name+"/"+variant.label+"/"+string(tgt.Arch), func(t *testing.T) {
					dep, err := core.Deploy(res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
					if err != nil {
						t.Fatal(err)
					}
					in, err := kernels.NewInputs(name, n, 7)
					if err != nil {
						t.Fatal(err)
					}

					fastVal, fastStats, fastOut, fastErr := runFast(dep.Machine, k, in)
					ref := newRefMachine(tgt, dep.Program)
					refVal, refStats, refOut, refErr := runRef(ref, k, in)

					if (fastErr == nil) != (refErr == nil) {
						t.Fatalf("error mismatch: fast=%v ref=%v", fastErr, refErr)
					}
					if fastErr != nil {
						return
					}
					if fastVal != refVal {
						t.Errorf("result mismatch: fast=%+v ref=%+v", fastVal, refVal)
					}
					if fastStats != refStats {
						t.Errorf("stats mismatch:\nfast %+v\nref  %+v", fastStats, refStats)
					}
					for i := range refOut {
						if !bytes.Equal(fastOut[i].Data, refOut[i].Data) {
							t.Errorf("output array %d differs", i)
						}
					}
				})
			}
		}
	}
}

// runFast marshals the kernel inputs into the production machine (via the
// shared bench.MarshalKernelArgs protocol), runs the entry point and copies
// the arrays back out.
func runFast(m *sim.Machine, k kernels.Kernel, in *kernels.Inputs) (sim.Value, sim.Stats, []*vm.Array, error) {
	work := in.Clone()
	args, addrs := bench.MarshalKernelArgs(m, work)
	val, err := m.Call(k.Entry, args...)
	if err != nil {
		return sim.Value{}, sim.Stats{}, nil, err
	}
	var outs []*vm.Array
	for i, addr := range addrs {
		out := vm.NewArray(work.Arrays[i].Elem, work.Arrays[i].Len())
		if err := m.CopyOutArray(addr, out); err != nil {
			return sim.Value{}, sim.Stats{}, nil, err
		}
		outs = append(outs, out)
	}
	return val, m.Stats, outs, nil
}

func runRef(m *refMachine, k kernels.Kernel, in *kernels.Inputs) (sim.Value, sim.Stats, []*vm.Array, error) {
	work := in.Clone()
	args := make([]sim.Value, len(work.Args))
	var addrs []int64
	arrIdx := 0
	for i, a := range work.Args {
		switch {
		case a.Kind == cil.Ref:
			addr := m.copyInArray(work.Arrays[arrIdx])
			addrs = append(addrs, addr)
			arrIdx++
			args[i] = sim.IntArg(addr)
		case a.Kind.IsFloat():
			args[i] = sim.FloatArg(a.Float())
		default:
			args[i] = sim.IntArg(a.Int())
		}
	}
	val, err := m.call(k.Entry, args...)
	if err != nil {
		return sim.Value{}, sim.Stats{}, nil, err
	}
	var outs []*vm.Array
	for i, addr := range addrs {
		out := vm.NewArray(work.Arrays[i].Elem, work.Arrays[i].Len())
		copy(out.Data, m.mem[addr:int(addr)+len(out.Data)])
		outs = append(outs, out)
	}
	return val, m.stats, outs, nil
}

// refMachine re-implements the simulator's original generic dispatch loop:
// per-instruction dispatch on nisa.Instr, generic prim.Binary/Compare/Unary
// calls for the scalar semantics, byte-at-a-time lane loops for the vector
// semantics, and freshly allocated frames per activation. It intentionally
// shares no code with the pre-decoded core or with prim's vector unit beyond
// the prim scalar entry points, so any divergence in either implementation
// breaks the test.
type refMachine struct {
	tgt     *target.Desc
	prog    *nisa.Program
	stats   sim.Stats
	mem     []byte
	callDep int
}

const (
	refArrayHeader  = 8
	refMaxCallDepth = 512
)

func newRefMachine(tgt *target.Desc, prog *nisa.Program) *refMachine {
	return &refMachine{tgt: tgt, prog: prog, mem: make([]byte, 64)}
}

func (m *refMachine) allocArray(elem cil.Kind, n int) int64 {
	size := n * elem.Size()
	base := len(m.mem)
	grow := refArrayHeader + size
	if rem := (base + refArrayHeader + grow) % 16; rem != 0 {
		grow += 16 - rem
	}
	m.mem = append(m.mem, make([]byte, grow)...)
	m.mem[base] = byte(n)
	m.mem[base+1] = byte(n >> 8)
	m.mem[base+2] = byte(n >> 16)
	m.mem[base+3] = byte(n >> 24)
	return int64(base + refArrayHeader)
}

func (m *refMachine) copyInArray(a *vm.Array) int64 {
	addr := m.allocArray(a.Elem, a.Len())
	copy(m.mem[addr:], a.Data)
	return addr
}

type refFrame struct {
	ints  []int64
	flts  []float64
	vecs  []prim.Vec
	spill []prim.Vec
	args  []sim.Value
}

func (m *refMachine) call(name string, args ...sim.Value) (sim.Value, error) {
	f := m.prog.Func(name)
	if f == nil {
		return sim.Value{}, fmt.Errorf("ref: unknown function %q", name)
	}
	return m.exec(f, args)
}

func (m *refMachine) exec(f *nisa.Func, args []sim.Value) (sim.Value, error) {
	m.callDep++
	defer func() { m.callDep-- }()
	if m.callDep > refMaxCallDepth {
		return sim.Value{}, fmt.Errorf("ref: call depth exceeds %d", refMaxCallDepth)
	}
	fr := &refFrame{
		ints:  make([]int64, m.tgt.IntRegs+4),
		flts:  make([]float64, m.tgt.FloatRegs+4),
		vecs:  make([]prim.Vec, m.tgt.VecRegs+4),
		spill: make([]prim.Vec, f.FrameSlots),
		args:  args,
	}
	cost := &m.tgt.Cost

	pc := 0
	for {
		if pc < 0 || pc >= len(f.Code) {
			return sim.Value{}, fmt.Errorf("ref: %s: pc %d out of range", f.Name, pc)
		}
		in := &f.Code[pc]
		m.stats.Instructions++
		next := pc + 1

		switch in.Op {
		case nisa.Nop:
			m.stats.Cycles += int64(cost.Move)
		case nisa.MovImm:
			fr.ints[in.Rd.Index] = in.Imm
			m.stats.Cycles += int64(cost.Move)
		case nisa.MovFImm:
			fr.flts[in.Rd.Index] = in.FImm
			m.stats.Cycles += int64(cost.Move)
		case nisa.Mov:
			switch in.Rd.Class {
			case nisa.ClassInt:
				fr.ints[in.Rd.Index] = fr.ints[in.Ra.Index]
			case nisa.ClassFloat:
				fr.flts[in.Rd.Index] = fr.flts[in.Ra.Index]
			default:
				fr.vecs[in.Rd.Index] = fr.vecs[in.Ra.Index]
			}
			m.stats.Cycles += int64(cost.Move)
		case nisa.GetArg:
			a := fr.args[in.Imm]
			if in.Rd.Class == nisa.ClassFloat {
				fr.flts[in.Rd.Index] = a.F
			} else {
				fr.ints[in.Rd.Index] = a.I
			}
			m.stats.Cycles += int64(cost.Move)

		case nisa.Add, nisa.Sub, nisa.Mul, nisa.Div, nisa.Rem,
			nisa.And, nisa.Or, nisa.Xor, nisa.Shl, nisa.Shr:
			a := prim.Scalar{I: fr.ints[in.Ra.Index]}
			b := prim.Scalar{I: fr.ints[in.Rb.Index]}
			r, err := prim.Binary(in.Op.ALUOpcode(), in.Kind, a, b)
			if err != nil {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: %v", f.Name, pc, err)
			}
			fr.ints[in.Rd.Index] = r.I
			m.stats.Cycles += refALUCost(cost, in.Op)
		case nisa.Neg, nisa.Not:
			op := cil.Neg
			if in.Op == nisa.Not {
				op = cil.Not
			}
			r, err := prim.Unary(op, in.Kind, prim.Scalar{I: fr.ints[in.Ra.Index]})
			if err != nil {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: %v", f.Name, pc, err)
			}
			fr.ints[in.Rd.Index] = r.I
			m.stats.Cycles += int64(cost.IntALU)

		case nisa.FAdd, nisa.FSub, nisa.FMul, nisa.FDiv:
			a := prim.Scalar{F: fr.flts[in.Ra.Index]}
			b := prim.Scalar{F: fr.flts[in.Rb.Index]}
			r, err := prim.Binary(in.Op.ALUOpcode(), in.Kind, a, b)
			if err != nil {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: %v", f.Name, pc, err)
			}
			fr.flts[in.Rd.Index] = r.F
			m.stats.Cycles += refFPUCost(cost, in.Op)
		case nisa.FNeg:
			fr.flts[in.Rd.Index] = -fr.flts[in.Ra.Index]
			m.stats.Cycles += int64(cost.FloatALU)

		case nisa.SetCmp, nisa.Select:
			res, err := m.compare(fr, in)
			if err != nil {
				return sim.Value{}, err
			}
			if in.Op == nisa.SetCmp {
				if res {
					fr.ints[in.Rd.Index] = 1
				} else {
					fr.ints[in.Rd.Index] = 0
				}
				m.stats.Cycles += int64(cost.IntALU)
			} else {
				src := in.Rb
				if res {
					src = in.Ra
				}
				if in.Rd.Class == nisa.ClassFloat {
					fr.flts[in.Rd.Index] = fr.flts[src.Index]
				} else {
					fr.ints[in.Rd.Index] = fr.ints[src.Index]
				}
				m.stats.Cycles += 2 * int64(cost.IntALU)
			}

		case nisa.Conv:
			var src prim.Scalar
			if in.Ra.Class == nisa.ClassFloat {
				src = prim.Scalar{F: fr.flts[in.Ra.Index]}
			} else {
				src = prim.Scalar{I: fr.ints[in.Ra.Index]}
			}
			r := prim.Convert(in.SrcKind, in.Kind, src)
			if in.Rd.Class == nisa.ClassFloat {
				fr.flts[in.Rd.Index] = r.F
			} else {
				fr.ints[in.Rd.Index] = r.I
			}
			m.stats.Cycles += int64(cost.Convert)

		case nisa.Load:
			addr, err := m.elemAddr(fr, in)
			if err != nil {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: %v", f.Name, pc, err)
			}
			var vec prim.Vec
			copy(vec[:in.Kind.Size()], m.mem[addr:])
			s := refLaneGet(in.Kind, vec, 0)
			if in.Rd.Class == nisa.ClassFloat {
				fr.flts[in.Rd.Index] = s.F
			} else {
				fr.ints[in.Rd.Index] = s.I
			}
			m.stats.Loads++
			m.stats.Cycles += m.memCost(in.Kind, cost.Load)
		case nisa.Store:
			addr, err := m.elemAddr(fr, in)
			if err != nil {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: %v", f.Name, pc, err)
			}
			var s prim.Scalar
			if in.Rd.Class == nisa.ClassFloat {
				s = prim.Scalar{F: fr.flts[in.Rd.Index]}
			} else {
				s = prim.Scalar{I: fr.ints[in.Rd.Index]}
			}
			var vec prim.Vec
			refLaneSet(in.Kind, &vec, 0, s)
			copy(m.mem[addr:addr+int64(in.Kind.Size())], vec[:in.Kind.Size()])
			m.stats.Stores++
			m.stats.Cycles += m.memCost(in.Kind, cost.Store)

		case nisa.SpillLoad:
			slot := fr.spill[in.Imm]
			if in.Rd.Class == nisa.ClassFloat {
				fr.flts[in.Rd.Index] = math.Float64frombits(refUint64(slot[:8]))
			} else if in.Rd.Class == nisa.ClassVec {
				fr.vecs[in.Rd.Index] = slot
			} else {
				fr.ints[in.Rd.Index] = int64(refUint64(slot[:8]))
			}
			m.stats.SpillLoads++
			m.stats.Cycles += int64(cost.Load)
		case nisa.SpillStore:
			var slot prim.Vec
			if in.Rd.Class == nisa.ClassFloat {
				refPutUint64(slot[:8], math.Float64bits(fr.flts[in.Rd.Index]))
			} else if in.Rd.Class == nisa.ClassVec {
				slot = fr.vecs[in.Rd.Index]
			} else {
				refPutUint64(slot[:8], uint64(fr.ints[in.Rd.Index]))
			}
			fr.spill[in.Imm] = slot
			m.stats.SpillStores++
			m.stats.Cycles += int64(cost.Store)

		case nisa.Alloc:
			n := fr.ints[in.Ra.Index]
			if n < 0 {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: negative array length", f.Name, pc)
			}
			fr.ints[in.Rd.Index] = m.allocArray(in.Kind, int(n))
			m.stats.Cycles += int64(cost.Call)
		case nisa.ArrLen:
			base := fr.ints[in.Ra.Index]
			if base < refArrayHeader || int(base) > len(m.mem) {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: arrlen on invalid address", f.Name, pc)
			}
			h := m.mem[base-refArrayHeader:]
			fr.ints[in.Rd.Index] = int64(uint32(h[0]) | uint32(h[1])<<8 | uint32(h[2])<<16 | uint32(h[3])<<24)
			m.stats.Cycles += m.memCost(cil.I32, cost.Load)

		case nisa.Jump:
			next = in.Target
			m.stats.Branches++
			m.stats.Cycles += int64(cost.BranchTaken)
		case nisa.BranchCmp:
			res, err := m.compare(fr, in)
			if err != nil {
				return sim.Value{}, err
			}
			m.stats.Branches++
			if res {
				next = in.Target
				m.stats.Cycles += int64(cost.BranchTaken)
			} else {
				m.stats.Cycles += int64(cost.BranchNotTaken)
			}

		case nisa.Call:
			callee := m.prog.Func(in.Sym)
			if callee == nil {
				return sim.Value{}, fmt.Errorf("ref: %s @%d: unknown callee %q", f.Name, pc, in.Sym)
			}
			cargs := make([]sim.Value, len(in.Args))
			for i := range in.Args {
				if in.ArgSlots != nil && in.ArgSlots[i] >= 0 {
					slot := fr.spill[in.ArgSlots[i]]
					bits := refUint64(slot[:8])
					cargs[i] = sim.Value{I: int64(bits), F: math.Float64frombits(bits)}
					m.stats.Cycles += int64(cost.Load)
					continue
				}
				r := in.Args[i]
				if r.Class == nisa.ClassFloat {
					cargs[i] = sim.Value{F: fr.flts[r.Index]}
				} else {
					cargs[i] = sim.Value{I: fr.ints[r.Index]}
				}
				m.stats.Cycles += int64(cost.Move)
			}
			m.stats.Calls++
			m.stats.Cycles += int64(cost.Call)
			ret, err := m.exec(callee, cargs)
			if err != nil {
				return sim.Value{}, err
			}
			if in.Rd.Class == nisa.ClassFloat {
				fr.flts[in.Rd.Index] = ret.F
			} else if in.Rd.Class == nisa.ClassInt {
				fr.ints[in.Rd.Index] = ret.I
			}

		case nisa.Ret:
			m.stats.Cycles += int64(cost.BranchTaken)
			var ret sim.Value
			if in.Ra.Class == nisa.ClassFloat {
				ret.F = fr.flts[in.Ra.Index]
			} else if in.Ra.Class == nisa.ClassInt {
				ret.I = fr.ints[in.Ra.Index]
			}
			return ret, nil

		default:
			if in.Op.IsVector() {
				if err := m.execVector(fr, in); err != nil {
					return sim.Value{}, fmt.Errorf("ref: %s @%d: %v", f.Name, pc, err)
				}
				break
			}
			return sim.Value{}, fmt.Errorf("ref: %s @%d: unimplemented opcode %s", f.Name, pc, in.Op)
		}
		pc = next
	}
}

func (m *refMachine) compare(fr *refFrame, in *nisa.Instr) (bool, error) {
	var a, b prim.Scalar
	if in.Ra.Class == nisa.ClassFloat {
		a, b = prim.Scalar{F: fr.flts[in.Ra.Index]}, prim.Scalar{F: fr.flts[in.Rb.Index]}
	} else {
		a, b = prim.Scalar{I: fr.ints[in.Ra.Index]}, prim.Scalar{I: fr.ints[in.Rb.Index]}
	}
	return prim.Compare(in.Cond.Opcode(), in.Kind, a, b)
}

func (m *refMachine) elemAddr(fr *refFrame, in *nisa.Instr) (int64, error) {
	base := fr.ints[in.Ra.Index]
	idx := fr.ints[in.Rb.Index] + in.Imm
	addr := base + idx*int64(in.Kind.Size())
	span := int64(in.Kind.Size())
	if in.Op == nisa.VLoad || in.Op == nisa.VStore {
		span = cil.VecBytes
	}
	if base == 0 {
		return 0, fmt.Errorf("null reference access")
	}
	if addr < refArrayHeader || addr+span > int64(len(m.mem)) {
		return 0, fmt.Errorf("out of bounds")
	}
	return addr, nil
}

// execVector interprets one vector instruction with per-lane generic
// primitive calls (the pre-fast-path semantics).
func (m *refMachine) execVector(fr *refFrame, in *nisa.Instr) error {
	c := &m.tgt.Cost
	if !m.tgt.HasSIMD {
		return fmt.Errorf("vector instruction %s on a target without a vector unit", in.Op)
	}
	m.stats.VectorOps++
	switch in.Op {
	case nisa.VLoad:
		addr, err := m.elemAddr(fr, in)
		if err != nil {
			return err
		}
		var v prim.Vec
		copy(v[:], m.mem[addr:addr+cil.VecBytes])
		fr.vecs[in.Rd.Index] = v
		m.stats.Loads++
		m.stats.Cycles += int64(c.VecLoad + c.AddrCalcPenalty)
	case nisa.VStore:
		addr, err := m.elemAddr(fr, in)
		if err != nil {
			return err
		}
		v := fr.vecs[in.Rd.Index]
		copy(m.mem[addr:addr+cil.VecBytes], v[:])
		m.stats.Stores++
		m.stats.Cycles += int64(c.VecStore + c.AddrCalcPenalty)
	case nisa.VAdd, nisa.VSub, nisa.VMul, nisa.VMax, nisa.VMin:
		a, b := fr.vecs[in.Ra.Index], fr.vecs[in.Rb.Index]
		var out prim.Vec
		for lane := 0; lane < in.Kind.Lanes(); lane++ {
			x, y := refLaneGet(in.Kind, a, lane), refLaneGet(in.Kind, b, lane)
			var r prim.Scalar
			switch in.Op {
			case nisa.VAdd, nisa.VSub, nisa.VMul:
				sop := map[nisa.Op]cil.Opcode{nisa.VAdd: cil.Add, nisa.VSub: cil.Sub, nisa.VMul: cil.Mul}[in.Op]
				var err error
				r, err = prim.Binary(sop, in.Kind, x, y)
				if err != nil {
					return err
				}
			default:
				cmp := cil.CmpGt
				if in.Op == nisa.VMin {
					cmp = cil.CmpLt
				}
				keepX, err := prim.Compare(cmp, in.Kind, x, y)
				if err != nil {
					return err
				}
				if keepX {
					r = x
				} else {
					r = y
				}
			}
			refLaneSet(in.Kind, &out, lane, r)
		}
		fr.vecs[in.Rd.Index] = out
		if in.Op == nisa.VMul {
			m.stats.Cycles += int64(c.VecMul)
		} else {
			m.stats.Cycles += int64(c.VecALU)
		}
	case nisa.VSplat:
		var s prim.Scalar
		if in.Ra.Class == nisa.ClassFloat {
			s = prim.Scalar{F: fr.flts[in.Ra.Index]}
		} else {
			s = prim.Scalar{I: fr.ints[in.Ra.Index]}
		}
		var out prim.Vec
		for lane := 0; lane < in.Kind.Lanes(); lane++ {
			refLaneSet(in.Kind, &out, lane, s)
		}
		fr.vecs[in.Rd.Index] = out
		m.stats.Cycles += int64(c.VecSplat)
	case nisa.VRedAdd, nisa.VRedMax, nisa.VRedMin:
		op := map[nisa.Op]cil.Opcode{
			nisa.VRedAdd: cil.VRedAdd, nisa.VRedMax: cil.VRedMax, nisa.VRedMin: cil.VRedMin,
		}[in.Op]
		rk := cil.ReduceKind(op, in.Kind)
		v := fr.vecs[in.Ra.Index]
		acc := refLaneGet(in.Kind, v, 0)
		for lane := 1; lane < in.Kind.Lanes(); lane++ {
			x := refLaneGet(in.Kind, v, lane)
			switch op {
			case cil.VRedAdd:
				if in.Kind.IsFloat() {
					acc = prim.Float(rk, acc.F+x.F)
				} else {
					acc = prim.Scalar{I: acc.I + x.I}
				}
			default:
				cmp := cil.CmpGt
				if op == cil.VRedMin {
					cmp = cil.CmpLt
				}
				keep, err := prim.Compare(cmp, in.Kind, x, acc)
				if err != nil {
					return err
				}
				if keep {
					acc = x
				}
			}
		}
		if !in.Kind.IsFloat() {
			acc.I = prim.Normalize(rk, acc.I)
		}
		if in.Rd.Class == nisa.ClassFloat {
			fr.flts[in.Rd.Index] = acc.F
		} else {
			fr.ints[in.Rd.Index] = acc.I
		}
		m.stats.Cycles += int64(c.VecReduce)
	default:
		return fmt.Errorf("unimplemented vector opcode %s", in.Op)
	}
	return nil
}

func (m *refMachine) memCost(k cil.Kind, base int) int64 {
	c := base + m.tgt.Cost.AddrCalcPenalty
	if k.Size() < 4 {
		c += m.tgt.Cost.SubWordPenalty
	}
	return int64(c)
}

func refALUCost(c *target.CostModel, op nisa.Op) int64 {
	switch op {
	case nisa.Mul:
		return int64(c.IntMul)
	case nisa.Div, nisa.Rem:
		return int64(c.IntDiv)
	default:
		return int64(c.IntALU)
	}
}

func refFPUCost(c *target.CostModel, op nisa.Op) int64 {
	switch op {
	case nisa.FMul:
		return int64(c.FloatMul)
	case nisa.FDiv:
		return int64(c.FloatDiv)
	default:
		return int64(c.FloatALU)
	}
}

// refLaneGet and refLaneSet assemble one lane byte by byte, independently of
// the lane-typed accessors in internal/prim.
func refLaneGet(k cil.Kind, v prim.Vec, lane int) prim.Scalar {
	sz := k.Size()
	var bits uint64
	for b := 0; b < sz; b++ {
		bits |= uint64(v[lane*sz+b]) << (8 * b)
	}
	switch k {
	case cil.F32:
		return prim.Scalar{F: float64(math.Float32frombits(uint32(bits)))}
	case cil.F64:
		return prim.Scalar{F: math.Float64frombits(bits)}
	}
	return prim.Int(k, int64(bits))
}

func refLaneSet(k cil.Kind, v *prim.Vec, lane int, s prim.Scalar) {
	sz := k.Size()
	var bits uint64
	switch k {
	case cil.F32:
		bits = uint64(math.Float32bits(float32(s.F)))
	case cil.F64:
		bits = math.Float64bits(s.F)
	default:
		bits = uint64(prim.Normalize(k, s.I))
	}
	for b := 0; b < sz; b++ {
		v[lane*sz+b] = byte(bits >> (8 * b))
	}
}

func refUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func refPutUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// vectorLaneProgram hand-writes, for one wide element kind and one
// element-wise operation, the loop the JIT never emits for the Table 1
// kernels but the vector unit must still get right:
//
//	lanes(a, b, out, red, n, s):
//	    vs = vsplat(s)
//	    for i = 0; i < n; i += lanes {
//	        v3 = op(op(a[i..], b[i..]), vs); out[i..] = v3
//	        red[j+1], red[j+2], red[j] = vredmax(v3), vredmin(v3), vredadd(v3); j += 3
//	    }
//	    return the last vredadd
//
// The second vload is followed by a vector op and the second vector op by
// the vstore, so tier 2 fuses both vector pairs.
func vectorLaneProgram(k cil.Kind, op nisa.Op) *nisa.Program {
	r := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassInt, Index: i} }
	v := func(i int) nisa.Reg { return nisa.Reg{Class: nisa.ClassVec, Index: i} }
	// Scalars of the element kind (the splat source, the reduction result)
	// live in the float file for F32/F64, the integer file otherwise. The
	// integer file is kept to ten registers, all the smallest target has.
	sc := func(i int) nisa.Reg {
		if k.IsFloat() {
			return nisa.Reg{Class: nisa.ClassFloat, Index: i}
		}
		return r(8 + i)
	}
	const loop, done = 9, 26
	f := &nisa.Func{
		Name: "lanes",
		Params: []cil.Type{cil.Array(k), cil.Array(k), cil.Array(k), cil.Array(k),
			cil.Scalar(cil.I32), cil.Scalar(k)},
		Ret: cil.Scalar(k),
		Code: []nisa.Instr{
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(0), Imm: 0}, // a
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(1), Imm: 1}, // b
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(2), Imm: 2}, // out
			{Op: nisa.GetArg, Kind: cil.Ref, Rd: r(3), Imm: 3}, // red
			{Op: nisa.GetArg, Kind: cil.I32, Rd: r(4), Imm: 4}, // n
			{Op: nisa.GetArg, Kind: k, Rd: sc(0), Imm: 5},      // s
			{Op: nisa.VSplat, Kind: k, Rd: v(4), Ra: sc(0)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(5)}, // i = 0
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(6)}, // j = 0
			{Op: nisa.BranchCmp, Kind: cil.I32, Cond: nisa.CondGe, Ra: r(5), Rb: r(4), Target: done},
			{Op: nisa.VLoad, Kind: k, Rd: v(0), Ra: r(0), Rb: r(5)},
			{Op: nisa.VLoad, Kind: k, Rd: v(1), Ra: r(1), Rb: r(5)},
			{Op: op, Kind: k, Rd: v(2), Ra: v(0), Rb: v(1)},
			{Op: op, Kind: k, Rd: v(3), Ra: v(2), Rb: v(4)},
			{Op: nisa.VStore, Kind: k, Rd: v(3), Ra: r(2), Rb: r(5)},
			{Op: nisa.VRedMax, Kind: k, Rd: sc(1), Ra: v(3)},
			{Op: nisa.Store, Kind: k, Rd: sc(1), Ra: r(3), Rb: r(6), Imm: 1},
			{Op: nisa.VRedMin, Kind: k, Rd: sc(1), Ra: v(3)},
			{Op: nisa.Store, Kind: k, Rd: sc(1), Ra: r(3), Rb: r(6), Imm: 2},
			{Op: nisa.VRedAdd, Kind: k, Rd: sc(1), Ra: v(3)},
			{Op: nisa.Store, Kind: k, Rd: sc(1), Ra: r(3), Rb: r(6)},
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(7), Imm: int64(k.Lanes())},
			{Op: nisa.Add, Kind: cil.I32, Rd: r(5), Ra: r(5), Rb: r(7)}, // i += lanes
			{Op: nisa.MovImm, Kind: cil.I32, Rd: r(7), Imm: 3},
			{Op: nisa.Add, Kind: cil.I32, Rd: r(6), Ra: r(6), Rb: r(7)}, // j += 3
			{Op: nisa.Jump, Target: loop},
			{Op: nisa.Ret, Kind: k, Ra: sc(1)},
		},
	}
	if f.Code[loop].Op != nisa.BranchCmp || f.Code[done].Op != nisa.Ret {
		panic("vectorLaneProgram: branch targets out of step with the code")
	}
	prog := nisa.NewProgram("lanes")
	prog.Add(f)
	return prog
}

// wideLaneBits lists, per wide element kind, the lane patterns worth meeting
// each other in a vector register: NaNs of both kinds with payloads, signed
// zeros, infinities, denormals, values whose sums and products round or
// overflow, the integer extremes and unsigned values above MaxInt64.
func wideLaneBits(k cil.Kind) []uint64 {
	switch k {
	case cil.F32:
		return []uint64{0x3fc00000, 0xc0100000, 0x7fc00001, 0x00000000, 0x7fa12345, 0x80000000,
			0x7f800000, 0xff800000, 0x00000001, 0x7f7fffff, 0x3f800001, 0xffc12345, 0x4b800000,
			0x0da24260, 0xff7fffff, 0x807fffff, 0x42280000}
	case cil.F64:
		return []uint64{0x3ff8000000000000, 0xc002000000000000, 0x7ff8000000000001, 0, 0x7ff4000000abcdef,
			0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000, 1, 0x7fefffffffffffff,
			0x3ff0000000000001, 0xfff8deadbeef0001, 0x4340000000000000, 0xffefffffffffffff, 0x4045000000000000}
	}
	return []uint64{0, 1, 3, ^uint64(0), 1 << 63, 1<<63 - 1, 1<<63 + 1, ^uint64(0) - 1,
		0x55AA55AA55AA55AA, 0xAA55AA55AA55AA55, 1 << 32, 42, 0xFFFFFFFF00000000}
}

// sameFloat compares two floats bit for bit. With hostNaN set, two NaNs are
// the same whatever their payloads: the value is a sum or product, and when
// both operands of one are NaNs the host returns the payload of whichever
// the compiler placed first — which it may decide differently for the
// lane-typed code and for refMachine's per-lane loop. Lane selection
// (max/min), subtraction and single-NaN arithmetic have no such freedom.
func sameFloat(got, want float64, hostNaN bool) bool {
	return math.Float64bits(got) == math.Float64bits(want) || hostNaN && math.IsNaN(got) && math.IsNaN(want)
}

// TestWideLaneVectorOpsMatchReference runs vectorLaneProgram for every wide
// element kind × element-wise operation on every vector target, on a plain
// machine, on a machine that promotes to fused tier-2 code after the second
// call, and on refMachine. Results, every array in memory and all nine
// Stats counters must agree after each call (see sameFloat for the one
// host-dependent case).
func TestWideLaneVectorOpsMatchReference(t *testing.T) {
	ops := []nisa.Op{nisa.VAdd, nisa.VSub, nisa.VMul, nisa.VMax, nisa.VMin}
	for _, k := range []cil.Kind{cil.F32, cil.F64, cil.I64, cil.U64} {
		bits := wideLaneBits(k)
		n := 12 * k.Lanes()
		arrays := make([]*vm.Array, 4) // a, b, out, red
		for i := range arrays {
			arrays[i] = vm.NewArray(k, n)
		}
		arrays[3] = vm.NewArray(k, 3*n/k.Lanes())
		for i := 0; i < n; i++ {
			for b := 0; b < k.Size(); b++ {
				arrays[0].Data[i*k.Size()+b] = byte(bits[i%len(bits)] >> (8 * b))
				arrays[1].Data[i*k.Size()+b] = byte(bits[(i*5+3)%len(bits)] >> (8 * b))
			}
		}
		splats := []sim.Value{sim.IntArg(3), sim.IntArg(-1), sim.IntArg(math.MinInt64)}
		if k.IsFloat() {
			splats = []sim.Value{sim.FloatArg(1.5), sim.FloatArg(math.NaN()), sim.FloatArg(math.Copysign(0, -1)), sim.FloatArg(1e300)}
		}
		for _, tgt := range target.All() {
			if !tgt.HasSIMD {
				continue
			}
			for _, op := range ops {
				t.Run(fmt.Sprintf("%s/%s/%s", k, op, tgt.Arch), func(t *testing.T) {
					prog := vectorLaneProgram(k, op)
					plain := sim.New(tgt, prog)
					tiered := sim.New(tgt, prog)
					tiered.EnableTiering(profile.Policy{PromoteCalls: 2})
					ref := newRefMachine(tgt, prog)

					args := func(copyIn func(*vm.Array) int64, s sim.Value) []sim.Value {
						var av []sim.Value
						for _, a := range arrays {
							av = append(av, sim.IntArg(copyIn(a)))
						}
						return append(av, sim.IntArg(int64(n)), s)
					}
					plainArgs := args(func(a *vm.Array) int64 { return plain.CopyInArray(a) }, sim.Value{})
					tieredArgs := args(func(a *vm.Array) int64 { return tiered.CopyInArray(a) }, sim.Value{})
					refArgs := args(ref.copyInArray, sim.Value{})

					for call := 0; call < 2*len(splats); call++ {
						s := splats[call%len(splats)]
						plainArgs[5], tieredArgs[5], refArgs[5] = s, s, s
						want, err := ref.call("lanes", refArgs...)
						if err != nil {
							t.Fatal(err)
						}
						for _, m := range []struct {
							name string
							m    *sim.Machine
							args []sim.Value
						}{{"plain", plain, plainArgs}, {"tiered", tiered, tieredArgs}} {
							got, err := m.m.Call("lanes", m.args...)
							if err != nil {
								t.Fatalf("call %d, %s: %v", call, m.name, err)
							}
							if got.I != want.I || !sameFloat(got.F, want.F, true) {
								t.Fatalf("call %d, %s: result %+v, ref %+v", call, m.name, got, want)
							}
							if m.m.Stats != ref.stats {
								t.Fatalf("call %d, %s: stats\n got %+v\n ref %+v", call, m.name, m.m.Stats, ref.stats)
							}
							for i, a := range arrays {
								out := vm.NewArray(a.Elem, a.Len())
								if err := m.m.CopyOutArray(m.args[i].I, out); err != nil {
									t.Fatal(err)
								}
								refAddr := refArgs[i].I
								want := &vm.Array{Elem: a.Elem, Data: ref.mem[refAddr : int(refAddr)+len(out.Data)]}
								for e := 0; e < a.Len(); e++ {
									// Sums and products may carry either NaN: all of
									// vadd/vmul's output and what is reduced from it,
									// and every vredadd slot.
									hostNaN := i >= 2 && (op == nisa.VAdd || op == nisa.VMul) || i == 3 && e%3 == 0
									if out.Int(e) != want.Int(e) || !sameFloat(out.Float(e), want.Float(e), hostNaN) {
										t.Fatalf("call %d, %s: array %d element %d differs from the reference image", call, m.name, i, e)
									}
								}
							}
						}
					}
					if ts := tiered.TierStats(); ts.Promotions != 1 || ts.FusedPairs < 2 {
						t.Errorf("tier stats = %+v, want one promotion fusing both vector pairs", ts)
					}
				})
			}
		}
	}
}

// TestFPVectorKernelsSteadyStateZeroAlloc: the float vector kernels of
// Table 1 on the SIMD target run their in-place vector operations without
// a single heap allocation per call.
func TestFPVectorKernelsSteadyStateZeroAlloc(t *testing.T) {
	tgt := target.MustLookup(target.X86SSE)
	for _, name := range []string{"vecadd_fp", "saxpy_fp", "dscal_fp"} {
		res, k, err := core.CompileKernel(name, core.OfflineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := core.Deploy(res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
		if err != nil {
			t.Fatal(err)
		}
		in, err := kernels.NewInputs(name, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		args, _ := bench.MarshalKernelArgs(dep.Machine, in)
		if _, err := dep.Machine.Call(k.Entry, args...); err != nil {
			t.Fatal(err)
		}
		if dep.Machine.Stats.VectorOps == 0 {
			t.Fatalf("%s executed no vector instruction on %s", name, tgt.Arch)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := dep.Machine.Call(k.Entry, args...); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s/%s: %.1f allocs per call, want 0", name, tgt.Arch, allocs)
		}
	}
}
