package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/prim"
	"repro/internal/target"
)

// This file implements the pre-decoded execution core: the split-compilation
// idea of the paper applied to the simulator itself. All the work that
// depends only on the instruction and the target — operand-class resolution,
// signedness and normalization parameters, per-instruction cycle costs from
// the cost model, callee lookup, memory-access spans — is done once per
// function and target (on its first call on any machine sharing the Code,
// see code.go) and recorded in a flat dinstr array. The steady-state
// dispatch loop in sim.go then runs without generic dispatch, map lookups,
// error plumbing for infallible operations, or allocations.
//
// Decoding never rejects a program: instructions the fast paths do not
// cover (mismatched kind/class combinations, unknown opcodes, vector
// instructions on targets without a vector unit) are lowered to generic or
// trapping records that reproduce the original interpreter's behavior —
// including its error messages — only if and when they execute.

// xop is a pre-decoded execution opcode: one dispatch-loop case, with the
// operand classes and signedness already resolved.
type xop uint8

const (
	xNop xop = iota
	xMovImm
	xMovFImm
	xMovInt
	xMovFloat
	xMovVec
	xGetArgInt
	xGetArgFloat

	// Integer ALU with precomputed normalization (norm).
	xAdd
	xSub
	xMul
	xAnd
	xOr
	xXor
	xShl
	xShrS
	xShrU
	xDivS
	xDivU
	xRemS
	xRemU
	xNeg
	xNot

	// Floating-point ALU; f32 selects single-precision rounding.
	xFAdd
	xFSub
	xFMul
	xFDiv
	xFNeg

	xSetCmp
	xSelect
	xConv

	// Memory with precomputed element size, span and cycle cost.
	xLoadInt
	xLoadFloat
	xStoreInt
	xStoreFloat
	xSpillLoadInt
	xSpillLoadFloat
	xSpillLoadVec
	xSpillStoreInt
	xSpillStoreFloat
	xSpillStoreVec
	xAlloc
	xArrLen

	xJump
	xBranchCmp
	xCall
	xRetInt
	xRetFloat
	xRetVoid

	// Vector unit.
	xVLoad
	xVStore
	xVBin
	xVSplatInt
	xVSplatFloat
	xVRedInt
	xVRedFloat

	// Slow paths: unusual kind/class combinations fall back to the shared
	// generic primitives so behavior stays bit-identical to the original
	// interpreter loop.
	xAluGeneric
	xUnaryGeneric
	xFpuGeneric
	xLoadGeneric
	xStoreGeneric

	// xTrap reproduces a lazily-reported decode-time error (unimplemented
	// opcode, vector instruction without a vector unit) at execution time.
	xTrap

	// Tier-2 superinstructions (see tier.go): slot i executes both itself
	// and the record at i+1, charging exactly the cycles and statistics of
	// the two constituents. The partner record at i+1 stays in place for
	// branches that target it.
	xFusedMovImmAdd  // xMovImm + xAdd (loop-latch increment setup)
	xFusedAddMov     // xAdd + xMovInt (induction-variable update)
	xFusedMovJump    // xMovInt + xJump (loop back edge)
	xFusedVLoadVBin  // xVLoad + xVBin
	xFusedVBinVStore // xVBin + xVStore
)

// mode values for the per-xop "mode" field.
const (
	// Comparison source interpretation (xSetCmp, xSelect, xBranchCmp).
	cmpUnsigned = iota
	cmpSigned
	cmpFloat
	// cmpMismatch marks a class/kind mismatch (float kind comparing integer
	// registers or vice versa): the generic path compared the zero-valued
	// halves of both scalars, so the operands always evaluate as equal.
	cmpMismatch
)

// Comparison outcome states and the per-condition acceptance masks
// (bit state set when the condition holds in that state).
const (
	stateGt = 0
	stateEq = 1
	stateLt = 2
)

var condMasks = [...]uint8{
	nisa.CondEq: 1 << stateEq,
	nisa.CondNe: 1<<stateGt | 1<<stateLt,
	nisa.CondLt: 1 << stateLt,
	nisa.CondLe: 1<<stateLt | 1<<stateEq,
	nisa.CondGt: 1 << stateGt,
	nisa.CondGe: 1<<stateGt | 1<<stateEq,
}

const (
	// Call return-register class (xCall).
	retNone = iota
	retInt
	retFloat
)

// argsrc describes where one call argument lives: a frame spill slot, or a
// register of the given class.
type argsrc struct {
	slot  int32 // spill slot index, -1 when the argument is in a register
	idx   int32 // register index
	float bool  // register class (float vs int)
}

// dinstr is one pre-decoded instruction: 64 bytes, one cache line. Field
// use depends on x; rd/ra/rb are register-file indices with the class
// resolved by the xop.
type dinstr struct {
	x        xop
	mode     uint8 // cmp* for comparisons, ret* for calls
	srcFloat bool  // comparison/conversion source register file
	dstFloat bool  // conversion destination register file
	f32      bool  // single-precision rounding of float ALU results
	condMask uint8 // comparison acceptance mask over {gt, eq, lt} states
	kind     cil.Kind
	srcKind  cil.Kind
	vop      cil.Opcode // cil opcode for generic and vector records
	norm     prim.NormMode

	rd, ra, rb int32
	target     int32
	cost       int32 // cycles charged on the common path
	cost2      int32 // cycles of the branch-not-taken path
	size       int32 // element size scaling the index of a memory access
	span       int32 // byte span of a memory access (bounds check)
	prof       int32 // branch-counter base index (xJump/xBranchCmp): 2*ordinal

	// imm is the integer immediate; xMovFImm keeps its float's bits here.
	imm int64
	// site is the call site of xCall and the message of xTrap.
	site *callSite
}

// callSite is what only calls and traps need. It is shared by every machine
// executing the function, and immutable once published except callee: a
// callee the decoding machine's program did not hold is bound on the first
// call that resolves it, by whichever machine gets there first. Every
// machine of one Code resolves a symbol to the same function (through the
// image's singleflight table), so racing stores write the same pointer.
type callSite struct {
	callee atomic.Pointer[nisa.Func]
	sym    string // call symbol, kept for resolver-based late binding
	args   []argsrc
	errMsg string
}

// dfunc is one pre-decoded function.
type dfunc struct {
	code []dinstr
	fn   *nisa.Func
}

func (c *Code) decodeFunc(f *nisa.Func, prog *nisa.Program) *dfunc {
	code := make([]dinstr, len(f.Code))
	branches := int32(0)
	for pc := range f.Code {
		c.decodeInstr(&f.Code[pc], &code[pc], prog)
		if f.Code[pc].Op.IsBranch() {
			code[pc].prof = 2 * branches
			branches++
		}
	}
	return &dfunc{code: code, fn: f}
}

func (c *Code) decodeInstr(in *nisa.Instr, d *dinstr, prog *nisa.Program) {
	cost := &c.target.Cost
	d.kind = in.Kind
	d.rd, d.ra, d.rb = in.Rd.Index, in.Ra.Index, in.Rb.Index
	d.imm = in.Imm

	switch in.Op {
	case nisa.Nop:
		d.x, d.cost = xNop, int32(cost.Move)

	case nisa.MovImm:
		d.x, d.cost = xMovImm, int32(cost.Move)
	case nisa.MovFImm:
		d.x, d.cost, d.imm = xMovFImm, int32(cost.Move), int64(math.Float64bits(in.FImm))
	case nisa.Mov:
		d.cost = int32(cost.Move)
		switch in.Rd.Class {
		case nisa.ClassInt:
			d.x = xMovInt
		case nisa.ClassFloat:
			d.x = xMovFloat
		default:
			d.x = xMovVec
		}
	case nisa.GetArg:
		d.cost = int32(cost.Move)
		if in.Rd.Class == nisa.ClassFloat {
			d.x = xGetArgFloat
		} else {
			d.x = xGetArgInt
		}

	case nisa.Add, nisa.Sub, nisa.Mul, nisa.Div, nisa.Rem,
		nisa.And, nisa.Or, nisa.Xor, nisa.Shl, nisa.Shr:
		d.cost = int32(aluCost(cost, in.Op))
		if !in.Kind.IsInteger() {
			// Unusual: an integer ALU opcode at a float, Ref, Vec or Void
			// kind. The generic path reproduces prim.Binary exactly
			// (including its errors and its identity normalization of the
			// non-integer kinds).
			d.x, d.vop = xAluGeneric, in.Op.ALUOpcode()
			return
		}
		d.norm = prim.NormModeOf(in.Kind)
		signed := in.Kind.IsSigned()
		switch in.Op {
		case nisa.Add:
			d.x = xAdd
		case nisa.Sub:
			d.x = xSub
		case nisa.Mul:
			d.x = xMul
		case nisa.And:
			d.x = xAnd
		case nisa.Or:
			d.x = xOr
		case nisa.Xor:
			d.x = xXor
		case nisa.Shl:
			d.x = xShl
		case nisa.Shr:
			d.x = xShrU
			if signed {
				d.x = xShrS
			}
		case nisa.Div:
			d.x = xDivU
			if signed {
				d.x = xDivS
			}
		case nisa.Rem:
			d.x = xRemU
			if signed {
				d.x = xRemS
			}
		}
	case nisa.Neg, nisa.Not:
		d.cost = int32(cost.IntALU)
		if !in.Kind.IsInteger() {
			d.x = xUnaryGeneric
			d.vop = cil.Neg
			if in.Op == nisa.Not {
				d.vop = cil.Not
			}
			return
		}
		d.norm = prim.NormModeOf(in.Kind)
		if in.Op == nisa.Neg {
			d.x = xNeg
		} else {
			d.x = xNot
		}

	case nisa.FAdd, nisa.FSub, nisa.FMul, nisa.FDiv:
		d.cost = int32(fpuCost(cost, in.Op))
		if !in.Kind.IsFloat() {
			d.x, d.vop = xFpuGeneric, in.Op.ALUOpcode()
			return
		}
		d.f32 = in.Kind == cil.F32
		switch in.Op {
		case nisa.FAdd:
			d.x = xFAdd
		case nisa.FSub:
			d.x = xFSub
		case nisa.FMul:
			d.x = xFMul
		case nisa.FDiv:
			d.x = xFDiv
		}
	case nisa.FNeg:
		d.x, d.cost = xFNeg, int32(cost.FloatALU)

	case nisa.SetCmp:
		d.x, d.cost = xSetCmp, int32(cost.IntALU)
		d.decodeCmp(in)
	case nisa.Select:
		d.x, d.cost = xSelect, int32(2*cost.IntALU) // compare + conditional move
		d.decodeCmp(in)
		d.dstFloat = in.Rd.Class == nisa.ClassFloat

	case nisa.Conv:
		d.x, d.cost = xConv, int32(cost.Convert)
		d.srcKind = in.SrcKind
		d.srcFloat = in.Ra.Class == nisa.ClassFloat
		d.dstFloat = in.Rd.Class == nisa.ClassFloat

	case nisa.Load:
		d.decodeMem(in, memCost(cost, in.Kind, cost.Load))
		switch {
		case in.Rd.Class == nisa.ClassFloat && in.Kind.IsFloat():
			d.x = xLoadFloat
		case in.Rd.Class != nisa.ClassFloat && (in.Kind.IsInteger() || in.Kind == cil.Ref):
			d.x = xLoadInt
		default:
			d.x = xLoadGeneric
			d.dstFloat = in.Rd.Class == nisa.ClassFloat
		}
	case nisa.Store:
		d.decodeMem(in, memCost(cost, in.Kind, cost.Store))
		switch {
		case in.Rd.Class == nisa.ClassFloat && in.Kind.IsFloat():
			d.x = xStoreFloat
		case in.Rd.Class != nisa.ClassFloat && (in.Kind.IsInteger() || in.Kind == cil.Ref):
			d.x = xStoreInt
		default:
			d.x = xStoreGeneric
			d.srcFloat = in.Rd.Class == nisa.ClassFloat
		}

	case nisa.SpillLoad:
		d.cost = int32(cost.Load)
		switch in.Rd.Class {
		case nisa.ClassFloat:
			d.x = xSpillLoadFloat
		case nisa.ClassVec:
			d.x = xSpillLoadVec
		default:
			d.x = xSpillLoadInt
		}
	case nisa.SpillStore:
		d.cost = int32(cost.Store)
		switch in.Rd.Class {
		case nisa.ClassFloat:
			d.x = xSpillStoreFloat
		case nisa.ClassVec:
			d.x = xSpillStoreVec
		default:
			d.x = xSpillStoreInt
		}

	case nisa.Alloc:
		d.x, d.cost = xAlloc, int32(cost.Call)
	case nisa.ArrLen:
		d.x, d.cost = xArrLen, int32(memCost(cost, cil.I32, cost.Load))

	case nisa.Jump:
		d.x, d.cost, d.target = xJump, int32(cost.BranchTaken), in.Target
	case nisa.BranchCmp:
		d.x, d.target = xBranchCmp, in.Target
		d.cost, d.cost2 = int32(cost.BranchTaken), int32(cost.BranchNotTaken)
		d.decodeCmp(in)

	case nisa.Call:
		d.x = xCall
		var call nisa.CallInfo
		if in.Call != nil {
			call = *in.Call
		}
		// The callee is bound once; unknown callees keep reporting the
		// original runtime error if the call ever executes — unless the
		// machine has a resolver, which binds the kept symbol on first call.
		site := &callSite{sym: call.Sym, args: make([]argsrc, len(call.Args))}
		if callee := prog.Func(call.Sym); callee != nil {
			site.callee.Store(callee)
		} else {
			site.errMsg = fmt.Sprintf("unknown callee %q", call.Sym)
		}
		d.site = site
		// Argument marshalling cost is fixed per call site: one load per
		// spilled argument, one move per register argument.
		marshal := 0
		for i, r := range call.Args {
			src := argsrc{slot: -1, idx: r.Index, float: r.Class == nisa.ClassFloat}
			if call.ArgSlots != nil && call.ArgSlots[i] >= 0 {
				src.slot = int32(call.ArgSlots[i])
				marshal += cost.Load
			} else {
				marshal += cost.Move
			}
			site.args[i] = src
		}
		d.cost = int32(marshal + cost.Call)
		switch in.Rd.Class {
		case nisa.ClassFloat:
			d.mode = retFloat
		case nisa.ClassInt:
			d.mode = retInt
		default:
			d.mode = retNone
		}

	case nisa.Ret:
		d.cost = int32(cost.BranchTaken)
		switch in.Ra.Class {
		case nisa.ClassFloat:
			d.x = xRetFloat
		case nisa.ClassInt:
			d.x = xRetInt
		default:
			d.x = xRetVoid
		}

	case nisa.VLoad, nisa.VStore, nisa.VAdd, nisa.VSub, nisa.VMul, nisa.VMax, nisa.VMin,
		nisa.VSplat, nisa.VRedAdd, nisa.VRedMax, nisa.VRedMin:
		if !c.target.HasSIMD {
			d.x = xTrap
			d.site = trap(fmt.Sprintf("vector instruction %s on a target without a vector unit", in.Op))
			return
		}
		switch in.Op {
		case nisa.VLoad:
			d.decodeMem(in, int64(cost.VecLoad+cost.AddrCalcPenalty))
			d.x, d.span = xVLoad, cil.VecBytes
		case nisa.VStore:
			d.decodeMem(in, int64(cost.VecStore+cost.AddrCalcPenalty))
			d.x, d.span = xVStore, cil.VecBytes
		case nisa.VAdd, nisa.VSub, nisa.VMul, nisa.VMax, nisa.VMin:
			d.x, d.vop = xVBin, in.Op.VectorOpcode()
			if in.Op == nisa.VMul {
				d.cost = int32(cost.VecMul)
			} else {
				d.cost = int32(cost.VecALU)
			}
		case nisa.VSplat:
			d.cost = int32(cost.VecSplat)
			if in.Ra.Class == nisa.ClassFloat {
				d.x = xVSplatFloat
			} else {
				d.x = xVSplatInt
			}
		default: // VRedAdd, VRedMax, VRedMin
			d.cost, d.vop = int32(cost.VecReduce), in.Op.VectorOpcode()
			if in.Rd.Class == nisa.ClassFloat {
				d.x = xVRedFloat
			} else {
				d.x = xVRedInt
			}
		}

	default:
		d.x = xTrap
		if in.Op.IsVector() {
			d.site = trap(fmt.Sprintf("unimplemented vector opcode %s", in.Op))
		} else {
			d.site = trap(fmt.Sprintf("unimplemented opcode %s", in.Op))
		}
	}
}

// trap is the record of an instruction that fails when it executes.
func trap(msg string) *callSite { return &callSite{errMsg: msg} }

// memCost charges a scalar memory access, including the target's sub-word and
// address-calculation penalties.
func memCost(c *target.CostModel, k cil.Kind, base int) int64 {
	cycles := base + c.AddrCalcPenalty
	if k.Size() < 4 {
		cycles += c.SubWordPenalty
	}
	return int64(cycles)
}

// decodeCmp resolves the comparison source file, interpretation and
// condition mask for SetCmp, Select and BranchCmp. Operands are read from
// the file selected by Ra's class and compared at the instruction kind's
// signedness, like the generic path; a mismatched combination compares the
// zero-valued halves of both scalars, i.e. always evaluates as equal.
func (d *dinstr) decodeCmp(in *nisa.Instr) {
	cond := in.Cond
	if int(cond) >= len(condMasks) {
		cond = nisa.CondGe // unknown conditions compared as Ge, like cilCondOp did
	}
	d.condMask = condMasks[cond]
	srcFloat := in.Ra.Class == nisa.ClassFloat
	switch {
	case in.Kind.IsFloat() && srcFloat:
		d.mode = cmpFloat
	case in.Kind.IsFloat() || srcFloat:
		d.mode = cmpMismatch
	case in.Kind.IsSigned():
		d.mode = cmpSigned
	default:
		d.mode = cmpUnsigned
	}
}

// decodeMem precomputes the addressing parameters and cycle cost of a
// scalar or vector memory access. For vector accesses the caller widens the
// span to the full vector afterwards.
func (d *dinstr) decodeMem(in *nisa.Instr, cycles int64) {
	sz := int32(in.Kind.Size())
	d.size, d.span = sz, sz
	d.cost = int32(cycles)
}

// evalCond evaluates the pre-decoded condition of SetCmp, Select and
// BranchCmp against the frame: one three-way comparison in the mode decoded
// by decodeCmp, then a lookup in the precomputed condition mask. Small
// enough to inline into the dispatch loop.
func (d *dinstr) evalCond(fr *dframe) bool {
	state := uint8(stateEq)
	switch d.mode {
	case cmpSigned:
		a, b := fr.ints[d.ra], fr.ints[d.rb]
		if a < b {
			state = stateLt
		} else if a > b {
			state = stateGt
		}
	case cmpUnsigned:
		a, b := uint64(fr.ints[d.ra]), uint64(fr.ints[d.rb])
		if a < b {
			state = stateLt
		} else if a > b {
			state = stateGt
		}
	case cmpFloat:
		a, b := fr.flts[d.ra], fr.flts[d.rb]
		if a < b {
			state = stateLt
		} else if a == b {
			state = stateEq
		} else {
			state = stateGt // also the NaN outcome: neither lt nor eq
		}
	}
	return d.condMask>>state&1 != 0
}
