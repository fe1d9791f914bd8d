package jit

import (
	"fmt"

	"repro/internal/cil"
	"repro/internal/nisa"
)

// vregInfo describes one virtual register created during translation.
type vregInfo struct {
	class nisa.RegClass
	// named is true for virtual registers that hold a bytecode-level
	// variable (argument or local); those are the slots the split register
	// allocation annotation talks about.
	named bool
	// slot is the variable index for named vregs: 0..P-1 for arguments,
	// P..P+L-1 for locals.
	slot int
}

// operand is a compile-time descriptor of one evaluation-stack entry.
type operand struct {
	kind    cil.Kind // stack kind (cil.Ref for arrays, cil.Vec for vectors)
	isConst bool
	c       int64
	f       float64
	vreg    int   // valid when !isConst and lanes == nil
	lanes   []int // per-lane virtual registers for scalarized vectors
	elem    cil.Kind
}

type canonKey struct {
	depth int
	lane  int // -1 for scalar entries
	class nisa.RegClass
}

type fixup struct {
	codeIdx  int
	bcTarget int
}

// cmpState remembers the last emitted compare so a following conditional
// branch can fuse with it.
type cmpState struct {
	valid   bool
	codeIdx int
	vreg    int
	cond    nisa.Cond
	kind    cil.Kind
	ra, rb  nisa.Reg
}

type translator struct {
	c   *Compiler
	mod *cil.Module
	m   *cil.Method
	st  *compileState

	code  []nisa.Instr
	vregs []vregInfo

	argVreg  []int
	locVreg  []int   // -1 when the local is a scalarized vector
	locLanes [][]int // lane vregs for scalarized vector locals

	stack       []operand
	nativeStart []int
	fixups      []fixup
	canon       map[canonKey]int

	lastCmp cmpState

	stats nisa.Stats
}

// reset readies a pooled translator for one method, reusing every buffer's
// capacity from the previous compilation. This is what makes the steady
// state of the compile pipeline allocation-lean: a warm translator only
// allocates when a method outgrows everything compiled on this state before.
func (t *translator) reset(c *Compiler, mod *cil.Module, m *cil.Method, st *compileState) {
	t.c, t.mod, t.m, t.st = c, mod, m, st
	t.code = t.code[:0]
	t.vregs = t.vregs[:0]
	t.argVreg = t.argVreg[:0]
	t.locVreg = t.locVreg[:0]
	t.locLanes = t.locLanes[:0]
	t.stack = t.stack[:0]
	t.nativeStart = t.nativeStart[:0]
	t.fixups = t.fixups[:0]
	if t.canon == nil {
		t.canon = make(map[canonKey]int)
	} else {
		clear(t.canon)
	}
	t.lastCmp = cmpState{}
	t.stats = nisa.Stats{}
}

// newVreg allocates a fresh virtual register of the given class.
func (t *translator) newVreg(class nisa.RegClass) int {
	t.vregs = append(t.vregs, vregInfo{class: class})
	return len(t.vregs) - 1
}

// newNamedVreg allocates a virtual register bound to a bytecode variable.
func (t *translator) newNamedVreg(class nisa.RegClass, slot int) int {
	t.vregs = append(t.vregs, vregInfo{class: class, named: true, slot: slot})
	return len(t.vregs) - 1
}

// vr wraps a virtual register index as a nisa.Reg operand.
func (t *translator) vr(i int) nisa.Reg {
	return nisa.Reg{Class: t.vregs[i].class, Index: i, Virtual: true}
}

func (t *translator) emit(in nisa.Instr) int {
	t.code = append(t.code, in)
	return len(t.code) - 1
}

func classOfStack(k cil.Kind) nisa.RegClass {
	if k == cil.Ref {
		return nisa.ClassInt
	}
	return nisa.ClassOf(k)
}

func (t *translator) push(op operand) { t.stack = append(t.stack, op) }
func (t *translator) pushReg(v int, k cil.Kind) {
	t.push(operand{kind: k, vreg: v})
}

func (t *translator) pop() operand {
	op := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	return op
}

// materialize returns a virtual register holding the operand's value,
// emitting a constant move when needed.
func (t *translator) materialize(op operand) int {
	if op.lanes != nil {
		// Scalarized vectors never appear in scalar contexts (the verifier
		// guarantees kinds match), so this is a translator bug if reached.
		panic("jit: cannot materialize a scalarized vector as a scalar")
	}
	if !op.isConst {
		return op.vreg
	}
	class := classOfStack(op.kind)
	v := t.newVreg(class)
	if class == nisa.ClassFloat {
		t.emit(nisa.Instr{Op: nisa.MovFImm, Kind: op.kind, Rd: t.vr(v), FImm: op.f})
	} else {
		t.emit(nisa.Instr{Op: nisa.MovImm, Kind: op.kind, Rd: t.vr(v), Imm: op.c})
	}
	return v
}

// canonVreg returns the canonical virtual register for a stack slot, used to
// make the abstract stack concrete across control-flow joins.
func (t *translator) canonVreg(depth, lane int, class nisa.RegClass) int {
	key := canonKey{depth: depth, lane: lane, class: class}
	if v, ok := t.canon[key]; ok {
		return v
	}
	v := t.newVreg(class)
	t.canon[key] = v
	return v
}

// flushStack moves every abstract stack entry into its canonical virtual
// register so that all predecessors of a join point agree on locations.
func (t *translator) flushStack() {
	for d := range t.stack {
		op := t.stack[d]
		if op.lanes != nil {
			newLanes := t.st.intSlice(len(op.lanes))
			for l, lv := range op.lanes {
				cv := t.canonVreg(d, l, t.vregs[lv].class)
				if cv != lv {
					t.emit(nisa.Instr{Op: nisa.Mov, Kind: op.elem, Rd: t.vr(cv), Ra: t.vr(lv)})
				}
				newLanes[l] = cv
			}
			t.stack[d] = operand{kind: op.kind, lanes: newLanes, elem: op.elem}
			continue
		}
		class := classOfStack(op.kind)
		cv := t.canonVreg(d, -1, class)
		if op.isConst {
			if class == nisa.ClassFloat {
				t.emit(nisa.Instr{Op: nisa.MovFImm, Kind: op.kind, Rd: t.vr(cv), FImm: op.f})
			} else {
				t.emit(nisa.Instr{Op: nisa.MovImm, Kind: op.kind, Rd: t.vr(cv), Imm: op.c})
			}
		} else if op.vreg != cv {
			t.emit(nisa.Instr{Op: nisa.Mov, Kind: op.kind, Rd: t.vr(cv), Ra: t.vr(op.vreg)})
		}
		t.stack[d] = operand{kind: op.kind, vreg: cv}
	}
}

// reconstructStack sets the abstract stack to the canonical registers
// corresponding to the verified entry layout of a join point.
func (t *translator) reconstructStack(layout []cil.Type) {
	t.stack = t.stack[:0]
	scalarize := !t.c.useSIMD()
	for d, typ := range layout {
		k := typ.Kind
		if typ.IsArray() {
			k = cil.Ref
		}
		if k == cil.Vec && scalarize {
			// Scalarized vector entries at join points are keyed per lane,
			// in the lane count and register class flushStack wrote them
			// with: those of the element kind the verifier tracked. It
			// tracked none for a vector loaded from a vector local, and
			// those scalarize as byte lanes (see StLoc).
			elem := typ.Elem
			if elem == cil.Void {
				elem = cil.U8
			}
			lanes := t.st.intSlice(elem.Lanes())
			for l := range lanes {
				lanes[l] = t.canonVreg(d, l, laneClass(elem))
			}
			t.push(operand{kind: cil.Vec, lanes: lanes, elem: elem})
			continue
		}
		t.push(operand{kind: k, vreg: t.canonVreg(d, -1, classOfStack(k))})
	}
}

// guardVreg materializes any pending stack operand that aliases the given
// virtual register, so a following store to the variable cannot retroactively
// change values already pushed on the evaluation stack.
func (t *translator) guardVreg(v int) {
	for d := range t.stack {
		op := t.stack[d]
		if op.lanes != nil {
			for l, lv := range op.lanes {
				if lv == v {
					nv := t.newVreg(t.vregs[v].class)
					t.emit(nisa.Instr{Op: nisa.Mov, Kind: op.elem, Rd: t.vr(nv), Ra: t.vr(v)})
					op.lanes[l] = nv
				}
			}
			continue
		}
		if !op.isConst && op.vreg == v {
			nv := t.newVreg(t.vregs[v].class)
			t.emit(nisa.Instr{Op: nisa.Mov, Kind: op.kind, Rd: t.vr(nv), Ra: t.vr(v)})
			t.stack[d] = operand{kind: op.kind, vreg: nv}
		}
	}
}

// slotKindOf returns the declared kind of a variable slot.
func slotKindOf(typ cil.Type) cil.Kind {
	if typ.IsArray() {
		return cil.Ref
	}
	return typ.Kind
}

func (t *translator) run() error {
	m := t.m
	// The verifier's proof stands in for re-running its dataflow here: it
	// is the one Verify left on the method, or a fresh verification when
	// the method carries none — unverified code is never translated.
	proof, err := cil.MethodProof(t.mod, m)
	if err != nil {
		return err
	}
	t.nativeStart = growInts(t.nativeStart, len(m.Code)+1)

	// Allocate named virtual registers and emit the argument prologue.
	t.argVreg = growInts(t.argVreg, len(m.Params))
	for i, p := range m.Params {
		class := classOfStack(slotKindOf(p))
		t.argVreg[i] = t.newNamedVreg(class, i)
		t.emit(nisa.Instr{Op: nisa.GetArg, Kind: slotKindOf(p), Rd: t.vr(t.argVreg[i]), Imm: int64(i)})
	}
	t.locVreg = growInts(t.locVreg, len(m.Locals))
	t.locLanes = growLanes(t.locLanes, len(m.Locals))
	for j, l := range m.Locals {
		if l.Kind == cil.Vec && !t.c.useSIMD() {
			t.locVreg[j] = -1
			lanes := t.st.intSlice(cil.VecBytes)
			for i := range lanes {
				lanes[i] = t.newVreg(nisa.ClassInt)
			}
			t.locLanes[j] = lanes
			continue
		}
		t.locVreg[j] = t.newNamedVreg(classOfStack(slotKindOf(l)), len(m.Params)+j)
	}

	nextJoin, joinPC, joinEntry := 0, -1, []cil.Type(nil)
	if proof.NumJoins() > 0 {
		joinPC, joinEntry = proof.Join(0)
	}
	for pc := range m.Code {
		in := &m.Code[pc]
		if pc == joinPC {
			// Fall-through edges into a join point must agree with branch
			// edges on where stack values live.
			if pc == 0 || !m.Code[pc-1].Op.IsTerminator() {
				t.flushStack()
			}
			t.reconstructStack(joinEntry)
			if nextJoin++; nextJoin < proof.NumJoins() {
				joinPC, joinEntry = proof.Join(nextJoin)
			}
		}
		t.nativeStart[pc] = len(t.code)
		if !proof.Reachable(pc) {
			// Unreachable instruction: skip (nothing can branch here).
			continue
		}
		if err := t.translate(in); err != nil {
			return fmt.Errorf("bytecode @%d (%s): %w", pc, in, err)
		}
	}
	t.nativeStart[len(m.Code)] = len(t.code)

	// Resolve branch targets from bytecode indices to native indices.
	for _, f := range t.fixups {
		t.code[f.codeIdx].Target = t.nativeStart[f.bcTarget]
	}
	t.stats.CompileSteps += int64(len(t.code))
	return nil
}

func (t *translator) invalidateCmp() { t.lastCmp.valid = false }

func (t *translator) translate(in *cil.Instr) error {
	switch in.Op {
	case cil.Nop:

	case cil.LdcI:
		t.push(operand{kind: in.Kind.StackKind(), isConst: true, c: in.Int})
	case cil.LdcF:
		t.push(operand{kind: in.Kind, isConst: true, f: in.Float})

	case cil.LdArg:
		i := int(in.Int)
		t.pushReg(t.argVreg[i], slotKindOf(t.m.Params[i]).StackKind())
	case cil.StArg:
		i := int(in.Int)
		v := t.pop()
		t.guardVreg(t.argVreg[i])
		t.storeToSlotVreg(t.argVreg[i], slotKindOf(t.m.Params[i]), v)
	case cil.LdLoc:
		j := int(in.Int)
		if t.locVreg[j] < 0 {
			lanes := t.st.intSliceCopy(t.locLanes[j])
			t.push(operand{kind: cil.Vec, lanes: lanes, elem: cil.U8})
			return nil
		}
		t.pushReg(t.locVreg[j], slotKindOf(t.m.Locals[j]).StackKind())
	case cil.StLoc:
		j := int(in.Int)
		v := t.pop()
		if t.locVreg[j] < 0 {
			if v.lanes == nil {
				return fmt.Errorf("store of non-vector value into vector local")
			}
			if len(v.lanes) != len(t.locLanes[j]) {
				// A scalarized vector local is sixteen integer byte lanes:
				// its declaration names no element kind to size it by.
				return fmt.Errorf("store of a %s vector into a vector local, which scalarizes as byte lanes only", v.elem)
			}
			for l, lv := range t.locLanes[j] {
				t.guardVreg(lv)
				t.emit(nisa.Instr{Op: nisa.Mov, Kind: v.elem, Rd: t.vr(lv), Ra: t.vr(v.lanes[l])})
			}
			return nil
		}
		t.guardVreg(t.locVreg[j])
		t.storeToSlotVreg(t.locVreg[j], slotKindOf(t.m.Locals[j]), v)

	case cil.Dup:
		top := t.stack[len(t.stack)-1]
		if top.lanes != nil {
			top.lanes = t.st.intSliceCopy(top.lanes)
		}
		t.push(top)
	case cil.Pop:
		t.pop()

	case cil.Add, cil.Sub, cil.Mul, cil.Div, cil.Rem, cil.And, cil.Or, cil.Xor, cil.Shl, cil.Shr:
		b := t.pop()
		a := t.pop()
		ra, rb := t.materialize(a), t.materialize(b)
		class := classOfStack(in.Kind.StackKind())
		rd := t.newVreg(class)
		t.emit(nisa.Instr{Op: aluOp(in.Op, in.Kind), Kind: in.Kind, Rd: t.vr(rd), Ra: t.vr(ra), Rb: t.vr(rb)})
		t.pushReg(rd, in.Kind.StackKind())
	case cil.Neg:
		a := t.pop()
		ra := t.materialize(a)
		class := classOfStack(in.Kind.StackKind())
		rd := t.newVreg(class)
		op := nisa.Neg
		if in.Kind.IsFloat() {
			op = nisa.FNeg
		}
		t.emit(nisa.Instr{Op: op, Kind: in.Kind, Rd: t.vr(rd), Ra: t.vr(ra)})
		t.pushReg(rd, in.Kind.StackKind())
	case cil.Not:
		a := t.pop()
		ra := t.materialize(a)
		rd := t.newVreg(nisa.ClassInt)
		t.emit(nisa.Instr{Op: nisa.Not, Kind: in.Kind, Rd: t.vr(rd), Ra: t.vr(ra)})
		t.pushReg(rd, in.Kind.StackKind())

	case cil.Conv:
		a := t.pop()
		ra := t.materialize(a)
		rd := t.newVreg(classOfStack(in.Kind.StackKind()))
		t.emit(nisa.Instr{Op: nisa.Conv, Kind: in.Kind, SrcKind: a.kind, Rd: t.vr(rd), Ra: t.vr(ra)})
		t.pushReg(rd, in.Kind.StackKind())

	case cil.CmpEq, cil.CmpNe, cil.CmpLt, cil.CmpLe, cil.CmpGt, cil.CmpGe:
		b := t.pop()
		a := t.pop()
		ra, rb := t.materialize(a), t.materialize(b)
		rd := t.newVreg(nisa.ClassInt)
		idx := t.emit(nisa.Instr{Op: nisa.SetCmp, Kind: in.Kind, Cond: nisa.CondOf(in.Op),
			Rd: t.vr(rd), Ra: t.vr(ra), Rb: t.vr(rb)})
		t.pushReg(rd, cil.I32)
		t.lastCmp.valid = true
		t.lastCmp.codeIdx = idx
		t.lastCmp.vreg = rd
		t.lastCmp.cond = nisa.CondOf(in.Op)
		t.lastCmp.kind = in.Kind
		t.lastCmp.ra, t.lastCmp.rb = t.vr(ra), t.vr(rb)
		return nil // keep lastCmp valid

	case cil.Br:
		t.flushStack()
		idx := t.emit(nisa.Instr{Op: nisa.Jump})
		t.fixups = append(t.fixups, fixup{codeIdx: idx, bcTarget: in.Target})
	case cil.BrTrue, cil.BrFalse:
		cond := t.pop()
		fused := false
		if t.lastCmp.valid && !cond.isConst && cond.lanes == nil &&
			cond.vreg == t.lastCmp.vreg && t.lastCmp.codeIdx == len(t.code)-1 {
			// Fuse the preceding compare into the branch.
			c := t.lastCmp.cond
			if in.Op == cil.BrFalse {
				c = c.Negate()
			}
			kind, ra, rb := t.lastCmp.kind, t.lastCmp.ra, t.lastCmp.rb
			t.code = t.code[:len(t.code)-1]
			t.flushStack()
			idx := t.emit(nisa.Instr{Op: nisa.BranchCmp, Kind: kind, Cond: c, Ra: ra, Rb: rb})
			t.fixups = append(t.fixups, fixup{codeIdx: idx, bcTarget: in.Target})
			fused = true
		}
		if !fused {
			ra := t.materialize(cond)
			rz := t.newVreg(nisa.ClassInt)
			t.emit(nisa.Instr{Op: nisa.MovImm, Kind: cil.I32, Rd: t.vr(rz)})
			c := nisa.CondNe
			if in.Op == cil.BrFalse {
				c = nisa.CondEq
			}
			t.flushStack()
			idx := t.emit(nisa.Instr{Op: nisa.BranchCmp, Kind: cil.I32, Cond: c, Ra: t.vr(ra), Rb: t.vr(rz)})
			t.fixups = append(t.fixups, fixup{codeIdx: idx, bcTarget: in.Target})
		}

	case cil.Call:
		// Local methods and imported ones translate identically — the import
		// table carries the signature, and the hash-qualified symbol stays in
		// the native code as the stub the linker resolves at run time.
		params, ret, ok := t.mod.ResolveCall(in.Str)
		if !ok {
			return fmt.Errorf("call to unknown method %q", in.Str)
		}
		args := make([]nisa.Reg, len(params))
		for i := len(params) - 1; i >= 0; i-- {
			args[i] = t.vr(t.materialize(t.pop()))
		}
		call := nisa.Instr{Op: nisa.Call, Sym: in.Str, Args: args}
		if ret.Kind != cil.Void {
			retKind := slotKindOf(ret).StackKind()
			rd := t.newVreg(classOfStack(retKind))
			call.Rd = t.vr(rd)
			call.Kind = retKind
			t.emit(call)
			t.pushReg(rd, retKind)
		} else {
			t.emit(call)
		}

	case cil.Ret:
		ret := nisa.Instr{Op: nisa.Ret}
		if t.m.Ret.Kind != cil.Void {
			v := t.pop()
			ret.Ra = t.vr(t.materialize(v))
			ret.Kind = slotKindOf(t.m.Ret)
		}
		t.emit(ret)

	case cil.NewArr:
		n := t.pop()
		ra := t.materialize(n)
		rd := t.newVreg(nisa.ClassInt)
		t.emit(nisa.Instr{Op: nisa.Alloc, Kind: in.Kind, Rd: t.vr(rd), Ra: t.vr(ra)})
		t.pushReg(rd, cil.Ref)
	case cil.LdLen:
		arr := t.pop()
		rd := t.newVreg(nisa.ClassInt)
		t.emit(nisa.Instr{Op: nisa.ArrLen, Rd: t.vr(rd), Ra: t.vr(t.materialize(arr))})
		t.pushReg(rd, cil.I32)
	case cil.LdElem:
		idx := t.pop()
		arr := t.pop()
		rd := t.newVreg(classOfStack(in.Kind.StackKind()))
		t.emit(nisa.Instr{Op: nisa.Load, Kind: in.Kind,
			Rd: t.vr(rd), Ra: t.vr(t.materialize(arr)), Rb: t.vr(t.materialize(idx))})
		t.pushReg(rd, in.Kind.StackKind())
	case cil.StElem:
		val := t.pop()
		idx := t.pop()
		arr := t.pop()
		t.emit(nisa.Instr{Op: nisa.Store, Kind: in.Kind,
			Rd: t.vr(t.materialize(val)), Ra: t.vr(t.materialize(arr)), Rb: t.vr(t.materialize(idx))})

	case cil.VLoad, cil.VStore, cil.VAdd, cil.VSub, cil.VMul, cil.VMax, cil.VMin,
		cil.VSplat, cil.VRedAdd, cil.VRedMax, cil.VRedMin:
		if t.c.useSIMD() {
			t.translateVectorSIMD(in)
		} else {
			t.translateVectorScalarized(in)
		}

	default:
		return fmt.Errorf("unsupported opcode %s", in.Op)
	}
	t.invalidateCmp()
	return nil
}

// storeToSlotVreg moves an operand into a named variable's register,
// truncating to the declared kind when it is narrower than the stack kind.
func (t *translator) storeToSlotVreg(dst int, declared cil.Kind, v operand) {
	rd := t.vr(dst)
	if v.isConst {
		if classOfStack(v.kind) == nisa.ClassFloat {
			t.emit(nisa.Instr{Op: nisa.MovFImm, Kind: v.kind, Rd: rd, FImm: v.f})
		} else {
			t.emit(nisa.Instr{Op: nisa.MovImm, Kind: v.kind, Rd: rd, Imm: v.c})
		}
	} else {
		t.emit(nisa.Instr{Op: nisa.Mov, Kind: v.kind, Rd: rd, Ra: t.vr(v.vreg)})
	}
	if declared != declared.StackKind() && declared != cil.Ref && declared != cil.Vec {
		// Narrow variable: keep its register normalized to the declared
		// width, mirroring the interpreter's store semantics.
		t.emit(nisa.Instr{Op: nisa.Conv, Kind: declared, SrcKind: declared.StackKind(), Rd: rd, Ra: rd})
	}
}

// aluOp maps a bytecode arithmetic opcode to its native counterpart for the
// given operand kind.
func aluOp(op cil.Opcode, k cil.Kind) nisa.Op {
	if k.IsFloat() {
		switch op {
		case cil.Add:
			return nisa.FAdd
		case cil.Sub:
			return nisa.FSub
		case cil.Mul:
			return nisa.FMul
		case cil.Div:
			return nisa.FDiv
		}
	}
	switch op {
	case cil.Add:
		return nisa.Add
	case cil.Sub:
		return nisa.Sub
	case cil.Mul:
		return nisa.Mul
	case cil.Div:
		return nisa.Div
	case cil.Rem:
		return nisa.Rem
	case cil.And:
		return nisa.And
	case cil.Or:
		return nisa.Or
	case cil.Xor:
		return nisa.Xor
	case cil.Shl:
		return nisa.Shl
	case cil.Shr:
		return nisa.Shr
	}
	return nisa.Nop
}
