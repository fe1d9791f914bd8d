package jit

import (
	"errors"
	"fmt"

	"repro/internal/cil"
	"repro/internal/nisa"
)

// ErrVectorLocalLanes refuses, on a target without a vector unit, code that
// uses a vector local as anything but byte lanes. Such a local's declaration
// names no element kind, so it scalarizes as sixteen integer byte lanes: a
// wider vector cannot be stored into it, and what is read from it cannot
// feed an operation on wider lanes. SIMD targets reinterpret the register
// and accept both.
var ErrVectorLocalLanes = errors.New("a scalarized vector local holds byte lanes only")

// translateVectorSIMD maps one portable vector builtin onto the target's
// 128-bit vector unit. This is the cheap online half of split vectorization:
// a one-to-one lowering with no analysis.
func (t *translator) translateVectorSIMD(in *cil.Instr) {
	t.stats.VectorLowered++
	switch in.Op {
	case cil.VLoad:
		idx := t.pop()
		arr := t.pop()
		vd := t.newVreg(nisa.ClassVec)
		t.emit(nisa.Instr{Op: nisa.VLoad, Kind: in.Kind,
			Rd: t.vr(vd), Ra: t.vr(t.materialize(arr)), Rb: t.vr(t.materialize(idx))})
		t.push(operand{kind: cil.Vec, vreg: vd, elem: in.Kind})
	case cil.VStore:
		vec := t.pop()
		idx := t.pop()
		arr := t.pop()
		t.emit(nisa.Instr{Op: nisa.VStore, Kind: in.Kind,
			Rd: t.vr(vec.vreg), Ra: t.vr(t.materialize(arr)), Rb: t.vr(t.materialize(idx))})
	case cil.VAdd, cil.VSub, cil.VMul, cil.VMax, cil.VMin:
		b := t.pop()
		a := t.pop()
		vd := t.newVreg(nisa.ClassVec)
		t.emit(nisa.Instr{Op: vecOp(in.Op), Kind: in.Kind,
			Rd: t.vr(vd), Ra: t.vr(a.vreg), Rb: t.vr(b.vreg)})
		t.push(operand{kind: cil.Vec, vreg: vd, elem: in.Kind})
	case cil.VSplat:
		s := t.pop()
		vd := t.newVreg(nisa.ClassVec)
		t.emit(nisa.Instr{Op: nisa.VSplat, Kind: in.Kind, Rd: t.vr(vd), Ra: t.vr(t.materialize(s))})
		t.push(operand{kind: cil.Vec, vreg: vd, elem: in.Kind})
	case cil.VRedAdd, cil.VRedMax, cil.VRedMin:
		v := t.pop()
		resKind := cil.ReduceKind(in.Op, in.Kind).StackKind()
		rd := t.newVreg(classOfStack(resKind))
		t.emit(nisa.Instr{Op: vecOp(in.Op), Kind: in.Kind, Rd: t.vr(rd), Ra: t.vr(v.vreg)})
		t.pushReg(rd, resKind)
	}
}

func vecOp(op cil.Opcode) nisa.Op {
	switch op {
	case cil.VAdd:
		return nisa.VAdd
	case cil.VSub:
		return nisa.VSub
	case cil.VMul:
		return nisa.VMul
	case cil.VMax:
		return nisa.VMax
	case cil.VMin:
		return nisa.VMin
	case cil.VRedAdd:
		return nisa.VRedAdd
	case cil.VRedMax:
		return nisa.VRedMax
	case cil.VRedMin:
		return nisa.VRedMin
	}
	return nisa.Nop
}

// laneClass is the register class holding one lane of a scalarized vector
// with the given element kind.
func laneClass(elem cil.Kind) nisa.RegClass {
	if elem.IsFloat() {
		return nisa.ClassFloat
	}
	return nisa.ClassInt
}

// translateVectorScalarized expands one portable vector builtin into an
// unrolled sequence of scalar operations, one per lane. This is what the
// paper describes as the JIT "simply ignoring the vectorization": the code
// stays correct and the implied unrolling even helps small loops, at the
// cost of register pressure for narrow element kinds.
func (t *translator) translateVectorScalarized(in *cil.Instr) error {
	lanes := in.Kind.Lanes()
	class := laneClass(in.Kind)
	// The verifier checked that every vector operand holds in.Kind lanes,
	// except one read from a vector local, which holds byte lanes here.
	operands := 0
	switch in.Op {
	case cil.VStore, cil.VRedAdd, cil.VRedMax, cil.VRedMin:
		operands = 1
	case cil.VAdd, cil.VSub, cil.VMul, cil.VMax, cil.VMin:
		operands = 2
	}
	for _, op := range t.stack[len(t.stack)-operands:] {
		if len(op.lanes) != lanes || laneClass(op.elem) != class {
			return fmt.Errorf("%w: %s.%s of a %s vector", ErrVectorLocalLanes, in.Op, in.Kind, op.elem)
		}
	}
	t.stats.VectorScalarized++
	switch in.Op {
	case cil.VLoad:
		idx := t.pop()
		arr := t.pop()
		arrR := t.vr(t.materialize(arr))
		idxR := t.vr(t.materialize(idx))
		lv := t.st.intSlice(lanes)
		for l := 0; l < lanes; l++ {
			lv[l] = t.newVreg(class)
			t.emit(nisa.Instr{Op: nisa.Load, Kind: in.Kind, Rd: t.vr(lv[l]), Ra: arrR, Rb: idxR, Imm: int64(l)})
		}
		t.push(operand{kind: cil.Vec, lanes: lv, elem: in.Kind})
	case cil.VStore:
		vec := t.pop()
		idx := t.pop()
		arr := t.pop()
		arrR := t.vr(t.materialize(arr))
		idxR := t.vr(t.materialize(idx))
		for l := 0; l < lanes; l++ {
			t.emit(nisa.Instr{Op: nisa.Store, Kind: in.Kind, Rd: t.vr(vec.lanes[l]), Ra: arrR, Rb: idxR, Imm: int64(l)})
		}
	case cil.VAdd, cil.VSub, cil.VMul:
		b := t.pop()
		a := t.pop()
		lv := t.st.intSlice(lanes)
		var op cil.Opcode
		switch in.Op {
		case cil.VAdd:
			op = cil.Add
		case cil.VSub:
			op = cil.Sub
		default:
			op = cil.Mul
		}
		for l := 0; l < lanes; l++ {
			lv[l] = t.newVreg(class)
			t.emit(nisa.Instr{Op: aluOp(op, in.Kind), Kind: in.Kind,
				Rd: t.vr(lv[l]), Ra: t.vr(a.lanes[l]), Rb: t.vr(b.lanes[l])})
		}
		t.push(operand{kind: cil.Vec, lanes: lv, elem: in.Kind})
	case cil.VMax, cil.VMin:
		b := t.pop()
		a := t.pop()
		cond := nisa.CondGt
		if in.Op == cil.VMin {
			cond = nisa.CondLt
		}
		lv := t.st.intSlice(lanes)
		for l := 0; l < lanes; l++ {
			lv[l] = t.newVreg(class)
			t.emit(nisa.Instr{Op: nisa.Select, Kind: in.Kind, Cond: cond,
				Rd: t.vr(lv[l]), Ra: t.vr(a.lanes[l]), Rb: t.vr(b.lanes[l])})
		}
		t.push(operand{kind: cil.Vec, lanes: lv, elem: in.Kind})
	case cil.VSplat:
		s := t.pop()
		sr := t.materialize(s)
		lv := t.st.intSlice(lanes)
		for l := 0; l < lanes; l++ {
			lv[l] = sr
		}
		t.push(operand{kind: cil.Vec, lanes: lv, elem: in.Kind})
	case cil.VRedAdd:
		v := t.pop()
		resKind := cil.ReduceAddKind(in.Kind).StackKind()
		acc := t.newVreg(classOfStack(resKind))
		t.emit(nisa.Instr{Op: nisa.Mov, Kind: resKind, Rd: t.vr(acc), Ra: t.vr(v.lanes[0])})
		for l := 1; l < lanes; l++ {
			t.emit(nisa.Instr{Op: aluOp(cil.Add, resKind), Kind: resKind,
				Rd: t.vr(acc), Ra: t.vr(acc), Rb: t.vr(v.lanes[l])})
		}
		t.pushReg(acc, resKind)
	case cil.VRedMax, cil.VRedMin:
		v := t.pop()
		resKind := cil.ReduceMinMaxKind(in.Kind)
		cond := nisa.CondGt
		if in.Op == cil.VRedMin {
			cond = nisa.CondLt
		}
		acc := t.newVreg(classOfStack(resKind))
		t.emit(nisa.Instr{Op: nisa.Mov, Kind: resKind, Rd: t.vr(acc), Ra: t.vr(v.lanes[0])})
		for l := 1; l < lanes; l++ {
			t.emit(nisa.Instr{Op: nisa.Select, Kind: in.Kind, Cond: cond,
				Rd: t.vr(acc), Ra: t.vr(v.lanes[l]), Rb: t.vr(acc)})
		}
		t.pushReg(acc, resKind)
	}
	return nil
}
