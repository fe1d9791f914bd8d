package cil

import (
	"fmt"
	"slices"
	"sync"
)

// VerifyError describes a verification failure at a specific instruction.
type VerifyError struct {
	Module string
	Method string
	PC     int
	Msg    string
}

func (e *VerifyError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("cil: verify %s.%s: %s", e.Module, e.Method, e.Msg)
	}
	return fmt.Sprintf("cil: verify %s.%s @%d: %s", e.Module, e.Method, e.PC, e.Msg)
}

// Verify type-checks every method of the module, computes MaxStack for each
// and attaches the StackProof deployment-side compilers reuse. Verification
// simulates the typed evaluation stack across all control-flow paths (the CLI
// verification discipline): stack depths and kinds must agree at every join
// point, branch targets must be in range, variable indices valid, call
// signatures respected, and every path must end in ret with an empty stack.
//
// Publishing those two results is the verifier's only write into a method,
// so Verify must finish before the module is shared; already-verified
// modules can then be JIT-compiled concurrently.
func Verify(mod *Module) error {
	v := verifierPool.Get().(*verifier)
	defer verifierPool.Put(v)
	for _, m := range mod.Methods {
		p, err := v.prove(mod, m)
		if err != nil {
			return err
		}
		m.MaxStack = p.maxStack
		m.proof = p
	}
	return nil
}

// verifierPool recycles the verifier's scratch: one module is verified on one
// verifier, and a warm one allocates nothing but the proofs it returns.
var verifierPool = sync.Pool{New: func() any { return new(verifier) }}

// What verifier.joinAt knows about one pc as a branch target.
const (
	notTarget = -2 // no branch names this pc: only pc-1 can fall into it
	unvisited = -1 // a branch target not reached yet
	// >= 0: index into verifier.joins of the recorded entry stack
)

// verifier holds the scratch of one method's dataflow. Every instruction is
// simulated exactly once, on the one stack below: a pc that is no branch
// target is entered only from its predecessor, so its entry stack is simply
// what the predecessor left, and only branch targets need theirs recorded
// for the comparison at a second arrival.
type verifier struct {
	mod      *Module
	m        *Method
	stack    []Type  // the evaluation stack being simulated
	joinAt   []int32 // per pc: notTarget, unvisited or an index into joins
	joins    []join  // recorded targets, in order of first arrival
	types    []Type  // their entry stacks, back to back
	worklist []int32 // recorded targets still to simulate from
	reach    []uint64
	maxStack int
}

func (v *verifier) errf(pc int, format string, args ...interface{}) error {
	return &VerifyError{Module: v.mod.Name, Method: v.m.Name, PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// prove verifies m against mod and returns the proof, writing nothing into m.
func (v *verifier) prove(mod *Module, m *Method) (*StackProof, error) {
	v.mod, v.m = mod, m
	defer func() { v.mod, v.m = nil, nil }()
	if len(m.Code) == 0 {
		return nil, v.errf(-1, "empty method body")
	}
	for _, t := range m.Params {
		if t.Kind == Void || t.Kind == Vec {
			return nil, v.errf(-1, "invalid parameter type %s", t)
		}
	}
	for _, t := range m.Locals {
		if t.Kind == Void {
			return nil, v.errf(-1, "invalid local type %s", t)
		}
	}
	n := len(m.Code)
	if cap(v.joinAt) < n {
		v.joinAt = make([]int32, n)
	}
	v.joinAt = v.joinAt[:n]
	for i := range v.joinAt {
		v.joinAt[i] = notTarget
	}
	for pc := range m.Code {
		// Unreachable branches may name any target; reachable ones are
		// range-checked when simulated.
		if in := &m.Code[pc]; in.Op.IsBranch() && in.Target >= 0 && in.Target < n {
			v.joinAt[in.Target] = unvisited
		}
	}
	v.stack, v.joins, v.types, v.worklist = v.stack[:0], v.joins[:0], v.types[:0], v.worklist[:0]
	v.maxStack = 0
	v.reach = make([]uint64, (n+63)/64)

	if _, err := v.arrive(0); err != nil {
		return nil, err
	}
	for pc := 0; ; {
		// One straight-line run on the same stack, until control stops
		// falling through or falls into a join an earlier path entered.
		for run := true; run; pc++ {
			fallthru, err := v.step(pc)
			if err != nil {
				return nil, err
			}
			if run = fallthru; run {
				if pc+1 >= n {
					return nil, v.errf(pc, "control flow falls off the end of the method")
				}
				if run, err = v.arrive(pc + 1); err != nil {
					return nil, err
				}
			}
		}
		if len(v.worklist) == 0 {
			break
		}
		pc = int(v.worklist[len(v.worklist)-1])
		v.worklist = v.worklist[:len(v.worklist)-1]
		v.stack = append(v.stack[:0], joinEntry(v.joins, v.types, int(v.joinAt[pc]))...)
	}

	p := &StackProof{mod: mod, n: n, maxStack: v.maxStack, reach: v.reach}
	v.reach = nil
	if len(v.joins) > 0 {
		p.joins = make([]join, len(v.joins))
		copy(p.joins, v.joins)
		slices.SortFunc(p.joins, func(a, b join) int { return int(a.pc - b.pc) })
		if len(v.types) > 0 {
			p.types = make([]Type, 0, len(v.types))
		}
		for i := range p.joins {
			j := &p.joins[i]
			p.types = append(p.types, joinEntry(v.joins, v.types, int(v.joinAt[j.pc]))...)
			j.end = int32(len(p.types))
		}
	}
	return p, nil
}

// arrive is control reaching pc with v.stack. It reports whether this is the
// first arrival (pc still has to be simulated); a later arrival at a branch
// target must bring the stack the first one recorded.
func (v *verifier) arrive(pc int) (first bool, err error) {
	if len(v.stack) > v.maxStack {
		v.maxStack = len(v.stack)
	}
	switch at := v.joinAt[pc]; at {
	case notTarget:
	case unvisited:
		v.joinAt[pc] = int32(len(v.joins))
		v.types = append(v.types, v.stack...)
		v.joins = append(v.joins, join{pc: int32(pc), end: int32(len(v.types))})
	default:
		prev := joinEntry(v.joins, v.types, int(at))
		if len(prev) != len(v.stack) {
			return false, v.errf(pc, "stack depth mismatch at join: %d vs %d", len(prev), len(v.stack))
		}
		for i := range prev {
			if prev[i] != v.stack[i] {
				return false, v.errf(pc, "stack kind mismatch at join slot %d: %s vs %s", i, prev[i], v.stack[i])
			}
		}
		return false, nil
	}
	v.reach[pc>>6] |= 1 << (pc & 63)
	return true, nil
}

func (v *verifier) push(t Type) { v.stack = append(v.stack, t) }

func (v *verifier) pop(pc int, in *Instr) (Type, error) {
	if len(v.stack) == 0 {
		return Type{}, v.errf(pc, "%s: evaluation stack underflow", in.Op)
	}
	t := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return t, nil
}

func (v *verifier) popKind(pc int, in *Instr, want Kind) error {
	t, err := v.pop(pc, in)
	if err != nil {
		return err
	}
	if t.Kind != want.StackKind() {
		return v.errf(pc, "%s: expected %s on stack, found %s", in.Op, want.StackKind(), t)
	}
	return nil
}

func (v *verifier) popArray(pc int, in *Instr, elem Kind) error {
	t, err := v.pop(pc, in)
	if err != nil {
		return err
	}
	if !t.IsArray() || t.Elem != elem {
		return v.errf(pc, "%s: expected %s[] on stack, found %s", in.Op, elem, t)
	}
	return nil
}

// popAssignable pops a stack value and checks it may be stored into a slot of
// declared type want. A vector slot takes a vector of any element kind: its
// declaration names none.
func (v *verifier) popAssignable(pc int, in *Instr, want Type) error {
	got, err := v.pop(pc, in)
	if err != nil {
		return err
	}
	if got.Kind == Vec {
		got.Elem = Void
	}
	if got != normalize(want) {
		return v.errf(pc, "%s: cannot store %s into slot of type %s", in.Op, got, want)
	}
	return nil
}

// step simulates instruction pc on v.stack, hands the result to the branch
// target if there is one, and reports whether control also falls through.
func (v *verifier) step(pc int) (fallthru bool, err error) {
	m := v.m
	in := &m.Code[pc]
	fallthru = true
	branch := false

	switch in.Op {
	case Nop:
	case LdcI:
		if !in.Kind.IsInteger() && in.Kind != Bool {
			return false, v.errf(pc, "ldc.i with non-integer kind %s", in.Kind)
		}
		v.push(Scalar(in.Kind.StackKind()))
	case LdcF:
		if !in.Kind.IsFloat() {
			return false, v.errf(pc, "ldc.f with non-float kind %s", in.Kind)
		}
		v.push(Scalar(in.Kind))
	case LdArg, StArg:
		i := int(in.Int)
		if i < 0 || i >= len(m.Params) {
			return false, v.errf(pc, "%s: argument index %d out of range (%d params)", in.Op, i, len(m.Params))
		}
		t := m.Params[i]
		if in.Op == LdArg {
			v.push(normalize(t))
		} else if err := v.popAssignable(pc, in, t); err != nil {
			return false, err
		}
	case LdLoc, StLoc:
		i := int(in.Int)
		if i < 0 || i >= len(m.Locals) {
			return false, v.errf(pc, "%s: local index %d out of range (%d locals)", in.Op, i, len(m.Locals))
		}
		t := m.Locals[i]
		if in.Op == LdLoc {
			v.push(normalize(t))
		} else if err := v.popAssignable(pc, in, t); err != nil {
			return false, err
		}
	case Dup:
		if len(v.stack) == 0 {
			return false, v.errf(pc, "dup on empty stack")
		}
		v.push(v.stack[len(v.stack)-1])
	case Pop:
		if _, err := v.pop(pc, in); err != nil {
			return false, err
		}
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr:
		if !in.Kind.IsNumeric() {
			return false, v.errf(pc, "%s with non-numeric kind %s", in.Op, in.Kind)
		}
		if in.Kind.IsFloat() && (in.Op == And || in.Op == Or || in.Op == Xor || in.Op == Shl || in.Op == Shr || in.Op == Rem) {
			return false, v.errf(pc, "%s not defined on floating-point kind %s", in.Op, in.Kind)
		}
		if err := v.popKind(pc, in, in.Kind); err != nil {
			return false, err
		}
		if err := v.popKind(pc, in, in.Kind); err != nil {
			return false, err
		}
		v.push(Scalar(in.Kind.StackKind()))
	case Neg, Not:
		if in.Op == Not && !in.Kind.IsInteger() {
			return false, v.errf(pc, "not with non-integer kind %s", in.Kind)
		}
		if !in.Kind.IsNumeric() {
			return false, v.errf(pc, "%s with non-numeric kind %s", in.Op, in.Kind)
		}
		if err := v.popKind(pc, in, in.Kind); err != nil {
			return false, err
		}
		v.push(Scalar(in.Kind.StackKind()))
	case Conv:
		if !in.Kind.IsNumeric() {
			return false, v.errf(pc, "conv to non-numeric kind %s", in.Kind)
		}
		t, err := v.pop(pc, in)
		if err != nil {
			return false, err
		}
		if !t.Kind.IsNumeric() {
			return false, v.errf(pc, "conv from non-numeric %s", t)
		}
		v.push(Scalar(in.Kind.StackKind()))
	case CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe:
		if !in.Kind.IsNumeric() {
			return false, v.errf(pc, "%s with non-numeric kind %s", in.Op, in.Kind)
		}
		if err := v.popKind(pc, in, in.Kind); err != nil {
			return false, err
		}
		if err := v.popKind(pc, in, in.Kind); err != nil {
			return false, err
		}
		v.push(Scalar(I32))
	case Br:
		fallthru = false
		branch = true
	case BrTrue, BrFalse:
		if err := v.popKind(pc, in, I32); err != nil {
			return false, err
		}
		branch = true
	case Call:
		// A call resolves against the module's own methods first, then the
		// import table (hash-qualified symbols of linked modules).
		params, ret, ok := v.mod.ResolveCall(in.Str)
		if !ok {
			return false, v.errf(pc, "call to unknown method %q", in.Str)
		}
		for i := len(params) - 1; i >= 0; i-- {
			if err := v.popAssignable(pc, in, params[i]); err != nil {
				return false, err
			}
		}
		if ret.Kind != Void {
			v.push(normalize(ret))
		}
	case Ret:
		if m.Ret.Kind != Void {
			if err := v.popAssignable(pc, in, m.Ret); err != nil {
				return false, err
			}
		}
		if len(v.stack) != 0 {
			return false, v.errf(pc, "ret with %d values left on the stack", len(v.stack))
		}
		fallthru = false
	case NewArr:
		if !in.Kind.IsNumeric() || in.Kind == Bool {
			return false, v.errf(pc, "newarr with element kind %s", in.Kind)
		}
		if err := v.popKind(pc, in, I32); err != nil {
			return false, err
		}
		v.push(Array(in.Kind))
	case LdLen:
		t, err := v.pop(pc, in)
		if err != nil {
			return false, err
		}
		if !t.IsArray() {
			return false, v.errf(pc, "ldlen on non-array %s", t)
		}
		v.push(Scalar(I32))
	case LdElem:
		if err := v.popKind(pc, in, I32); err != nil {
			return false, err
		}
		if err := v.popArray(pc, in, in.Kind); err != nil {
			return false, err
		}
		v.push(Scalar(in.Kind.StackKind()))
	case StElem:
		if err := v.popKind(pc, in, in.Kind); err != nil {
			return false, err
		}
		if err := v.popKind(pc, in, I32); err != nil {
			return false, err
		}
		if err := v.popArray(pc, in, in.Kind); err != nil {
			return false, err
		}
	case VLoad:
		if in.Kind.Lanes() == 0 {
			return false, v.errf(pc, "vload with element kind %s", in.Kind)
		}
		if err := v.popKind(pc, in, I32); err != nil {
			return false, err
		}
		if err := v.popArray(pc, in, in.Kind); err != nil {
			return false, err
		}
		v.push(Type{Kind: Vec, Elem: in.Kind})
	case VStore:
		if in.Kind.Lanes() == 0 {
			return false, v.errf(pc, "vstore with element kind %s", in.Kind)
		}
		if err := v.popKind(pc, in, Vec); err != nil {
			return false, err
		}
		if err := v.popKind(pc, in, I32); err != nil {
			return false, err
		}
		if err := v.popArray(pc, in, in.Kind); err != nil {
			return false, err
		}
	case VAdd, VSub, VMul, VMax, VMin:
		if in.Kind.Lanes() == 0 {
			return false, v.errf(pc, "%s with element kind %s", in.Op, in.Kind)
		}
		if err := v.popKind(pc, in, Vec); err != nil {
			return false, err
		}
		if err := v.popKind(pc, in, Vec); err != nil {
			return false, err
		}
		v.push(Type{Kind: Vec, Elem: in.Kind})
	case VSplat:
		if in.Kind.Lanes() == 0 {
			return false, v.errf(pc, "vsplat with element kind %s", in.Kind)
		}
		if err := v.popKind(pc, in, in.Kind); err != nil {
			return false, err
		}
		v.push(Type{Kind: Vec, Elem: in.Kind})
	case VRedAdd, VRedMax, VRedMin:
		if in.Kind.Lanes() == 0 {
			return false, v.errf(pc, "%s with element kind %s", in.Op, in.Kind)
		}
		if err := v.popKind(pc, in, Vec); err != nil {
			return false, err
		}
		v.push(Scalar(ReduceKind(in.Op, in.Kind)))
	default:
		return false, v.errf(pc, "invalid opcode %d", in.Op)
	}

	if branch {
		if in.Target < 0 || in.Target >= len(m.Code) {
			return false, v.errf(pc, "branch target %d out of range", in.Target)
		}
		if first, err := v.arrive(in.Target); err != nil {
			return false, err
		} else if first {
			v.worklist = append(v.worklist, int32(in.Target))
		}
	}
	return fallthru, nil
}

// normalize converts a declared variable type to its evaluation-stack type.
func normalize(t Type) Type {
	if t.IsArray() {
		return t
	}
	return Scalar(t.Kind.StackKind())
}
