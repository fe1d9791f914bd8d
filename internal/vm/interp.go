package vm

import (
	"fmt"

	"repro/internal/cil"
	"repro/internal/prim"
)

// Runtime is a loaded, verified module plus the reference interpreter state.
// A Runtime is not safe for concurrent use; create one per goroutine.
type Runtime struct {
	Module *cil.Module

	// Steps counts executed bytecode instructions across all calls, which
	// gives a target-independent measure of work for sanity checks.
	Steps int64

	// StepLimit aborts execution when more than this many instructions run
	// (0 means no limit). It protects tests against accidental infinite
	// loops in generated code.
	StepLimit int64

	// MaxCallDepth limits recursion (default 1024).
	MaxCallDepth int
}

// NewRuntime verifies the module and returns a Runtime for it.
func NewRuntime(mod *cil.Module) (*Runtime, error) {
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	return &Runtime{Module: mod, MaxCallDepth: 1024}, nil
}

// Load decodes an encoded module, verifies it and returns a Runtime. This is
// the "deployment side" entry point: what arrives over the distribution
// boundary is the byte stream, never in-memory structures.
func Load(data []byte) (*Runtime, error) {
	mod, err := cil.Decode(data)
	if err != nil {
		return nil, err
	}
	return NewRuntime(mod)
}

// Call interprets the named method with the given arguments.
func (rt *Runtime) Call(name string, args ...Value) (Value, error) {
	m := rt.Module.Method(name)
	if m == nil {
		return Value{}, fmt.Errorf("vm: unknown method %q", name)
	}
	return rt.call(m, args, 0)
}

func (rt *Runtime) call(m *cil.Method, args []Value, depth int) (Value, error) {
	if depth > rt.MaxCallDepth {
		return Value{}, fmt.Errorf("vm: call depth exceeds %d in %q", rt.MaxCallDepth, m.Name)
	}
	if len(args) != len(m.Params) {
		return Value{}, fmt.Errorf("vm: %q expects %d arguments, got %d", m.Name, len(m.Params), len(args))
	}
	frameArgs := make([]Value, len(args))
	for i, a := range args {
		v, err := coerce(a, m.Params[i])
		if err != nil {
			return Value{}, fmt.Errorf("vm: %q argument %d: %w", m.Name, i, err)
		}
		frameArgs[i] = v
	}
	locals := make([]Value, len(m.Locals))
	for i, t := range m.Locals {
		locals[i] = zeroValue(t)
	}
	stack := make([]Value, 0, m.MaxStack+4)

	push := func(v Value) { stack = append(stack, v) }
	pop := func() Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	trap := func(pc int, format string, a ...interface{}) error {
		return fmt.Errorf("vm: %s @%d: %s", m.Name, pc, fmt.Sprintf(format, a...))
	}

	pc := 0
	for {
		if pc < 0 || pc >= len(m.Code) {
			return Value{}, trap(pc, "program counter out of range")
		}
		rt.Steps++
		if rt.StepLimit > 0 && rt.Steps > rt.StepLimit {
			return Value{}, trap(pc, "step limit %d exceeded", rt.StepLimit)
		}
		in := m.Code[pc]
		next := pc + 1

		switch in.Op {
		case cil.Nop:

		case cil.LdcI:
			push(IntValue(in.Kind, in.Int))
		case cil.LdcF:
			push(FloatValue(in.Kind, in.Float))
		case cil.LdArg:
			push(frameArgs[in.Int])
		case cil.StArg:
			v, err := coerce(pop(), m.Params[in.Int])
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			frameArgs[in.Int] = v
		case cil.LdLoc:
			push(locals[in.Int])
		case cil.StLoc:
			v, err := coerce(pop(), m.Locals[in.Int])
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			locals[in.Int] = v
		case cil.Dup:
			push(stack[len(stack)-1])
		case cil.Pop:
			pop()

		case cil.Add, cil.Sub, cil.Mul, cil.Div, cil.Rem, cil.And, cil.Or, cil.Xor, cil.Shl, cil.Shr:
			b := pop()
			a := pop()
			r, err := prim.Binary(in.Op, in.Kind, a.S, b.S)
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			push(scalarValue(in.Kind, r))
		case cil.Neg, cil.Not:
			a := pop()
			r, err := prim.Unary(in.Op, in.Kind, a.S)
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			push(scalarValue(in.Kind, r))
		case cil.Conv:
			a := pop()
			push(scalarValue(in.Kind, prim.Convert(a.Kind, in.Kind, a.S)))
		case cil.CmpEq, cil.CmpNe, cil.CmpLt, cil.CmpLe, cil.CmpGt, cil.CmpGe:
			b := pop()
			a := pop()
			res, err := prim.Compare(in.Op, in.Kind, a.S, b.S)
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			if res {
				push(IntValue(cil.I32, 1))
			} else {
				push(IntValue(cil.I32, 0))
			}

		case cil.Br:
			next = in.Target
		case cil.BrTrue, cil.BrFalse:
			c := pop()
			taken := prim.IsTrue(c.Kind, c.S)
			if in.Op == cil.BrFalse {
				taken = !taken
			}
			if taken {
				next = in.Target
			}
		case cil.Call:
			callee := rt.Module.Method(in.Str)
			if callee == nil {
				return Value{}, trap(pc, "unknown method %q", in.Str)
			}
			callArgs := make([]Value, len(callee.Params))
			for i := len(callee.Params) - 1; i >= 0; i-- {
				callArgs[i] = pop()
			}
			ret, err := rt.call(callee, callArgs, depth+1)
			if err != nil {
				return Value{}, err
			}
			if callee.Ret.Kind != cil.Void {
				push(ret)
			}
		case cil.Ret:
			if m.Ret.Kind == cil.Void {
				return Value{Kind: cil.Void}, nil
			}
			v, err := coerce(pop(), m.Ret)
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			return v, nil

		case cil.NewArr:
			n := pop()
			if n.S.I < 0 {
				return Value{}, trap(pc, "negative array length %d", n.S.I)
			}
			push(RefValue(NewArray(in.Kind, int(n.S.I))))
		case cil.LdLen:
			a := pop()
			if a.Ref == nil {
				return Value{}, trap(pc, "ldlen on null array")
			}
			push(IntValue(cil.I32, int64(a.Ref.Len())))
		case cil.LdElem:
			idx := pop()
			arr := pop()
			s, err := arrGet(arr, int(idx.S.I))
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			push(scalarValue(in.Kind, s))
		case cil.StElem:
			val := pop()
			idx := pop()
			arr := pop()
			if arr.Ref == nil {
				return Value{}, trap(pc, "stelem on null array")
			}
			if err := arr.Ref.Set(int(idx.S.I), val.S); err != nil {
				return Value{}, trap(pc, "%v", err)
			}

		case cil.VLoad:
			idx := pop()
			arr := pop()
			if arr.Ref == nil {
				return Value{}, trap(pc, "vload on null array")
			}
			v, err := arr.Ref.GetVec(int(idx.S.I))
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			push(VecValue(v))
		case cil.VStore:
			vec := pop()
			idx := pop()
			arr := pop()
			if arr.Ref == nil {
				return Value{}, trap(pc, "vstore on null array")
			}
			if err := arr.Ref.SetVec(int(idx.S.I), vec.Vec); err != nil {
				return Value{}, trap(pc, "%v", err)
			}
		case cil.VAdd, cil.VSub, cil.VMul, cil.VMax, cil.VMin:
			b := pop()
			a := pop()
			r, err := prim.VecBinary(in.Op, in.Kind, a.Vec, b.Vec)
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			push(VecValue(r))
		case cil.VSplat:
			a := pop()
			var v prim.Vec
			prim.VecSplat(&v, in.Kind, a.S)
			push(VecValue(v))
		case cil.VRedAdd, cil.VRedMax, cil.VRedMin:
			a := pop()
			r, err := prim.VecReduce(in.Op, in.Kind, a.Vec)
			if err != nil {
				return Value{}, trap(pc, "%v", err)
			}
			push(scalarValue(cil.ReduceKind(in.Op, in.Kind), r))

		default:
			return Value{}, trap(pc, "unimplemented opcode %s", in.Op)
		}
		pc = next
	}
}

// scalarValue wraps a prim.Scalar as a stack Value of the given kind.
func scalarValue(k cil.Kind, s prim.Scalar) Value {
	sk := k.StackKind()
	if sk.IsFloat() {
		return Value{Kind: sk, S: s}
	}
	return Value{Kind: sk, S: prim.Scalar{I: prim.Normalize(sk, s.I)}}
}

func arrGet(arr Value, idx int) (prim.Scalar, error) {
	if arr.Ref == nil {
		return prim.Scalar{}, fmt.Errorf("load from null array")
	}
	return arr.Ref.Get(idx)
}

// zeroValue returns the zero value for a declared slot type.
func zeroValue(t cil.Type) Value {
	switch {
	case t.IsArray():
		return Value{Kind: cil.Ref}
	case t.Kind == cil.Vec:
		return Value{Kind: cil.Vec}
	case t.Kind.IsFloat():
		return FloatValue(t.Kind, 0)
	default:
		return IntValue(t.Kind, 0)
	}
}

// coerce adapts a value to a declared slot type, normalizing narrow integers
// and checking array element kinds.
func coerce(v Value, t cil.Type) (Value, error) {
	switch {
	case t.IsArray():
		if v.Kind != cil.Ref {
			return Value{}, fmt.Errorf("expected %s, got %s", t, v.Kind)
		}
		if v.Ref != nil && v.Ref.Elem != t.Elem {
			return Value{}, fmt.Errorf("expected %s, got %s[]", t, v.Ref.Elem)
		}
		return v, nil
	case t.Kind == cil.Vec:
		if v.Kind != cil.Vec {
			return Value{}, fmt.Errorf("expected vec, got %s", v.Kind)
		}
		return v, nil
	case t.Kind.IsFloat():
		if !v.Kind.IsFloat() {
			return Value{}, fmt.Errorf("expected %s, got %s", t, v.Kind)
		}
		return FloatValue(t.Kind, v.S.F), nil
	case t.Kind.IsInteger() || t.Kind == cil.Bool:
		if !v.Kind.IsInteger() && v.Kind != cil.Bool {
			return Value{}, fmt.Errorf("expected %s, got %s", t, v.Kind)
		}
		return IntValue(t.Kind.StackKind(), prim.Normalize(t.Kind, v.S.I)), nil
	default:
		return Value{}, fmt.Errorf("unsupported slot type %s", t)
	}
}
