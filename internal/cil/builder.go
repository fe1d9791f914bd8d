package cil

import "fmt"

// Label identifies a forward or backward branch target inside a
// MethodBuilder. Labels are bound to instruction positions with Bind.
type Label int

// MethodBuilder assembles a Method instruction by instruction, resolving
// symbolic labels to instruction indices when Finish is called. Finish copies
// the code out at its exact size and Reset starts the next method on the same
// buffers, so a generator that keeps one builder stops growing slices.
type MethodBuilder struct {
	m          *Method
	code       []Instr // the method's code until Finish copies it out
	labelPos   []int   // label -> instruction index, -1 while unbound
	fixups     []fixup // branches waiting for their label position
	finishOnce bool
}

type fixup struct {
	instr int
	label Label
}

// NewMethodBuilder returns a builder for a method with the given signature.
func NewMethodBuilder(name string, params []Type, ret Type) *MethodBuilder {
	return &MethodBuilder{m: NewMethod(name, params, ret)}
}

// Reset starts a new method with the given signature on b's buffers.
func (b *MethodBuilder) Reset(name string, params []Type, ret Type) {
	b.m = NewMethod(name, params, ret)
	b.code, b.labelPos, b.fixups, b.finishOnce = b.code[:0], b.labelPos[:0], b.fixups[:0], false
}

// AddLocal declares a new local variable and returns its index.
func (b *MethodBuilder) AddLocal(t Type) int { return b.m.AddLocal(t) }

// NewLabel allocates a fresh, unbound label.
func (b *MethodBuilder) NewLabel() Label {
	b.labelPos = append(b.labelPos, -1)
	return Label(len(b.labelPos) - 1)
}

// Bind binds the label to the position of the next emitted instruction.
func (b *MethodBuilder) Bind(l Label) {
	b.labelPos[l] = len(b.code)
}

// Emit appends a raw instruction.
func (b *MethodBuilder) Emit(in Instr) *MethodBuilder {
	b.code = append(b.code, in)
	return b
}

// Op emits an instruction with only an opcode.
func (b *MethodBuilder) Op(op Opcode) *MethodBuilder { return b.Emit(Instr{Op: op}) }

// OpK emits a typed instruction (arithmetic, comparison, conversion, array
// or vector operation).
func (b *MethodBuilder) OpK(op Opcode, k Kind) *MethodBuilder {
	return b.Emit(Instr{Op: op, Kind: k})
}

// ConstI emits an integer constant of the given kind.
func (b *MethodBuilder) ConstI(k Kind, v int64) *MethodBuilder {
	return b.Emit(Instr{Op: LdcI, Kind: k, Int: v})
}

// ConstF emits a floating-point constant of the given kind.
func (b *MethodBuilder) ConstF(k Kind, v float64) *MethodBuilder {
	return b.Emit(Instr{Op: LdcF, Kind: k, Float: v})
}

// LoadArg emits ldarg i.
func (b *MethodBuilder) LoadArg(i int) *MethodBuilder {
	return b.Emit(Instr{Op: LdArg, Int: int64(i)})
}

// StoreArg emits starg i.
func (b *MethodBuilder) StoreArg(i int) *MethodBuilder {
	return b.Emit(Instr{Op: StArg, Int: int64(i)})
}

// LoadLocal emits ldloc i.
func (b *MethodBuilder) LoadLocal(i int) *MethodBuilder {
	return b.Emit(Instr{Op: LdLoc, Int: int64(i)})
}

// StoreLocal emits stloc i.
func (b *MethodBuilder) StoreLocal(i int) *MethodBuilder {
	return b.Emit(Instr{Op: StLoc, Int: int64(i)})
}

// Branch emits an unconditional branch to the label.
func (b *MethodBuilder) Branch(l Label) *MethodBuilder { return b.branch(Br, l) }

// BranchTrue emits a branch taken when the popped condition is non-zero.
func (b *MethodBuilder) BranchTrue(l Label) *MethodBuilder { return b.branch(BrTrue, l) }

// BranchFalse emits a branch taken when the popped condition is zero.
func (b *MethodBuilder) BranchFalse(l Label) *MethodBuilder { return b.branch(BrFalse, l) }

func (b *MethodBuilder) branch(op Opcode, l Label) *MethodBuilder {
	b.fixups = append(b.fixups, fixup{instr: len(b.code), label: l})
	return b.Emit(Instr{Op: op, Target: -1})
}

// CallMethod emits a call to the named method.
func (b *MethodBuilder) CallMethod(name string) *MethodBuilder {
	return b.Emit(Instr{Op: Call, Str: name})
}

// Return emits ret.
func (b *MethodBuilder) Return() *MethodBuilder { return b.Op(Ret) }

// Finish resolves all labels and returns the completed method. It returns an
// error if any referenced label was never bound or if finish was already
// called.
func (b *MethodBuilder) Finish() (*Method, error) {
	if b.finishOnce {
		return nil, fmt.Errorf("cil: Finish called twice on builder for %q", b.m.Name)
	}
	b.finishOnce = true
	for _, f := range b.fixups {
		pos := b.labelPos[f.label]
		if pos < 0 {
			return nil, fmt.Errorf("cil: method %q: unbound label %d", b.m.Name, f.label)
		}
		b.code[f.instr].Target = pos
	}
	b.m.Code = append(make([]Instr, 0, len(b.code)), b.code...)
	return b.m, nil
}

// MustFinish is like Finish but panics on error. It is intended for tests
// and internally generated code where an unbound label is a programming bug.
func (b *MethodBuilder) MustFinish() *Method {
	m, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return m
}
