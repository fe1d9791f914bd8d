package codegen

import (
	"fmt"

	"repro/internal/cil"
	"repro/internal/minic"
)

// genLoadSym pushes the value of a named variable.
func (g *generator) genLoadSym(sym *minic.Symbol) error {
	if sym == nil {
		return fmt.Errorf("codegen: unresolved symbol")
	}
	if sym.IsParam {
		g.b.LoadArg(sym.Index)
		return nil
	}
	slot, ok := g.localSlot[sym]
	if !ok {
		return fmt.Errorf("codegen: no slot for local %q", sym.Name)
	}
	g.b.LoadLocal(slot)
	return nil
}

// genStoreSym pops the top of stack into a named variable.
func (g *generator) genStoreSym(sym *minic.Symbol) error {
	if sym == nil {
		return fmt.Errorf("codegen: unresolved symbol")
	}
	if sym.IsParam {
		g.b.StoreArg(sym.Index)
		return nil
	}
	slot, ok := g.localSlot[sym]
	if !ok {
		return fmt.Errorf("codegen: no slot for local %q", sym.Name)
	}
	g.b.StoreLocal(slot)
	return nil
}

// temp returns a scratch local of the given kind, allocating it on first
// use. Temps never live across sub-expression evaluation, so one per kind is
// enough.
func (g *generator) temp(k cil.Kind) int {
	if slot, ok := g.tempSlot[k]; ok {
		return slot
	}
	slot := g.b.AddLocal(cil.Scalar(k))
	g.tempSlot[k] = slot
	return slot
}

// temp2 returns a second scratch local of the given kind (for two-operand
// intrinsic lowering).
func (g *generator) temp2(k cil.Kind) int {
	key := cil.Kind(uint8(k) | 0x80)
	if slot, ok := g.tempSlot[key]; ok {
		return slot
	}
	slot := g.b.AddLocal(cil.Scalar(k))
	g.tempSlot[key] = slot
	return slot
}

// emitZero pushes the zero value of a scalar kind.
func (g *generator) emitZero(k cil.Kind) {
	if k.IsFloat() {
		g.b.ConstF(k, 0)
	} else {
		g.b.ConstI(k, 0)
	}
}

// genCondValue evaluates a condition and leaves a plain i32 truth value on
// the stack, ready for brtrue/brfalse.
func (g *generator) genCondValue(e minic.Expr) error {
	if err := g.genExpr(e); err != nil {
		return err
	}
	k := e.Type().Kind
	if k.StackKind() == cil.I32 {
		return nil
	}
	g.emitZero(k)
	g.b.OpK(cil.CmpNe, k)
	return nil
}

// genTruth evaluates an expression as a strict 0/1 i32 value.
func (g *generator) genTruth(e minic.Expr) error {
	if err := g.genExpr(e); err != nil {
		return err
	}
	k := e.Type().Kind
	if k == cil.Bool {
		return nil
	}
	g.emitZero(k)
	g.b.OpK(cil.CmpNe, k)
	return nil
}

// binOpcode is the opcode of each arithmetic and comparison operator,
// indexed by operator; the logical operators branch instead and have none.
var binOpcode = [...]cil.Opcode{
	minic.OpAdd: cil.Add, minic.OpSub: cil.Sub, minic.OpMul: cil.Mul,
	minic.OpDiv: cil.Div, minic.OpRem: cil.Rem,
	minic.OpAnd: cil.And, minic.OpOr: cil.Or, minic.OpXor: cil.Xor,
	minic.OpShl: cil.Shl, minic.OpShr: cil.Shr,
	minic.OpEq: cil.CmpEq, minic.OpNe: cil.CmpNe,
	minic.OpLt: cil.CmpLt, minic.OpLe: cil.CmpLe,
	minic.OpGt: cil.CmpGt, minic.OpGe: cil.CmpGe,
}

// genExpr emits code that leaves the expression's value on the stack.
func (g *generator) genExpr(e minic.Expr) error {
	switch ex := e.(type) {
	case *minic.IntLit:
		g.b.ConstI(ex.Type().Kind, ex.Value)
		return nil
	case *minic.FloatLit:
		g.b.ConstF(ex.Type().Kind, ex.Value)
		return nil
	case *minic.Ident:
		return g.genLoadSym(ex.Sym)
	case *minic.IndexExpr:
		if err := g.genExpr(ex.Arr); err != nil {
			return err
		}
		if err := g.genExpr(ex.Index); err != nil {
			return err
		}
		g.b.OpK(cil.LdElem, ex.Type().Kind)
		return nil
	case *minic.LenExpr:
		if err := g.genExpr(ex.Arr); err != nil {
			return err
		}
		g.b.OpK(cil.LdLen, ex.Arr.Type().Elem)
		return nil
	case *minic.NewArrayExpr:
		if err := g.genExpr(ex.Len); err != nil {
			return err
		}
		g.b.OpK(cil.NewArr, ex.Elem)
		return nil
	case *minic.CastExpr:
		if err := g.genExpr(ex.X); err != nil {
			return err
		}
		from := ex.X.Type().Kind
		to := ex.To.Kind
		if from.StackKind() != to.StackKind() || from.StackKind() != to {
			// A conversion is required either when the representation
			// changes or when the target is a narrow kind (truncation).
			g.b.OpK(cil.Conv, to)
		}
		return nil
	case *minic.UnaryExpr:
		return g.genUnary(ex)
	case *minic.BinaryExpr:
		return g.genBinary(ex)
	case *minic.CallExpr:
		return g.genCall(ex)
	}
	return fmt.Errorf("codegen: unknown expression %T", e)
}

func (g *generator) genUnary(ex *minic.UnaryExpr) error {
	switch ex.Op {
	case minic.OpNeg:
		if err := g.genExpr(ex.X); err != nil {
			return err
		}
		g.b.OpK(cil.Neg, ex.Type().Kind)
		return nil
	case minic.OpCompl:
		if err := g.genExpr(ex.X); err != nil {
			return err
		}
		g.b.OpK(cil.Not, ex.Type().Kind)
		return nil
	case minic.OpNot:
		if err := g.genTruth(ex.X); err != nil {
			return err
		}
		g.b.ConstI(cil.I32, 0)
		g.b.OpK(cil.CmpEq, cil.I32)
		return nil
	}
	return fmt.Errorf("codegen: unknown unary operator %v", ex.Op)
}

func (g *generator) genBinary(ex *minic.BinaryExpr) error {
	if ex.Op.IsLogical() {
		return g.genLogical(ex)
	}
	if err := g.genExpr(ex.L); err != nil {
		return err
	}
	if err := g.genExpr(ex.R); err != nil {
		return err
	}
	if ex.Op < 0 || int(ex.Op) >= len(binOpcode) || binOpcode[ex.Op] == cil.Nop {
		return fmt.Errorf("codegen: unknown binary operator %v", ex.Op)
	}
	// A comparison and a shift take the kind of their left operand, the
	// rest the kind of their result.
	kind := ex.Type().Kind
	if ex.Op.IsComparison() || ex.Op == minic.OpShl || ex.Op == minic.OpShr {
		kind = ex.L.Type().Kind
	}
	g.b.OpK(binOpcode[ex.Op], kind)
	return nil
}

// genLogical emits short-circuit && and || with a strict 0/1 result.
func (g *generator) genLogical(ex *minic.BinaryExpr) error {
	short := g.b.NewLabel()
	end := g.b.NewLabel()
	if err := g.genTruth(ex.L); err != nil {
		return err
	}
	if ex.Op == minic.OpLogAnd {
		g.b.BranchFalse(short)
	} else {
		g.b.BranchTrue(short)
	}
	if err := g.genTruth(ex.R); err != nil {
		return err
	}
	g.b.Branch(end)
	g.b.Bind(short)
	if ex.Op == minic.OpLogAnd {
		g.b.ConstI(cil.I32, 0)
	} else {
		g.b.ConstI(cil.I32, 1)
	}
	g.b.Bind(end)
	return nil
}

func (g *generator) genCall(ex *minic.CallExpr) error {
	if minic.IsIntrinsic(ex.Name) {
		return g.genIntrinsic(ex)
	}
	for _, a := range ex.Args {
		if err := g.genExpr(a); err != nil {
			return err
		}
	}
	g.b.CallMethod(ex.Name)
	return nil
}

// genIntrinsic lowers min, max and abs to straight-line compare-and-branch
// code using scratch locals.
func (g *generator) genIntrinsic(ex *minic.CallExpr) error {
	k := ex.Type().Kind
	switch ex.Name {
	case minic.IntrinsicMin, minic.IntrinsicMax:
		if err := g.genExpr(ex.Args[0]); err != nil {
			return err
		}
		if err := g.genExpr(ex.Args[1]); err != nil {
			return err
		}
		g.emitMinMaxFromStack(k, ex.Name == minic.IntrinsicMax)
		return nil
	case minic.IntrinsicAbs:
		if err := g.genExpr(ex.Args[0]); err != nil {
			return err
		}
		tA := g.temp(k)
		neg := g.b.NewLabel()
		end := g.b.NewLabel()
		g.b.StoreLocal(tA)
		g.b.LoadLocal(tA)
		g.emitZero(k)
		g.b.OpK(cil.CmpLt, k)
		g.b.BranchTrue(neg)
		g.b.LoadLocal(tA)
		g.b.Branch(end)
		g.b.Bind(neg)
		g.b.LoadLocal(tA)
		g.b.OpK(cil.Neg, k)
		g.b.Bind(end)
		return nil
	}
	return fmt.Errorf("codegen: unknown intrinsic %q", ex.Name)
}

// emitMinMaxFromStack assumes two values of kind k are on the stack (a below
// b) and replaces them with min(a, b) or max(a, b).
func (g *generator) emitMinMaxFromStack(k cil.Kind, isMax bool) {
	tA := g.temp(k)
	tB := g.temp2(k)
	keepA := g.b.NewLabel()
	end := g.b.NewLabel()
	g.b.StoreLocal(tB)
	g.b.StoreLocal(tA)
	g.b.LoadLocal(tA)
	g.b.LoadLocal(tB)
	if isMax {
		g.b.OpK(cil.CmpGe, k)
	} else {
		g.b.OpK(cil.CmpLe, k)
	}
	g.b.BranchTrue(keepA)
	g.b.LoadLocal(tB)
	g.b.Branch(end)
	g.b.Bind(keepA)
	g.b.LoadLocal(tA)
	g.b.Bind(end)
	return
}
