package minic

import (
	"fmt"
	"sync"

	"repro/internal/cil"
)

// Symbol is the resolved storage location of a named variable.
type Symbol struct {
	Name    string
	Type    cil.Type
	IsParam bool
	Index   int // parameter index or local slot index
}

// FuncInfo is the checker's per-function summary used by the optimizer and
// the code generator.
type FuncInfo struct {
	Decl      *FuncDecl
	Locals    []*Symbol // local slots in allocation order
	NumParams int
}

// Checked is a type-checked program: the AST (with every expression
// annotated with its type, every identifier resolved, and implicit
// conversions made explicit) plus per-function symbol information.
type Checked struct {
	Prog  *Program
	Funcs map[string]*FuncInfo
}

// Intrinsic function names recognized by the front end. min and max are the
// portable intrinsics the vectorizer pattern-matches for max/min reductions;
// abs is provided for completeness.
const (
	IntrinsicMin = "min"
	IntrinsicMax = "max"
	IntrinsicAbs = "abs"
)

// IsIntrinsic reports whether name denotes a front-end intrinsic rather than
// a user function.
func IsIntrinsic(name string) bool {
	return name == IntrinsicMin || name == IntrinsicMax || name == IntrinsicAbs
}

// Check type-checks the program.
func Check(prog *Program) (*Checked, error) {
	c := checkers.Get().(*checker)
	defer func() {
		clear(c.locals) // what a failed check left
		*c = checker{scopes: c.scopes, locals: c.locals[:0]}
		checkers.Put(c)
	}()
	c.prog = prog
	c.sigs = make(map[string]*FuncDecl, len(prog.Funcs))
	c.funcs = make(map[string]*FuncInfo, len(prog.Funcs))
	for _, f := range prog.Funcs {
		if IsIntrinsic(f.Name) || f.Name == "len" {
			return nil, errf(f.Pos, "cannot define function %q: the name is reserved for an intrinsic", f.Name)
		}
		if _, dup := c.sigs[f.Name]; dup {
			return nil, errf(f.Pos, "duplicate function %q", f.Name)
		}
		c.sigs[f.Name] = f
	}
	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return nil, err
		}
	}
	return &Checked{Prog: prog, Funcs: c.funcs}, nil
}

type checker struct {
	prog  *Program
	sigs  map[string]*FuncDecl
	funcs map[string]*FuncInfo

	// per-function state
	cur  *FuncDecl
	info *FuncInfo
	// scopes[:depth] are the open scopes, innermost last. A scope is
	// cleared when it closes and its map reused by the next one opened.
	scopes []map[string]*Symbol
	depth  int
	locals []*Symbol // the function's locals until its FuncInfo takes them
}

// checkers recycles checkers, so that a warm one's scope maps and locals
// stack never grow.
var checkers = sync.Pool{New: func() any { return new(checker) }}

func (c *checker) pushScope() {
	if c.depth++; c.depth > len(c.scopes) {
		c.scopes = append(c.scopes, make(map[string]*Symbol))
	}
}

func (c *checker) popScope() { c.depth--; clear(c.scopes[c.depth]) }

func (c *checker) lookup(name string) *Symbol {
	for i := c.depth - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

func (c *checker) declare(pos Pos, name string, typ cil.Type, isParam bool) (*Symbol, error) {
	top := c.scopes[c.depth-1]
	if _, dup := top[name]; dup {
		return nil, errf(pos, "%q redeclared in this scope", name)
	}
	sym := &Symbol{Name: name, Type: typ, IsParam: isParam}
	if isParam {
		sym.Index = c.info.NumParams
		c.info.NumParams++
	} else {
		sym.Index = len(c.locals)
		c.locals = append(c.locals, sym)
	}
	top[name] = sym
	return sym, nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.cur = f
	c.info = &FuncInfo{Decl: f}
	c.funcs[f.Name] = c.info
	c.pushScope()
	defer c.popScope()
	for _, p := range f.Params {
		if c.lookup(p.Name) != nil {
			return errf(p.Pos, "duplicate parameter %q", p.Name)
		}
		if p.Type.Kind == cil.Void {
			return errf(p.Pos, "parameter %q has type void", p.Name)
		}
		if _, err := c.declare(p.Pos, p.Name, p.Type, true); err != nil {
			return err
		}
	}
	if f.Ret.IsArray() {
		return errf(f.Pos, "array return types are not supported")
	}
	if err := c.checkBlock(f.Body); err != nil {
		return err
	}
	c.info.Locals = collect(&c.locals, 0)
	return nil
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return c.checkBlock(st)
	case *DeclStmt:
		if st.Typ.Kind == cil.Void {
			return errf(st.Pos, "variable %q has type void", st.Name)
		}
		if st.Init != nil {
			init, err := c.checkExpr(st.Init)
			if err != nil {
				return err
			}
			conv, err := c.convert(init, st.Typ)
			if err != nil {
				return err
			}
			st.Init = conv
		}
		_, err := c.declare(st.Pos, st.Name, st.Typ, false)
		return err
	case *AssignStmt:
		lhs, err := c.checkExpr(st.LHS)
		if err != nil {
			return err
		}
		st.LHS = lhs
		rhs, err := c.checkExpr(st.RHS)
		if err != nil {
			return err
		}
		if lhs.Type().IsArray() {
			if !rhs.Type().IsArray() || rhs.Type() != lhs.Type() {
				return errf(st.Pos, "cannot assign %s to %s", rhs.Type(), lhs.Type())
			}
			st.RHS = rhs
			return nil
		}
		conv, err := c.convert(rhs, lhs.Type())
		if err != nil {
			return err
		}
		st.RHS = conv
		return nil
	case *IfStmt:
		cond, err := c.checkCond(st.Cond)
		if err != nil {
			return err
		}
		st.Cond = cond
		if err := c.checkBlock(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkBlock(st.Else)
		}
		return nil
	case *WhileStmt:
		cond, err := c.checkCond(st.Cond)
		if err != nil {
			return err
		}
		st.Cond = cond
		return c.checkBlock(st.Body)
	case *ForStmt:
		// The init declaration scopes over cond, post and body.
		c.pushScope()
		defer c.popScope()
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			cond, err := c.checkCond(st.Cond)
			if err != nil {
				return err
			}
			st.Cond = cond
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post); err != nil {
				return err
			}
		}
		return c.checkBlock(st.Body)
	case *ReturnStmt:
		if c.cur.Ret.Kind == cil.Void {
			if st.Value != nil {
				return errf(st.Pos, "void function %q returns a value", c.cur.Name)
			}
			return nil
		}
		if st.Value == nil {
			return errf(st.Pos, "function %q must return a %s value", c.cur.Name, c.cur.Ret)
		}
		v, err := c.checkExpr(st.Value)
		if err != nil {
			return err
		}
		conv, err := c.convert(v, c.cur.Ret)
		if err != nil {
			return err
		}
		st.Value = conv
		return nil
	case *ExprStmt:
		x, err := c.checkExpr(st.X)
		if err != nil {
			return err
		}
		if _, isCall := x.(*CallExpr); !isCall {
			return errf(st.Pos, "expression statement must be a call")
		}
		st.X = x
		return nil
	}
	return fmt.Errorf("minic: unknown statement %T", s)
}

// checkCond checks a condition expression; any numeric or bool type is
// accepted (tested against zero by the code generator).
func (c *checker) checkCond(e Expr) (Expr, error) {
	x, err := c.checkExpr(e)
	if err != nil {
		return nil, err
	}
	t := x.Type()
	if t.IsArray() || t.Kind == cil.Void {
		return nil, errf(e.Position(), "condition has non-scalar type %s", t)
	}
	return x, nil
}

// checkExpr type-checks an expression and returns the (possibly rewritten)
// expression with its type annotation set.
func (c *checker) checkExpr(e Expr) (Expr, error) {
	switch ex := e.(type) {
	case *IntLit:
		ex.setType(cil.Scalar(cil.I32))
		if ex.Value > (1<<31)-1 || ex.Value < -(1<<31) {
			ex.setType(cil.Scalar(cil.I64))
		}
		return ex, nil
	case *FloatLit:
		ex.setType(cil.Scalar(cil.F64))
		return ex, nil
	case *Ident:
		sym := c.lookup(ex.Name)
		if sym == nil {
			return nil, errf(ex.Pos, "undefined variable %q", ex.Name)
		}
		ex.Sym = sym
		ex.setType(sym.Type)
		return ex, nil
	case *UnaryExpr:
		x, err := c.checkExpr(ex.X)
		if err != nil {
			return nil, err
		}
		ex.X = x
		t := x.Type()
		switch ex.Op {
		case OpNeg:
			if !t.Kind.IsNumeric() {
				return nil, errf(ex.Pos, "operator - requires a numeric operand, got %s", t)
			}
			pt := promote(t)
			ex.X, _ = c.convert(x, pt)
			ex.setType(pt)
		case OpNot:
			if t.IsArray() || !t.Kind.IsNumeric() && t.Kind != cil.Bool {
				return nil, errf(ex.Pos, "operator ! requires a scalar operand, got %s", t)
			}
			ex.setType(cil.Scalar(cil.Bool))
		case OpCompl:
			if !t.Kind.IsInteger() {
				return nil, errf(ex.Pos, "operator ~ requires an integer operand, got %s", t)
			}
			pt := promote(t)
			ex.X, _ = c.convert(x, pt)
			ex.setType(pt)
		}
		return ex, nil
	case *BinaryExpr:
		return c.checkBinary(ex)
	case *IndexExpr:
		arr, err := c.checkExpr(ex.Arr)
		if err != nil {
			return nil, err
		}
		if !arr.Type().IsArray() {
			return nil, errf(ex.Pos, "indexing a non-array value of type %s", arr.Type())
		}
		idx, err := c.checkExpr(ex.Index)
		if err != nil {
			return nil, err
		}
		if !idx.Type().Kind.IsInteger() {
			return nil, errf(ex.Pos, "array index must be an integer, got %s", idx.Type())
		}
		idxConv, err := c.convert(idx, cil.Scalar(cil.I32))
		if err != nil {
			return nil, err
		}
		ex.Arr = arr
		ex.Index = idxConv
		ex.setType(cil.Scalar(arr.Type().Elem))
		return ex, nil
	case *CastExpr:
		x, err := c.checkExpr(ex.X)
		if err != nil {
			return nil, err
		}
		ex.X = x
		if ex.To.IsArray() || !ex.To.Kind.IsNumeric() {
			return nil, errf(ex.Pos, "cannot cast to %s", ex.To)
		}
		if !x.Type().Kind.IsNumeric() && x.Type().Kind != cil.Bool {
			return nil, errf(ex.Pos, "cannot cast from %s", x.Type())
		}
		ex.setType(ex.To)
		return ex, nil
	case *LenExpr:
		arr, err := c.checkExpr(ex.Arr)
		if err != nil {
			return nil, err
		}
		if !arr.Type().IsArray() {
			return nil, errf(ex.Pos, "len requires an array argument, got %s", arr.Type())
		}
		ex.Arr = arr
		ex.setType(cil.Scalar(cil.I32))
		return ex, nil
	case *NewArrayExpr:
		n, err := c.checkExpr(ex.Len)
		if err != nil {
			return nil, err
		}
		if !n.Type().Kind.IsInteger() {
			return nil, errf(ex.Pos, "array length must be an integer, got %s", n.Type())
		}
		nc, err := c.convert(n, cil.Scalar(cil.I32))
		if err != nil {
			return nil, err
		}
		ex.Len = nc
		ex.setType(cil.Array(ex.Elem))
		return ex, nil
	case *CallExpr:
		return c.checkCall(ex)
	}
	return nil, fmt.Errorf("minic: unknown expression %T", e)
}

func (c *checker) checkBinary(ex *BinaryExpr) (Expr, error) {
	l, err := c.checkExpr(ex.L)
	if err != nil {
		return nil, err
	}
	r, err := c.checkExpr(ex.R)
	if err != nil {
		return nil, err
	}
	lt, rt := l.Type(), r.Type()
	if ex.Op.IsLogical() {
		if lt.IsArray() || rt.IsArray() {
			return nil, errf(ex.Pos, "operator %s requires scalar operands", ex.Op)
		}
		ex.L, ex.R = l, r
		ex.setType(cil.Scalar(cil.Bool))
		return ex, nil
	}
	if lt.IsArray() || rt.IsArray() || !lt.Kind.IsNumeric() && lt.Kind != cil.Bool || !rt.Kind.IsNumeric() && rt.Kind != cil.Bool {
		return nil, errf(ex.Pos, "operator %s requires numeric operands, got %s and %s", ex.Op, lt, rt)
	}
	switch ex.Op {
	case OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
		if lt.Kind.IsFloat() || rt.Kind.IsFloat() {
			return nil, errf(ex.Pos, "operator %s requires integer operands, got %s and %s", ex.Op, lt, rt)
		}
	}
	if ex.Op == OpShl || ex.Op == OpShr {
		// The result takes the promoted type of the left operand; the shift
		// count is converted to the same type so that the bytecode-level
		// operands agree (the count is masked at run time anyway).
		res := promote(lt)
		ex.L, _ = c.convert(l, res)
		ex.R, _ = c.convert(r, res)
		ex.setType(res)
		return ex, nil
	}
	common := commonType(lt, rt)
	ex.L, _ = c.convert(l, common)
	ex.R, _ = c.convert(r, common)
	if ex.Op.IsComparison() {
		ex.setType(cil.Scalar(cil.Bool))
	} else {
		ex.setType(common)
	}
	return ex, nil
}

func (c *checker) checkCall(ex *CallExpr) (Expr, error) {
	args := ex.Args
	for i, a := range args {
		ca, err := c.checkExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = ca
	}

	if IsIntrinsic(ex.Name) {
		switch ex.Name {
		case IntrinsicMin, IntrinsicMax:
			if len(args) != 2 {
				return nil, errf(ex.Pos, "%s expects 2 arguments, got %d", ex.Name, len(args))
			}
			if !args[0].Type().Kind.IsNumeric() || !args[1].Type().Kind.IsNumeric() {
				return nil, errf(ex.Pos, "%s expects numeric arguments", ex.Name)
			}
			common := commonType(args[0].Type(), args[1].Type())
			ex.Args[0], _ = c.convert(args[0], common)
			ex.Args[1], _ = c.convert(args[1], common)
			ex.setType(common)
		case IntrinsicAbs:
			if len(args) != 1 {
				return nil, errf(ex.Pos, "abs expects 1 argument, got %d", len(args))
			}
			if !args[0].Type().Kind.IsNumeric() {
				return nil, errf(ex.Pos, "abs expects a numeric argument")
			}
			pt := promote(args[0].Type())
			ex.Args[0], _ = c.convert(args[0], pt)
			ex.setType(pt)
		}
		return ex, nil
	}

	callee, ok := c.sigs[ex.Name]
	if !ok {
		return nil, errf(ex.Pos, "call to undefined function %q", ex.Name)
	}
	if len(args) != len(callee.Params) {
		return nil, errf(ex.Pos, "%q expects %d arguments, got %d", ex.Name, len(callee.Params), len(args))
	}
	for i, a := range args {
		want := callee.Params[i].Type
		if want.IsArray() {
			if a.Type() != want {
				return nil, errf(a.Position(), "argument %d of %q must be %s, got %s", i+1, ex.Name, want, a.Type())
			}
			continue
		}
		conv, err := c.convert(a, want)
		if err != nil {
			return nil, err
		}
		ex.Args[i] = conv
	}
	ex.setType(callee.Ret)
	return ex, nil
}

// convert wraps e in a CastExpr when its type differs from the target type.
func (c *checker) convert(e Expr, to cil.Type) (Expr, error) {
	from := e.Type()
	if from == to {
		return e, nil
	}
	if from.IsArray() || to.IsArray() {
		return nil, errf(e.Position(), "cannot convert %s to %s", from, to)
	}
	if (!from.Kind.IsNumeric() && from.Kind != cil.Bool) || (!to.Kind.IsNumeric() && to.Kind != cil.Bool) {
		return nil, errf(e.Position(), "cannot convert %s to %s", from, to)
	}
	cast := &CastExpr{Pos: e.Position(), To: to, X: e}
	cast.setType(to)
	return cast, nil
}

// promote applies the C integer promotions: sub-32-bit integers widen to
// i32, everything else is unchanged.
func promote(t cil.Type) cil.Type {
	switch t.Kind {
	case cil.Bool, cil.I8, cil.I16:
		return cil.Scalar(cil.I32)
	case cil.U8, cil.U16:
		return cil.Scalar(cil.I32) // they fit in i32, as in C
	default:
		return t
	}
}

// commonType implements the simplified usual arithmetic conversions.
func commonType(a, b cil.Type) cil.Type {
	a, b = promote(a), promote(b)
	ka, kb := a.Kind, b.Kind
	switch {
	case ka == cil.F64 || kb == cil.F64:
		return cil.Scalar(cil.F64)
	case ka == cil.F32 || kb == cil.F32:
		return cil.Scalar(cil.F32)
	}
	// A 64-bit operand makes the result 64-bit, and an unsigned operand of
	// the result's width makes it unsigned.
	wide := ka == cil.I64 || ka == cil.U64 || kb == cil.I64 || kb == cil.U64
	unsigned := func(k cil.Kind) bool { return k == cil.U64 || !wide && k == cil.U32 }
	switch {
	case wide && (unsigned(ka) || unsigned(kb)):
		return cil.Scalar(cil.U64)
	case wide:
		return cil.Scalar(cil.I64)
	case unsigned(ka) || unsigned(kb):
		return cil.Scalar(cil.U32)
	}
	return cil.Scalar(cil.I32)
}
