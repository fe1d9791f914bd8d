package minic

import (
	"strings"
	"sync"

	"repro/internal/cil"
)

// Parse lexes and parses a MiniC translation unit (after a UTF-8 byte-order
// mark, if any) in one pass: the parser pulls tokens from the lexer as it
// needs them, at most two ahead, and no token list is built. So it reports
// the first error in source order, lexical or syntactic.
func Parse(src string) (*Program, error) {
	p := parsers.Get().(*parser)
	defer parsers.Put(p)
	return p.parse(strings.TrimPrefix(src, "\xef\xbb\xbf"))
}

func (p *parser) parse(src string) (*Program, error) {
	p.reset(src)
	defer p.reset("")
	p.lex(&p.tok)
	prog, err := p.parseProgram()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

type parser struct {
	lx       Lexer
	tok      Token // the current token
	ahead    Token // the next one, pulled by peek while hasAhead
	hasAhead bool
	lexErr   error // the lexer's error: the stream ends there, and Parse reports it

	// Lists under construction sit on top of these stacks until their
	// closing token, then move to exactly sized slices (see collect).
	funcs  []*FuncDecl
	params []Param
	stmts  []Stmt
	exprs  []Expr
}

// parsers recycles parsers, so that a warm one's list stacks never grow.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// reset readies p for src, dropping what a failed parse left on its stacks.
func (p *parser) reset(src string) {
	clear(p.funcs)
	clear(p.params)
	clear(p.stmts)
	clear(p.exprs)
	*p = parser{lx: Lexer{src: src, line: 1, col: 1},
		funcs: p.funcs[:0], params: p.params[:0], stmts: p.stmts[:0], exprs: p.exprs[:0]}
}

// collect pops the list on *stack from start into a slice of its exact
// size, nil when it is empty.
func collect[T any](stack *[]T, start int) []T {
	s := *stack
	var out []T
	if len(s) > start {
		out = make([]T, len(s)-start)
		copy(out, s[start:])
	}
	clear(s[start:])
	*stack = s[:start]
	return out
}

// lex pulls the next token from the lexer into t.
func (p *parser) lex(t *Token) {
	if p.lexErr == nil {
		p.lexErr = p.lx.Next(t)
	}
	if p.lexErr != nil {
		*t = Token{} // end of file
	}
}

func (p *parser) next() Token {
	t := p.tok
	if p.hasAhead {
		p.tok, p.hasAhead = p.ahead, false
	} else {
		p.lex(&p.tok)
	}
	return t
}

// peek returns the token after the current one.
func (p *parser) peek() Token {
	if !p.hasAhead {
		p.lex(&p.ahead)
		p.hasAhead = true
	}
	return p.ahead
}

func (p *parser) at(k TokKind) bool { return p.tok.Kind == k }

func (p *parser) accept(k TokKind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	return p.next(), nil
}

func (p *parser) parseProgram() (*Program, error) {
	for !p.at(TokEOF) {
		f, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		p.funcs = append(p.funcs, f)
	}
	return &Program{Funcs: collect(&p.funcs, 0)}, nil
}

// typeKinds maps each type keyword to its cil.Kind.
var typeKinds = [...]cil.Kind{
	TokKwVoid: cil.Void, TokKwBool: cil.Bool, TokKwI8: cil.I8, TokKwU8: cil.U8,
	TokKwI16: cil.I16, TokKwU16: cil.U16, TokKwI32: cil.I32, TokKwU32: cil.U32,
	TokKwI64: cil.I64, TokKwU64: cil.U64, TokKwF32: cil.F32, TokKwF64: cil.F64,
}

// parseType parses "kw" optionally followed by "[]" (array-of-kw).
func (p *parser) parseType() (cil.Type, error) {
	t := p.tok
	if !t.Kind.IsTypeKeyword() {
		return cil.Type{}, errf(t.Pos, "expected a type, found %s", t)
	}
	p.next()
	k := typeKinds[t.Kind]
	if p.at(TokLBracket) && p.peek().Kind == TokRBracket {
		p.next()
		p.next()
		if k == cil.Void {
			return cil.Type{}, errf(t.Pos, "void[] is not a valid type")
		}
		return cil.Array(k), nil
	}
	return cil.Scalar(k), nil
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	start := p.tok.Pos
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for !p.at(TokRParen) {
		if len(p.params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		pt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if pt, err = p.arraySuffix(pt, pn, "parameter"); err != nil {
			return nil, err
		}
		p.params = append(p.params, Param{Pos: pn.Pos, Name: pn.Text, Type: pt})
	}
	params := collect(&p.params, 0)
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Pos: start, Name: nameTok.Text, Params: params, Ret: ret, Body: body}, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	start := len(p.stmts)
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.next()
	return &BlockStmt{Pos: lb.Pos, Stmts: collect(&p.stmts, start)}, nil
}

// parseBlockOrStmt parses either a braced block or a single statement
// wrapped in a block.
func (p *parser) parseBlockOrStmt() (*BlockStmt, error) {
	if p.at(TokLBrace) {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &BlockStmt{Pos: p.tok.Pos, Stmts: []Stmt{s}}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	var s Stmt
	var err error
	switch t := p.tok; {
	case t.Kind == TokLBrace:
		return p.parseBlock()
	case t.Kind == TokKwIf:
		return p.parseIf()
	case t.Kind == TokKwWhile:
		return p.parseWhile()
	case t.Kind == TokKwFor:
		return p.parseFor()
	case t.Kind.IsTypeKeyword():
		s, err = p.parseDecl()
	case t.Kind == TokKwReturn:
		p.next()
		r := &ReturnStmt{Pos: t.Pos}
		if !p.at(TokSemi) {
			r.Value, err = p.parseExpr()
		}
		s = r
	default:
		s, err = p.parseSimpleStmt()
	}
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return s, nil
}

// arraySuffix parses the C-style suffix form "u8 a[]" after the name of a
// parameter or variable (what) declared with type typ.
func (p *parser) arraySuffix(typ cil.Type, name Token, what string) (cil.Type, error) {
	if !p.at(TokLBracket) || p.peek().Kind != TokRBracket {
		return typ, nil
	}
	p.next()
	p.next()
	if typ.IsArray() {
		return typ, errf(name.Pos, "%s %q declared as array twice", what, name.Text)
	}
	if typ.Kind == cil.Void {
		return typ, errf(name.Pos, "void[] is not a valid type")
	}
	return cil.Array(typ.Kind), nil
}

// parseDecl parses "type ident (= expr)?" without the trailing semicolon.
func (p *parser) parseDecl() (Stmt, error) {
	start := p.tok.Pos
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if typ, err = p.arraySuffix(typ, nameTok, "variable"); err != nil {
		return nil, err
	}
	d := &DeclStmt{Pos: start, Name: nameTok.Text, Typ: typ}
	if p.accept(TokAssign) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	return d, nil
}

// parseParenExpr parses "( expr )".
func (p *parser) parseParenExpr() (Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) parseIf() (Stmt, error) {
	t := p.next()
	cond, err := p.parseParenExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: t.Pos, Cond: cond, Then: then}
	if p.accept(TokKwElse) {
		els, err := p.parseBlockOrStmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	t := p.next()
	cond, err := p.parseParenExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: t.Pos, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &ForStmt{Pos: t.Pos}
	if !p.at(TokSemi) {
		var err error
		if p.tok.Kind.IsTypeKeyword() {
			f.Init, err = p.parseDecl()
		} else {
			f.Init, err = p.parseSimpleStmt()
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokSemi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokRParen) {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// parseSimpleStmt parses an assignment, increment/decrement, compound
// assignment or expression statement (without the trailing semicolon).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	start := p.tok.Pos
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case TokAssign:
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := checkLValue(lhs); err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: start, LHS: lhs, RHS: rhs}, nil
	case TokPlusEq, TokMinusEq, TokStarEq:
		opTok := p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := checkLValue(lhs); err != nil {
			return nil, err
		}
		op := OpAdd
		switch opTok.Kind {
		case TokMinusEq:
			op = OpSub
		case TokStarEq:
			op = OpMul
		}
		return &AssignStmt{Pos: start, LHS: lhs, RHS: &BinaryExpr{Pos: start, Op: op, L: cloneLValue(lhs), R: rhs}}, nil
	case TokPlusPlus, TokMinusMinus:
		opTok := p.next()
		if err := checkLValue(lhs); err != nil {
			return nil, err
		}
		op := OpAdd
		if opTok.Kind == TokMinusMinus {
			op = OpSub
		}
		one := &IntLit{Pos: start, Value: 1}
		return &AssignStmt{Pos: start, LHS: lhs, RHS: &BinaryExpr{Pos: start, Op: op, L: cloneLValue(lhs), R: one}}, nil
	default:
		return &ExprStmt{Pos: start, X: lhs}, nil
	}
}

// checkLValue verifies that an expression can appear on the left of an
// assignment: a variable or an array element.
func checkLValue(e Expr) error {
	switch e.(type) {
	case *Ident, *IndexExpr:
		return nil
	}
	return errf(e.Position(), "expression is not assignable")
}

// cloneLValue builds a fresh read of the same location, used to desugar
// compound assignments (x += e becomes x = x + e).
func cloneLValue(e Expr) Expr {
	switch v := e.(type) {
	case *Ident:
		return &Ident{Pos: v.Pos, Name: v.Name}
	case *IndexExpr:
		return &IndexExpr{Pos: v.Pos, Arr: cloneLValue(v.Arr), Index: v.Index}
	}
	return e
}

// ---- Expressions (precedence climbing) ----

// binOps is the binary operator table, indexed by token kind: precedence
// (0 for tokens that are no binary operator) and the operator.
var binOps = [...]struct {
	prec int
	op   BinOp
}{
	TokOrOr: {1, OpLogOr}, TokAndAnd: {2, OpLogAnd},
	TokPipe: {3, OpOr}, TokCaret: {4, OpXor}, TokAmp: {5, OpAnd},
	TokEq: {6, OpEq}, TokNe: {6, OpNe},
	TokLt: {7, OpLt}, TokLe: {7, OpLe}, TokGt: {7, OpGt}, TokGe: {7, OpGe},
	TokShl: {8, OpShl}, TokShr: {8, OpShr},
	TokPlus: {9, OpAdd}, TokMinus: {9, OpSub},
	TokStar: {10, OpMul}, TokSlash: {10, OpDiv}, TokPercent: {10, OpRem},
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		k := p.tok.Kind
		if int(k) >= len(binOps) || binOps[k].prec == 0 || binOps[k].prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(binOps[k].prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Pos: opTok.Pos, Op: binOps[k].op, L: lhs, R: rhs}
	}
}

// unOps maps each prefix operator token to its operator.
var unOps = [...]UnOp{TokMinus: OpNeg, TokBang: OpNot, TokTilde: OpCompl}

func (p *parser) parseUnary() (Expr, error) {
	t := p.tok
	switch t.Kind {
	case TokMinus, TokBang, TokTilde:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.Pos, Op: unOps[t.Kind], X: x}, nil
	case TokLParen:
		// A cast if the parenthesis is followed by a type keyword.
		if p.peek().Kind.IsTypeKeyword() {
			p.next()
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &CastExpr{Pos: t.Pos, To: typ, X: x}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.tok.Kind {
		case TokLBracket:
			lb := p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			e = &IndexExpr{Pos: lb.Pos, Arr: e, Index: idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.tok
	switch t.Kind {
	case TokIntLit, TokCharLit:
		p.next()
		return &IntLit{Pos: t.Pos, Value: t.Int}, nil
	case TokFloatLit:
		p.next()
		return &FloatLit{Pos: t.Pos, Value: t.Float}, nil
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			p.next()
			start := len(p.exprs)
			for !p.at(TokRParen) {
				if len(p.exprs) > start {
					if _, err := p.expect(TokComma); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				p.exprs = append(p.exprs, a)
			}
			p.next()
			args := collect(&p.exprs, start)
			if t.Text == "len" && len(args) == 1 {
				return &LenExpr{Pos: t.Pos, Arr: args[0]}, nil
			}
			return &CallExpr{Pos: t.Pos, Name: t.Text, Args: args}, nil
		}
		return &Ident{Pos: t.Pos, Name: t.Text}, nil
	case TokLParen:
		return p.parseParenExpr()
	case TokKwNew:
		p.next()
		elemTok := p.tok
		if !elemTok.Kind.IsTypeKeyword() || elemTok.Kind == TokKwVoid {
			return nil, errf(elemTok.Pos, "expected an element type after new, found %s", elemTok)
		}
		p.next()
		if _, err := p.expect(TokLBracket); err != nil {
			return nil, err
		}
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		return &NewArrayExpr{Pos: t.Pos, Elem: typeKinds[elemTok.Kind], Len: n}, nil
	}
	return nil, errf(t.Pos, "unexpected %s in expression", t)
}
