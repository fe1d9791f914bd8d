package minic

import (
	"strings"
	"testing"

	"repro/internal/cil"
)

const saxpySrc = `
// saxpy: y = a*x + y
void saxpy(f64 y[], f64 x[], f64 a, i32 n) {
    for (i32 i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
    }
}
`

func TestParseSaxpy(t *testing.T) {
	prog, err := Parse(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("saxpy")
	if f == nil {
		t.Fatal("saxpy not found")
	}
	if len(f.Params) != 4 {
		t.Fatalf("params = %d, want 4", len(f.Params))
	}
	if f.Params[0].Type != cil.Array(cil.F64) || f.Params[2].Type != cil.Scalar(cil.F64) {
		t.Errorf("param types wrong: %v", f.Params)
	}
	if f.Ret.Kind != cil.Void {
		t.Error("return type should be void")
	}
	if len(f.Body.Stmts) != 1 {
		t.Fatalf("body statements = %d, want 1", len(f.Body.Stmts))
	}
	loop, ok := f.Body.Stmts[0].(*ForStmt)
	if !ok {
		t.Fatalf("expected for loop, got %T", f.Body.Stmts[0])
	}
	if _, ok := loop.Init.(*DeclStmt); !ok {
		t.Errorf("loop init is %T, want DeclStmt", loop.Init)
	}
	if _, ok := loop.Post.(*AssignStmt); !ok {
		t.Errorf("loop post is %T, want AssignStmt (i++ desugars)", loop.Post)
	}
	asg, ok := loop.Body.Stmts[0].(*AssignStmt)
	if !ok {
		t.Fatalf("loop body stmt is %T", loop.Body.Stmts[0])
	}
	if _, ok := asg.LHS.(*IndexExpr); !ok {
		t.Errorf("assignment LHS is %T, want IndexExpr", asg.LHS)
	}
}

func TestParseParamSuffixArray(t *testing.T) {
	prog, err := Parse("i32 first(u8 a[]) { return a[0]; }")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Funcs[0].Params[0].Type != cil.Array(cil.U8) {
		t.Errorf("suffix array param type = %v", prog.Funcs[0].Params[0].Type)
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse("i32 f(i32 a, i32 b, i32 c) { return a + b * c; }")
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	add, ok := ret.Value.(*BinaryExpr)
	if !ok || add.Op != OpAdd {
		t.Fatalf("top-level operator should be +, got %v", ret.Value)
	}
	mul, ok := add.R.(*BinaryExpr)
	if !ok || mul.Op != OpMul {
		t.Fatalf("right operand of + should be *, got %T", add.R)
	}
}

func TestParseCastVsParen(t *testing.T) {
	prog, err := Parse("f64 f(i32 x) { return (f64) x * (x + 1); }")
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	mul := ret.Value.(*BinaryExpr)
	if _, ok := mul.L.(*CastExpr); !ok {
		t.Errorf("left operand should be a cast, got %T", mul.L)
	}
	if _, ok := mul.R.(*BinaryExpr); !ok {
		t.Errorf("right operand should be a parenthesized sum, got %T", mul.R)
	}
}

func TestParseControlFlowAndCompound(t *testing.T) {
	src := `
i32 f(i32 n) {
    i32 s = 0;
    i32 i = 0;
    while (i < n) {
        if (i % 2 == 0) s += i; else s -= 1;
        i++;
    }
    s *= 2;
    return s;
}
u8 g(u8 a[], i64 x, u64 y, f32 z, i16 w, u16 v, i8 q, bool flag) {
    if (flag && x > 0 || !(y == 0)) { return a[0]; }
    return (u8) (z + 1.0);
}
void h(i32 n) {
    i32 tmp[] = new i32[n];
    tmp[0] = len(tmp);
    f(~n << 1 >> 1);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 3 {
		t.Fatalf("parsed %d functions, want 3", len(prog.Funcs))
	}
	if prog.Func("missing") != nil {
		t.Error("Func should return nil for unknown name")
	}
	// h's first statement declares an array local via new.
	h := prog.Func("h")
	decl := h.Body.Stmts[0].(*DeclStmt)
	if decl.Typ != cil.Array(cil.I32) {
		t.Errorf("array local type = %v", decl.Typ)
	}
	if _, ok := decl.Init.(*NewArrayExpr); !ok {
		t.Errorf("array local init = %T, want NewArrayExpr", decl.Init)
	}
	asg := h.Body.Stmts[1].(*AssignStmt)
	if _, ok := asg.RHS.(*LenExpr); !ok {
		t.Errorf("len call should parse to LenExpr, got %T", asg.RHS)
	}
	if _, ok := h.Body.Stmts[2].(*ExprStmt); !ok {
		t.Errorf("call statement should be ExprStmt, got %T", h.Body.Stmts[2])
	}
}

func TestParseSingleStatementBodies(t *testing.T) {
	prog, err := Parse("i32 f(i32 n) { if (n > 0) return 1; else return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	ifs := prog.Funcs[0].Body.Stmts[0].(*IfStmt)
	if len(ifs.Then.Stmts) != 1 || len(ifs.Else.Stmts) != 1 {
		t.Error("single-statement branches should be wrapped in blocks")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing paren":       "i32 f( { return 0; }",
		"missing semi":        "i32 f() { return 0 }",
		"bad toplevel":        "return 1;",
		"assign to rvalue":    "void f() { 1 = 2; }",
		"assign to call":      "i32 f() { f() = 2; return 0; }",
		"unterminated block":  "void f() { ",
		"void array type":     "void f(void x[]) { }",
		"bad expression":      "i32 f() { return +; }",
		"new needs elem type": "void f() { i32 a[] = new [4]; }",
		"double array param":  "void f(i32[] a[]) { }",
		"incr of rvalue":      "void f() { (1+2)++; }",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse(%q) should fail", name, src)
		} else if !strings.Contains(err.Error(), "minic:") {
			t.Errorf("%s: error %q should carry a position", name, err)
		}
	}
}

func TestParseForVariants(t *testing.T) {
	// Empty init/cond/post must parse.
	prog, err := Parse("void f(i32 n) { i32 i = 0; for (;;) { i++; if (i >= n) return; } }")
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Funcs[0].Body.Stmts[1].(*ForStmt)
	if loop.Init != nil || loop.Cond != nil || loop.Post != nil {
		t.Error("empty for clauses should be nil")
	}
	// Assignment init without declaration.
	prog, err = Parse("void g(i32 n) { i32 i; for (i = 0; i < n; i += 2) { } }")
	if err != nil {
		t.Fatal(err)
	}
	loop = prog.Funcs[0].Body.Stmts[1].(*ForStmt)
	if _, ok := loop.Init.(*AssignStmt); !ok {
		t.Errorf("for init = %T, want AssignStmt", loop.Init)
	}
}

// TestParseReportsFirstErrorInSourceOrder: the parser pulls tokens as it
// goes, so an error it meets first is the one reported. A syntax error
// before a lexical error wins; a lexical error before any syntax error wins.
func TestParseReportsFirstErrorInSourceOrder(t *testing.T) {
	cases := []struct{ src, want string }{
		{"i32 f( { return 1; } $", `minic: 1:8: expected a type, found {`},
		{"i32 f() { return 1 $ }", `minic: 1:20: unexpected character "$"`},
		{"void f() { i32 x = 'ab'; }", `minic: 1:20: unterminated character literal`},
		{"void f() { $ }", `minic: 1:12: unexpected character "$"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestParseAllocatesPerNodeNotPerToken: whitespace, comments, the length of
// identifiers and redundant parentheses change the text or the token stream
// and not the tree, so they must not change what parsing allocates.
func TestParseAllocatesPerNodeNotPerToken(t *testing.T) {
	plain := "i32 f(i32 n, i32 a[]) { i32 s = 0; for (i32 i = 0; i < n; i++) { s += a[i] * 3; } return s; }"
	padded := `
/* The same function, spread out and commented. */
i32   sum_times_three  ( i32 element_count ,   i32 values_to_sum [ ] )
{
    // running total
    i32   running_total   =   0 ;
    for ( i32 position = 0 ;  position < element_count ;  position ++ )
    {
        running_total  +=  values_to_sum [ position ]  *  3 ;   /* scaled */
    }
    return   running_total ;
}
`
	parens := "i32 f(i32 n, i32 a[]) { i32 s = ((((0)))); for (i32 i = (0); ((i) < (n)); i++) { s += ((a[(i)])) * ((3)); } return (s); }"
	// One parser throughout, as the pool hands a warm one to Parse; the
	// pool itself may drop parsers at any time (the race detector makes it).
	var p parser
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := p.parse(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := allocs(plain)
	for name, src := range map[string]string{"padded": padded, "parenthesized": parens} {
		if got := allocs(src); got != want {
			t.Errorf("Parse allocates %v objects for the plain source and %v for the %s one", want, got, name)
		}
	}
}
