package minic

import "testing"

// Lex scans the entire input and returns the token stream terminated by a
// TokEOF token, or the first lexical error. The parser never builds such a
// list; the tests use one to look at what Next produces.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		var t Token
		if err := lx.Next(&t); err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestLexBasicTokens(t *testing.T) {
	src := "i32 main() { return 40 + 2; } // comment"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokKwI32, TokIdent, TokLParen, TokRParen, TokLBrace,
		TokKwReturn, TokIntLit, TokPlus, TokIntLit, TokSemi, TokRBrace, TokEOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "<< >> <= >= == != && || ++ -- += -= *= < > = ! ~ & | ^ %"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokShl, TokShr, TokLe, TokGe, TokEq, TokNe, TokAndAnd, TokOrOr,
		TokPlusPlus, TokMinusMinus, TokPlusEq, TokMinusEq, TokStarEq,
		TokLt, TokGt, TokAssign, TokBang, TokTilde, TokAmp, TokPipe, TokCaret, TokPercent, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("0 42 0x1F 3.5 1e3 2.5e-2 .5")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIntLit || toks[0].Int != 0 {
		t.Error("0 mislexed")
	}
	if toks[1].Int != 42 {
		t.Error("42 mislexed")
	}
	if toks[2].Kind != TokIntLit || toks[2].Int != 31 {
		t.Errorf("0x1F mislexed: %+v", toks[2])
	}
	if toks[3].Kind != TokFloatLit || toks[3].Float != 3.5 {
		t.Error("3.5 mislexed")
	}
	if toks[4].Kind != TokFloatLit || toks[4].Float != 1000 {
		t.Error("1e3 mislexed")
	}
	if toks[5].Kind != TokFloatLit || toks[5].Float != 0.025 {
		t.Error("2.5e-2 mislexed")
	}
	if toks[6].Kind != TokFloatLit || toks[6].Float != 0.5 {
		t.Error(".5 mislexed")
	}
}

func TestLexCharLiterals(t *testing.T) {
	toks, err := Lex(`'a' '\n' '\0' '\\'`)
	if err != nil {
		t.Fatal(err)
	}
	wants := []int64{'a', '\n', 0, '\\'}
	for i, w := range wants {
		if toks[i].Kind != TokCharLit || toks[i].Int != w {
			t.Errorf("char literal %d = %+v, want %d", i, toks[i], w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("a /* block\ncomment */ b // line\nc")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 || toks[0].Text != "a" || toks[1].Text != "b" || toks[2].Text != "c" {
		t.Errorf("comments not skipped: %v", toks)
	}
	if toks[2].Pos.Line != 3 {
		t.Errorf("line tracking wrong: %v", toks[2].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{"$", "/* unterminated", "'x", `'\q'`}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("b at %v", toks[1].Pos)
	}
	if (Pos{Line: 2, Col: 3}).String() != "2:3" {
		t.Error("Pos.String format")
	}
}
