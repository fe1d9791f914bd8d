package minic

import "strconv"

// Lexer turns MiniC source text into a token stream, one token per Next:
// tokens are produced as the parser asks for them, and never held in a list.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over the given source text.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// punct maps each one-byte token that no second byte can extend to its
// kind; TokEOF marks bytes that start no such token.
var punct = [...]TokKind{
	'(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace,
	'[': TokLBracket, ']': TokRBracket, ',': TokComma, ';': TokSemi,
	'/': TokSlash, '%': TokPercent, '^': TokCaret, '~': TokTilde,
}

// Next reads the next token into t: the parser's own token, so that a token
// is written once, where it is read.
func (lx *Lexer) Next(t *Token) error {
	if err := lx.skipSpaceAndComments(); err != nil {
		return err
	}
	*t = Token{Pos: lx.pos()}
	if lx.off >= len(lx.src) {
		return nil
	}
	c := lx.peek()
	switch {
	case isLetter(c):
		lx.lexIdent(t)
		return nil
	case isDigit(c) || (c == '.' && isDigit(lx.peek2())):
		return lx.lexNumber(t)
	case c == '\'':
		return lx.lexChar(t)
	}
	lx.advance()
	switch c {
	case '+':
		t.Kind = lx.follow2('+', TokPlusPlus, '=', TokPlusEq, TokPlus)
	case '-':
		t.Kind = lx.follow2('-', TokMinusMinus, '=', TokMinusEq, TokMinus)
	case '<':
		t.Kind = lx.follow2('<', TokShl, '=', TokLe, TokLt)
	case '>':
		t.Kind = lx.follow2('>', TokShr, '=', TokGe, TokGt)
	case '*':
		t.Kind = lx.follow('=', TokStarEq, TokStar)
	case '&':
		t.Kind = lx.follow('&', TokAndAnd, TokAmp)
	case '|':
		t.Kind = lx.follow('|', TokOrOr, TokPipe)
	case '=':
		t.Kind = lx.follow('=', TokEq, TokAssign)
	case '!':
		t.Kind = lx.follow('=', TokNe, TokBang)
	default:
		if int(c) < len(punct) {
			t.Kind = punct[c]
		}
		if t.Kind == TokEOF {
			return errf(t.Pos, "unexpected character %q", string(c))
		}
	}
	return nil
}

// follow consumes next and returns ifTwo when next is the following byte,
// and returns ifOne otherwise.
func (lx *Lexer) follow(next byte, ifTwo, ifOne TokKind) TokKind {
	if lx.peek() == next {
		lx.advance()
		return ifTwo
	}
	return ifOne
}

// follow2 is follow with two candidate second bytes.
func (lx *Lexer) follow2(a byte, ifA TokKind, b byte, ifB, ifOne TokKind) TokKind {
	if lx.peek() == a {
		lx.advance()
		return ifA
	}
	return lx.follow(b, ifB, ifOne)
}

// lexIdent reads an identifier or keyword. It holds no newline, so the
// column moves by its length.
func (lx *Lexer) lexIdent(t *Token) {
	start := lx.off
	for lx.off < len(lx.src) && (isLetter(lx.src[lx.off]) || isDigit(lx.src[lx.off])) {
		lx.off++
	}
	lx.col += lx.off - start
	t.Text = lx.src[start:lx.off]
	t.Kind = keyword(t.Text)
}

// keyword returns the kind of the keyword spelled text, or TokIdent. The
// compiler turns the switch into a search on the length and the bytes of
// text, which costs a fraction of a map lookup.
func keyword(text string) TokKind {
	switch text {
	case "if":
		return TokKwIf
	case "else":
		return TokKwElse
	case "while":
		return TokKwWhile
	case "for":
		return TokKwFor
	case "return":
		return TokKwReturn
	case "new":
		return TokKwNew
	case "void":
		return TokKwVoid
	case "bool":
		return TokKwBool
	case "i8":
		return TokKwI8
	case "u8":
		return TokKwU8
	case "i16":
		return TokKwI16
	case "u16":
		return TokKwU16
	case "i32":
		return TokKwI32
	case "u32":
		return TokKwU32
	case "i64":
		return TokKwI64
	case "u64":
		return TokKwU64
	case "f32":
		return TokKwF32
	case "f64":
		return TokKwF64
	}
	return TokIdent
}

func (lx *Lexer) lexNumber(t *Token) error {
	start := lx.off
	isFloat := false
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return errf(t.Pos, "bad hexadecimal literal %q", text)
		}
		t.Kind, t.Text, t.Int = TokIntLit, text, int64(v)
		return nil
	}
	for lx.off < len(lx.src) {
		c := lx.peek()
		if isDigit(c) {
			lx.advance()
			continue
		}
		if c == '.' && !isFloat {
			isFloat = true
			lx.advance()
			continue
		}
		if (c == 'e' || c == 'E') && lx.off > start {
			isFloat = true
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			continue
		}
		break
	}
	text := lx.src[start:lx.off]
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return errf(t.Pos, "bad float literal %q", text)
		}
		t.Kind, t.Text, t.Float = TokFloatLit, text, v
		return nil
	}
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		return errf(t.Pos, "bad integer literal %q", text)
	}
	t.Kind, t.Text, t.Int = TokIntLit, text, int64(v)
	return nil
}

func (lx *Lexer) lexChar(t *Token) error {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return errf(t.Pos, "unterminated character literal")
	}
	var v byte
	c := lx.advance()
	if c == '\\' {
		if lx.off >= len(lx.src) {
			return errf(t.Pos, "unterminated character literal")
		}
		esc := lx.advance()
		switch esc {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case 'r':
			v = '\r'
		case '0':
			v = 0
		case '\\', '\'':
			v = esc
		default:
			return errf(t.Pos, "unknown escape \\%s", string(esc))
		}
	} else {
		v = c
	}
	if lx.off >= len(lx.src) || lx.peek() != '\'' {
		return errf(t.Pos, "unterminated character literal")
	}
	lx.advance()
	t.Kind, t.Text, t.Int = TokCharLit, string(v), int64(v)
	return nil
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}
