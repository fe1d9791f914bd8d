// Package minic implements the offline compiler front end for MiniC, the C
// subset used to express the paper's kernels and applications: scalar
// numeric types, one-dimensional arrays, functions, loops and conditionals.
//
// MiniC stands in for the C front end of GCC in the paper's toolchain: the
// offline compiler parses and type-checks MiniC, the optimizer
// (internal/opt) analyzes and annotates its loops, and the offline code
// generator (internal/codegen) lowers it to the portable bytecode.
package minic

import "fmt"

// TokKind classifies a lexical token.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokFloatLit
	TokCharLit

	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokComma
	TokSemi
	TokAssign     // =
	TokPlus       // +
	TokMinus      // -
	TokStar       // *
	TokSlash      // /
	TokPercent    // %
	TokAmp        // &
	TokPipe       // |
	TokCaret      // ^
	TokShl        // <<
	TokShr        // >>
	TokLt         // <
	TokLe         // <=
	TokGt         // >
	TokGe         // >=
	TokEq         // ==
	TokNe         // !=
	TokAndAnd     // &&
	TokOrOr       // ||
	TokBang       // !
	TokTilde      // ~
	TokPlusPlus   // ++
	TokMinusMinus // --
	TokPlusEq     // +=
	TokMinusEq    // -=
	TokStarEq     // *=

	// Keywords.
	TokKwIf
	TokKwElse
	TokKwWhile
	TokKwFor
	TokKwReturn
	TokKwNew
	// Type keywords, TokKwVoid to TokKwF64 (see IsTypeKeyword).
	TokKwVoid
	TokKwBool
	TokKwI8
	TokKwU8
	TokKwI16
	TokKwU16
	TokKwI32
	TokKwU32
	TokKwI64
	TokKwU64
	TokKwF32
	TokKwF64
)

var tokNames = [...]string{
	TokEOF: "end of file", TokIdent: "identifier", TokIntLit: "integer literal",
	TokFloatLit: "float literal", TokCharLit: "char literal",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokComma: ",", TokSemi: ";",
	TokAssign: "=", TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/",
	TokPercent: "%", TokAmp: "&", TokPipe: "|", TokCaret: "^",
	TokShl: "<<", TokShr: ">>", TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokEq: "==", TokNe: "!=", TokAndAnd: "&&", TokOrOr: "||",
	TokBang: "!", TokTilde: "~", TokPlusPlus: "++", TokMinusMinus: "--",
	TokPlusEq: "+=", TokMinusEq: "-=", TokStarEq: "*=",
	TokKwIf: "if", TokKwElse: "else", TokKwWhile: "while", TokKwFor: "for",
	TokKwReturn: "return", TokKwNew: "new", TokKwVoid: "void", TokKwBool: "bool",
	TokKwI8: "i8", TokKwU8: "u8", TokKwI16: "i16", TokKwU16: "u16",
	TokKwI32: "i32", TokKwU32: "u32", TokKwI64: "i64", TokKwU64: "u64",
	TokKwF32: "f32", TokKwF64: "f64",
}

func (k TokKind) String() string {
	if k >= 0 && int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// IsTypeKeyword reports whether the token kind names a MiniC type.
func (k TokKind) IsTypeKeyword() bool { return k >= TokKwVoid && k <= TokKwF64 }

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token with its source position and literal payload.
type Token struct {
	Kind  TokKind
	Pos   Pos
	Text  string  // identifier text or raw literal text
	Int   int64   // value for TokIntLit and TokCharLit
	Float float64 // value for TokFloatLit
}

func (t Token) String() string {
	switch t.Kind {
	case TokIdent, TokIntLit, TokFloatLit, TokCharLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// Error is a front-end diagnostic with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("minic: %s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
