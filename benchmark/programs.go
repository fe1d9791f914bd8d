package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

// The seeded MiniC program generator. Every program is a list of methods
// instantiated from four templates with seeded constants, so each module's
// content hash is distinct and no engine cache can serve one program's
// image for another. Each template has a native Go twin (method.eval): the
// expected result of a run never comes from the compiler under test or from
// the repository's own interpreter.

type methodKind int

const (
	// polyLoop: s = c0; for i in 1..n: s += (i64)(i*c1) + c2.
	polyLoop methodKind = iota
	// xorLoop: s = c0; for i in 0..n-1: s = (s ^ ((i64)i * c1)) + c2.
	xorLoop
	// arrayLoop fills, maps and reduces freshly allocated arrays: the shape
	// the offline vectorizer fires on. It grows the guest's bump-only heap
	// on every call, so only run-once workloads generate it.
	arrayLoop
	// callThrough: return m<callee>(n) * c1 + c2.
	callThrough
	// entrySum: return the sum of up to three earlier methods at n.
	entrySum
)

type method struct {
	kind       methodKind
	c0, c1, c2 int64
	callees    []int
}

// program is one generated module: its source and what is needed to predict
// a run of its entry point.
type program struct {
	name    string
	class   string // "small", "medium", "large" or "serve"
	methods []method
	entry   string
	src     string
}

// shapes is the cycle of templates a program's methods are taken from: 7
// polynomial loops, 7 xor loops, 3 array loops and 3 call-throughs in 20.
var shapes = [20]methodKind{
	polyLoop, xorLoop, arrayLoop, polyLoop, xorLoop, callThrough, xorLoop, polyLoop, xorLoop, polyLoop,
	arrayLoop, xorLoop, polyLoop, callThrough, polyLoop, xorLoop, arrayLoop, polyLoop, xorLoop, callThrough,
}

// genProgram builds program number idx of its class, with n methods. Its
// shape — the template of each method and whom it calls — follows from idx
// and n alone, so a set costs the same to compile and to run whatever the
// seed; r draws only the constants. The last method is the entry point;
// with n > 1 it sums up to three earlier methods, so a run touches several
// methods while the JIT still compiles all of them.
func genProgram(r *rand.Rand, name, class string, idx, n int, arrays bool) *program {
	p := &program{name: name, class: class}
	for i := 0; i < n; i++ {
		m := method{kind: shapes[(idx*7+i)%len(shapes)], c0: r.Int63n(1 << 20), c1: 1 + r.Int63n(1<<16), c2: r.Int63n(1 << 12)}
		switch {
		case i == n-1 && n > 1:
			m.kind = entrySum
			for j := 0; j < 3 && j < i; j++ {
				m.callees = append(m.callees, (idx*5+j*(i/3+1))%i)
			}
		case m.kind == callThrough && i == 0:
			m.kind = polyLoop
		case m.kind == callThrough:
			m.callees = []int{(idx + i*3) % i}
			m.c1 = 1 + r.Int63n(7)
		case m.kind == arrayLoop && !arrays:
			m.kind = xorLoop
		case m.kind == arrayLoop:
			m.c0, m.c1, m.c2 = 1+r.Int63n(15), 1+r.Int63n(1000), r.Int63n(1000)
		}
		p.methods = append(p.methods, m)
	}
	p.entry = fmt.Sprintf("m%d", n-1)
	p.src = p.source()
	return p
}

func (p *program) source() string {
	var b strings.Builder
	for i, m := range p.methods {
		fmt.Fprintf(&b, "i64 m%d(i32 n) {\n", i)
		switch m.kind {
		case polyLoop:
			fmt.Fprintf(&b, "    i64 s = %d;\n", m.c0)
			fmt.Fprintf(&b, "    for (i32 i = 1; i <= n; i++) { s = s + (i64) (i * %d) + %d; }\n", m.c1, m.c2)
			b.WriteString("    return s;\n")
		case xorLoop:
			fmt.Fprintf(&b, "    i64 s = %d;\n", m.c0)
			fmt.Fprintf(&b, "    for (i32 i = 0; i < n; i++) { s = (s ^ (((i64) i) * %d)) + %d; }\n", m.c1, m.c2)
			b.WriteString("    return s;\n")
		case arrayLoop:
			b.WriteString("    i32 a[] = new i32[n];\n    i32 b[] = new i32[n];\n    u16 c[] = new u16[n];\n")
			fmt.Fprintf(&b, "    for (i32 i = 0; i < n; i++) { a[i] = i * %d + %d; }\n", m.c1, m.c2)
			fmt.Fprintf(&b, "    for (i32 i = 0; i < n; i++) { b[i] = a[i] * %d + a[i]; }\n", m.c0)
			b.WriteString("    for (i32 i = 0; i < n; i++) { c[i] = (u16) b[i]; }\n")
			b.WriteString("    u32 s = 0;\n    for (i32 i = 0; i < n; i++) { s = s + c[i]; }\n")
			b.WriteString("    return (i64) s;\n")
		case callThrough:
			fmt.Fprintf(&b, "    return m%d(n) * %d + %d;\n", m.callees[0], m.c1, m.c2)
		case entrySum:
			terms := make([]string, len(m.callees))
			for j, c := range m.callees {
				terms[j] = fmt.Sprintf("m%d(n)", c)
			}
			fmt.Fprintf(&b, "    return %s;\n", strings.Join(terms, " + "))
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// eval is the native twin: the value a correct run of the entry point at n
// returns, computed with Go's wrapping integer arithmetic.
func (p *program) eval(n int64) int64 { return p.evalMethod(len(p.methods)-1, n) }

func (p *program) evalMethod(i int, n int64) int64 {
	m := p.methods[i]
	switch m.kind {
	case polyLoop:
		s := m.c0
		for i := int64(1); i <= n; i++ {
			s += int64(int32(i)*int32(m.c1)) + m.c2
		}
		return s
	case xorLoop:
		s := m.c0
		for i := int64(0); i < n; i++ {
			s = (s ^ (i * m.c1)) + m.c2
		}
		return s
	case arrayLoop:
		var s uint32
		for i := int64(0); i < n; i++ {
			a := int32(i)*int32(m.c1) + int32(m.c2)
			b := a*int32(m.c0) + a
			s += uint32(uint16(b))
		}
		return int64(s)
	case callThrough:
		return p.evalMethod(m.callees[0], n)*m.c1 + m.c2
	default:
		var s int64
		for _, c := range m.callees {
			s += p.evalMethod(c, n)
		}
		return s
	}
}

// The split_compile program set: 64 small, 24 medium and 8 large modules.
var compileClasses = []struct {
	class   string
	count   int
	methods func(idx int) int
}{
	{"small", 64, func(idx int) int { return 1 + idx%2 }},
	{"medium", 24, func(int) int { return 16 }},
	{"large", 8, func(int) int { return 64 }},
}

// genCompileSet builds the split_compile program set, shrunk by scale (at
// least one program per class survives).
func genCompileSet(seed int64, scale float64) []*program {
	r := rand.New(rand.NewSource(seed))
	var set []*program
	for _, c := range compileClasses {
		count := int(float64(c.count)*scale + 0.5)
		if count < 1 {
			count = 1
		}
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("%s%d_s%d", c.class, i, seed)
			set = append(set, genProgram(r, name, c.class, i, c.methods(i), true))
		}
	}
	return set
}

// genServeProgram builds scalar-only module number idx of the serving
// workloads: one loop, or a second method that calls it.
func genServeProgram(r *rand.Rand, name string, idx int) *program {
	return genProgram(r, name, "serve", idx, 1+idx%2, false)
}

// setHash identifies a program set by content: same seed, same hash.
func setHash(set []*program) string {
	h := sha256.New()
	for _, p := range set {
		h.Write([]byte(p.name))
		h.Write([]byte{0})
		h.Write([]byte(p.src))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
