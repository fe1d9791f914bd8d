package nisa_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/nisa"
	"repro/internal/target"
	"repro/internal/wire"
)

// decodeFunc and decodeProgram run the reader-based decoders over a byte
// slice and return what was decoded, what was left, and the reader's error.
func decodeFunc(data []byte) (*nisa.Func, []byte, error) {
	r := wire.NewReader(data)
	f := nisa.DecodeFunc(&r)
	return f, r.Rest(), r.Err()
}

func decodeProgram(data []byte) (*nisa.Program, []byte, error) {
	r := wire.NewReader(data)
	p := nisa.DecodeProgram(&r)
	return p, r.Rest(), r.Err()
}

// callSource exercises what the kernels do not: calls with no, few and many
// arguments (the latter spill into ArgSlots on small register files) and
// float immediates.
const callSource = `
i64 zero() { return 7; }
f64 scale(f64 x) { return x * 2.5 - 0.125; }
i64 wide(i64 a, i64 b, i64 c, i64 d, i64 e, i64 f, i64 g, i64 h, i64 i, i64 j) {
    return a + b * c - d + e * f - g + h * i - j;
}
i64 caller(i64 n) {
    i64 s = zero();
    for (i64 k = 0; k < n; k++) {
        s = s + wide(k, s, k + 1, s + 2, k + 3, s + 4, k + 5, s + 6, k + 7, s + 8);
    }
    return s + (i64) scale((f64) n);
}
`

// compiledPrograms JIT-compiles the round-trip matrix: every kernel (Table 1
// and extras) and callSource × every built-in target × {online, split,
// optimal} register allocation × {SIMD, force-scalarize}.
func compiledPrograms(tb testing.TB) map[string]*nisa.Program {
	tb.Helper()
	sources := map[string]string{"calls": callSource}
	for _, k := range kernels.All() {
		sources[k.Name] = k.Source
	}
	out := make(map[string]*nisa.Program)
	for name, src := range sources {
		res, err := core.CompileOffline(src, core.OfflineOptions{ModuleName: name})
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		for _, tgt := range target.All() {
			for _, mode := range []jit.RegAllocMode{jit.RegAllocOnline, jit.RegAllocSplit, jit.RegAllocOptimal} {
				for _, scalarize := range []bool{false, true} {
					img, err := core.ImageFromVerifiedModule(res.Module, tgt,
						jit.Options{RegAlloc: mode, ForceScalarize: scalarize})
					if err != nil {
						tb.Fatalf("%s on %s: %v", name, tgt.Name, err)
					}
					out[fmt.Sprintf("%s/%s/%v/scalarize=%t", name, tgt.Name, mode, scalarize)] = img.Program
				}
			}
		}
	}
	return out
}

// TestCodecRoundTripsCompiledCode is the identity the disk cache rests on:
// whatever the JIT produces decodes back reflect.DeepEqual (so a warm
// restart runs bit-identical code and tiering's DeepEqual confirmation still
// holds) and re-encodes to the same bytes (so replicas agree on entries).
func TestCodecRoundTripsCompiledCode(t *testing.T) {
	sawArgSlots, sawEmptyArgs, sawFImm, sawVector := false, false, false, false
	for name, prog := range compiledPrograms(t) {
		enc := nisa.AppendProgram(nil, prog)
		got, rest, err := decodeProgram(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", name, len(rest))
		}
		if !reflect.DeepEqual(got, prog) {
			t.Fatalf("%s: decoded program differs from the compiled one", name)
		}
		if again := nisa.AppendProgram(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoding is not byte-identical", name)
		}
		for _, f := range prog.Funcs {
			fenc := nisa.AppendFunc(nil, f)
			fgot, rest, err := decodeFunc(fenc)
			if err != nil || len(rest) != 0 || !reflect.DeepEqual(fgot, f) {
				t.Fatalf("%s: function %s does not round-trip alone (err %v)", name, f.Name, err)
			}
			for _, in := range f.Code {
				sawFImm = sawFImm || in.FImm != 0
				sawVector = sawVector || in.Op.IsVector()
				if c := in.Call; c != nil {
					sawEmptyArgs = sawEmptyArgs || c.Args != nil && len(c.Args) == 0
					for _, s := range c.ArgSlots {
						sawArgSlots = sawArgSlots || s >= 0
					}
				}
			}
		}
	}
	if !sawArgSlots || !sawEmptyArgs || !sawFImm || !sawVector {
		t.Errorf("matrix lost coverage: spilled args %t, empty arg list %t, float immediates %t, vector code %t",
			sawArgSlots, sawEmptyArgs, sawFImm, sawVector)
	}
}

// TestCodecPreservesEdgeValues covers what compiled code rarely contains:
// nil versus empty Args/ArgSlots, NaN payloads and -0 (reflect.DeepEqual is
// blind to both, so the bits are compared), NoReg and virtual registers,
// extreme immediates and every Stats field.
func TestCodecPreservesEdgeValues(t *testing.T) {
	fimms := []uint64{
		math.Float64bits(math.NaN()),
		0x7ff0000000000001, // signalling NaN with a payload
		0xfff8000000abcdef, // negative quiet NaN with a payload
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(-1)),
		1, // smallest denormal
	}
	f := &nisa.Func{
		Name:       "edge",
		Params:     []cil.Type{cil.Scalar(cil.I64), cil.Array(cil.F32)},
		Ret:        cil.Scalar(cil.F64),
		FrameSlots: 3,
		Stats: nisa.Stats{
			SpillSlots: 1, SpillLoads: 2, SpillStores: 3, SpillWeight: math.MaxInt64,
			VectorLowered: 4, VectorScalarized: 5, CompileSteps: math.MinInt64,
		},
	}
	for _, bits := range fimms {
		f.Code = append(f.Code, nisa.Instr{Op: nisa.MovFImm, Kind: cil.F64,
			Rd: nisa.Reg{Class: nisa.ClassFloat, Index: 1}, FImm: math.Float64frombits(bits)})
	}
	f.Code = append(f.Code,
		nisa.Instr{Op: nisa.MovImm, Kind: cil.I64, Rd: nisa.NoReg, Imm: math.MinInt64},
		nisa.Instr{Op: nisa.MovImm, Rd: nisa.Reg{Class: nisa.ClassVec, Index: 65535, Virtual: true}, Imm: math.MaxInt64},
		nisa.Instr{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "g"}},
		nisa.Instr{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "g", Args: []nisa.Reg{}}},
		nisa.Instr{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "g", Args: []nisa.Reg{}, ArgSlots: []int{}}},
		nisa.Instr{Op: nisa.Call, Call: &nisa.CallInfo{Sym: "g", Args: []nisa.Reg{{}, nisa.NoReg}, ArgSlots: []int{-1, 2}}},
		nisa.Instr{Op: nisa.Conv, Kind: cil.F32, SrcKind: cil.U8, Cond: nisa.CondGe},
		nisa.Instr{Op: nisa.BranchCmp, Cond: nisa.CondLt, Target: 1},
		nisa.Instr{Op: nisa.GetArg, Imm: 1},
		nisa.Instr{Op: nisa.SpillStore, Imm: 2},
		nisa.Instr{Op: nisa.Add, Target: -5}, // Target is only a branch target on branches
		nisa.Instr{},
	)
	enc := nisa.AppendFunc(nil, f)
	got, rest, err := decodeFunc(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing bytes)", err, len(rest))
	}
	for i, bits := range fimms {
		if gotBits := math.Float64bits(got.Code[i].FImm); gotBits != bits {
			t.Errorf("FImm %#x decoded as %#x", bits, gotBits)
		}
		got.Code[i].FImm, f.Code[i].FImm = 0, 0
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("decoded function differs:\n got %+v\nwant %+v", got, f)
	}
	for i := range f.Code {
		g, w := got.Code[i].Call, f.Code[i].Call
		if (g == nil) != (w == nil) || g != nil && ((g.Args == nil) != (w.Args == nil) || (g.ArgSlots == nil) != (w.ArgSlots == nil)) {
			t.Errorf("instr %d: nil-ness of Call/Args/ArgSlots changed", i)
		}
	}
}

// TestDecodeRejectsInvalidStructure pins the validation contract: each case
// is a well-framed encoding of a function the simulator must never see.
func TestDecodeRejectsInvalidStructure(t *testing.T) {
	base := func() *nisa.Func {
		return &nisa.Func{Name: "f", Params: []cil.Type{cil.Scalar(cil.I32)}, FrameSlots: 2,
			Code: []nisa.Instr{{Op: nisa.GetArg}, {Op: nisa.Jump, Target: 2}, {Op: nisa.Ret}}}
	}
	cases := map[string]func(f *nisa.Func){
		"opcode out of range":      func(f *nisa.Func) { f.Code[0].Op = nisa.Op(nisa.OpCount) },
		"kind out of range":        func(f *nisa.Func) { f.Code[0].Kind = cil.Vec + 1 },
		"source kind out of range": func(f *nisa.Func) { f.Code[0].SrcKind = 200 },
		"param kind out of range":  func(f *nisa.Func) { f.Params[0].Kind = cil.Vec + 1 },
		"return elem out of range": func(f *nisa.Func) { f.Ret.Elem = cil.Vec + 1 },
		"cond out of range":        func(f *nisa.Func) { f.Code[0].Cond = nisa.CondGe + 1 },
		"register index too large": func(f *nisa.Func) { f.Code[0].Rd.Index = 1 << 16 },
		"negative register index":  func(f *nisa.Func) { f.Code[0].Rd.Index = -1 },
		"branch past the end":      func(f *nisa.Func) { f.Code[1].Target = 3 },
		"negative branch target":   func(f *nisa.Func) { f.Code[1].Target = -1 },
		"frame too large":          func(f *nisa.Func) { f.FrameSlots = 1<<16 + 1 },
		"spill slot outside frame": func(f *nisa.Func) { f.Code[0] = nisa.Instr{Op: nisa.SpillLoad, Imm: 2} },
		"argument outside params":  func(f *nisa.Func) { f.Code[0].Imm = 1 },
		"too many call arguments": func(f *nisa.Func) {
			f.Code[0] = nisa.Instr{Op: nisa.Call, Call: &nisa.CallInfo{Args: make([]nisa.Reg, 1<<10+1)}}
		},
		"ArgSlots/Args mismatch": func(f *nisa.Func) {
			f.Code[0] = nisa.Instr{Op: nisa.Call, Call: &nisa.CallInfo{Args: make([]nisa.Reg, 2), ArgSlots: []int{-1}}}
		},
		"arg slot outside frame": func(f *nisa.Func) {
			f.Code[0] = nisa.Instr{Op: nisa.Call, Call: &nisa.CallInfo{Args: make([]nisa.Reg, 1), ArgSlots: []int{2}}}
		},
	}
	if _, _, err := decodeFunc(nisa.AppendFunc(nil, base())); err != nil {
		t.Fatalf("the unmodified base function must decode: %v", err)
	}
	for name, mutate := range cases {
		f := base()
		mutate(f)
		if _, _, err := decodeFunc(nisa.AppendFunc(nil, f)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Non-canonical framings of valid content, and a duplicated function.
	enc := nisa.AppendFunc(nil, &nisa.Func{Name: "f", Code: []nisa.Instr{{Op: nisa.Ret}}})
	padded := append(append([]byte{}, enc[:len(enc)-1]...), 0x80, 0x00) // mask 0 as a two-byte varint
	if _, _, err := decodeFunc(padded); err == nil {
		t.Error("padded varint accepted")
	}
	zeroField := append(append([]byte{}, enc[:len(enc)-1]...), 0x01, 0x00) // Kind present but Void
	if _, _, err := decodeFunc(zeroField); err == nil {
		t.Error("present-but-zero field accepted")
	}
	// A Target that does not fit the instruction's int32 would re-encode to
	// other bytes.
	enc = nisa.AppendFunc(nil, &nisa.Func{Name: "f", Code: []nisa.Instr{{Op: nisa.Add, Target: 5}}})
	wide := binary.AppendVarint(append([]byte{}, enc[:len(enc)-1]...), 1<<32)
	if _, _, err := decodeFunc(wide); err == nil {
		t.Error("target beyond int32 accepted")
	}
	prog := nisa.NewProgram("t")
	prog.Add(&nisa.Func{Name: "a"})
	twice := nisa.AppendProgram(nil, prog)
	twice[len("\x01t")] = 2
	twice = append(twice, nisa.AppendFunc(nil, prog.Func("a"))...)
	if _, _, err := decodeProgram(twice); err == nil {
		t.Error("program with a repeated function accepted")
	}
}

// allocatedBy reports the bytes fn allocated. Other goroutines only ever add
// to the figure, so the smallest of a few tries is the honest one.
func allocatedBy(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// FuzzNativeCodec drives arbitrary bytes through both decoders. Whatever the
// input, decoding must not panic, must not allocate more than a constant
// times the input (an Instr is 168 bytes in memory and at least two on the
// wire; that ratio is the worst), and anything accepted must re-encode to
// exactly the bytes consumed — the codec has one encoding per value.
//
// Run locally with:
//
//	go test -fuzz=FuzzNativeCodec -fuzztime=30s ./internal/nisa/
//
// CI (the compat job) executes the seed corpus on every run.
func FuzzNativeCodec(f *testing.F) {
	// A spread of the matrix keeps the seed run short; taking it in name
	// order keeps the seed corpus (and so the subtest names) the same from
	// run to run, which map order did not.
	progs := compiledPrograms(f)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for n, name := range names {
		if n%7 != 0 {
			continue
		}
		prog := progs[name]
		enc := nisa.AppendProgram(nil, prog)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		flipped := append([]byte(nil), enc...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
		for _, fn := range prog.Funcs {
			f.Add(nisa.AppendFunc(nil, fn))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("\x00\xff\xff\xff\xff\xff\xff\xff\xff\x01"))                          // absurd function count
	f.Add([]byte("\x01f\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\x7f")) // absurd code length

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		limit := uint64(128*len(data) + 4096)
		var (
			fn   *nisa.Func
			prog *nisa.Program
			rest []byte
			err  error
		)
		if got := allocatedBy(func() { fn, rest, err = decodeFunc(data) }); got > limit {
			t.Fatalf("DecodeFunc allocated %d bytes for %d bytes of input", got, len(data))
		}
		if err == nil {
			consumed := data[:len(data)-len(rest)]
			if again := nisa.AppendFunc(nil, fn); !bytes.Equal(again, consumed) {
				t.Fatalf("accepted function re-encodes differently:\n in  %x\n out %x", consumed, again)
			}
		}
		if got := allocatedBy(func() { prog, rest, err = decodeProgram(data) }); got > limit {
			t.Fatalf("DecodeProgram allocated %d bytes for %d bytes of input", got, len(data))
		}
		if err == nil {
			consumed := data[:len(data)-len(rest)]
			if again := nisa.AppendProgram(nil, prog); !bytes.Equal(again, consumed) {
				t.Fatalf("accepted program re-encodes differently:\n in  %x\n out %x", consumed, again)
			}
		}
	})
}
