package cil

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleModule(t testing.TB) *Module {
	mod := NewModule("sample")
	mod.SetAnnotation("hwreq", []byte{1, 2, 3})

	b := NewMethodBuilder("saxpy", []Type{Array(F64), Array(F64), Scalar(F64), Scalar(I32)}, Scalar(Void))
	i := b.AddLocal(Scalar(I32))
	head := b.NewLabel()
	exit := b.NewLabel()
	b.ConstI(I32, 0).StoreLocal(i)
	b.Bind(head)
	b.LoadLocal(i).LoadArg(3).OpK(CmpLt, I32).BranchFalse(exit)
	b.LoadArg(0).LoadLocal(i)
	b.LoadArg(1).LoadLocal(i).OpK(LdElem, F64).LoadArg(2).OpK(Mul, F64)
	b.LoadArg(0).LoadLocal(i).OpK(LdElem, F64).OpK(Add, F64)
	b.OpK(StElem, F64)
	b.LoadLocal(i).ConstI(I32, 1).OpK(Add, I32).StoreLocal(i)
	b.Branch(head)
	b.Bind(exit)
	b.Return()
	m := b.MustFinish()
	m.SetAnnotation("vectorized", []byte("loop@2 kind=f64"))
	if err := mod.AddMethod(m); err != nil {
		t.Fatal(err)
	}

	b2 := NewMethodBuilder("const_pi", nil, Scalar(F64))
	b2.ConstF(F64, 3.14159).Return()
	if err := mod.AddMethod(b2.MustFinish()); err != nil {
		t.Fatal(err)
	}
	if err := Verify(mod); err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	mod := sampleModule(t)
	data := Encode(mod)
	if len(data) == 0 {
		t.Fatal("Encode produced no bytes")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// The original was verified and carries the verifier's proof, which is
	// never encoded; the same bytes verify to the same proof.
	if err := Verify(got); err != nil {
		t.Fatalf("Verify decoded: %v", err)
	}
	if !reflect.DeepEqual(mod, got) {
		t.Errorf("round trip mismatch:\noriginal: %+v\ndecoded:  %+v", mod, got)
	}
	if EncodedSize(mod) != len(data) {
		t.Error("EncodedSize disagrees with Encode")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	mod := sampleModule(t)
	a := Encode(mod)
	b := Encode(mod)
	if !bytes.Equal(a, b) {
		t.Error("Encode is not deterministic for the same module")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	mod := sampleModule(t)
	data := Encode(mod)

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), data[4:]...),
		"bad version": append(append([]byte{}, data[:4]...), append([]byte{99}, data[5:]...)...),
		"truncated":   data[:len(data)/2],
		"trailing":    append(append([]byte{}, data...), 0xFF),
	}
	for name, corrupt := range cases {
		if _, err := Decode(corrupt); err == nil {
			t.Errorf("Decode accepted %s input", name)
		}
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	mod := NewModule("m")
	m := NewMethod("f", nil, Scalar(Void))
	m.Code = []Instr{{Op: Ret}}
	if err := mod.AddMethod(m); err != nil {
		t.Fatal(err)
	}
	data := Encode(mod)
	// The last byte of the stream is the ret opcode (untyped opcodes carry
	// no kind byte).
	data[len(data)-1] = byte(numOpcodes) + 10
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted an invalid opcode")
	}
}

// randomModule builds a structurally valid (but semantically arbitrary)
// module from random data, for the encode/decode property test.
func randomModule(r *rand.Rand) *Module {
	kinds := []Kind{I8, U8, I16, U16, I32, U32, I64, U64, F32, F64}
	mod := NewModule(randName(r, "mod"))
	nAnn := r.Intn(4)
	for i := 0; i < nAnn; i++ {
		mod.SetAnnotation(randName(r, "a"), randBytes(r))
	}
	nMethods := 1 + r.Intn(4)
	for mi := 0; mi < nMethods; mi++ {
		var params []Type
		for i := r.Intn(4); i > 0; i-- {
			if r.Intn(3) == 0 {
				params = append(params, Array(kinds[r.Intn(len(kinds))]))
			} else {
				params = append(params, Scalar(kinds[r.Intn(len(kinds))]))
			}
		}
		m := NewMethod(randName(r, "m"), params, Scalar(kinds[r.Intn(len(kinds))]))
		for i := r.Intn(5); i > 0; i-- {
			m.AddLocal(Scalar(kinds[r.Intn(len(kinds))]))
		}
		for i := r.Intn(3); i > 0; i-- {
			m.SetAnnotation(randName(r, "k"), randBytes(r))
		}
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			in := Instr{Op: Opcode(r.Intn(int(numOpcodes)))}
			if opNeedsKind(in.Op) {
				in.Kind = kinds[r.Intn(len(kinds))]
			}
			switch in.Op {
			case LdcI, LdArg, StArg, LdLoc, StLoc:
				in.Int = r.Int63n(1 << 40)
				if r.Intn(2) == 0 {
					in.Int = -in.Int
				}
			case LdcF:
				in.Float = r.NormFloat64() * 1e6
			case Br, BrTrue, BrFalse:
				in.Target = r.Intn(n)
			case Call:
				in.Str = randName(r, "callee")
			}
			m.Code = append(m.Code, in)
		}
		m.MaxStack = r.Intn(16)
		// AddMethod only fails on duplicate names; regenerate in that case.
		if mod.Method(m.Name) != nil {
			m.Name += "_dup"
		}
		if err := mod.AddMethod(m); err != nil {
			panic(err)
		}
	}
	return mod
}

func randName(r *rand.Rand, prefix string) string {
	const letters = "abcdefghijklmnopqrstuvwxyz_0123456789"
	n := 1 + r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return prefix + "_" + string(b)
}

func randBytes(r *rand.Rand) []byte {
	b := make([]byte, r.Intn(24))
	r.Read(b)
	return b
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mod := randomModule(r)
		decoded, err := Decode(Encode(mod))
		if err != nil {
			t.Logf("seed %d: decode error: %v", seed, err)
			return false
		}
		return reflect.DeepEqual(mod, decoded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
