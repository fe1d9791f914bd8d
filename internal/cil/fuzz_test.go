package cil

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// hostileInstrCount is a complete, well-formed 21-byte stream except that
// its one method declares 1<<24 instructions and brings three. Decode used to
// size the instruction slice from the declared count: 768 MB and seconds of
// zeroing before the first "truncated input".
var hostileInstrCount = []byte("SVBC\x01\x00\x00\x01" + // magic, v1, name "", no annotations, one method
	"\x00\x00\x00\x00\x00\x00" + // name "", no params, returns void, no locals, max stack 0, no annotations
	"\x80\x80\x80\x08" + // 1<<24 instructions
	"\x00\x00\x00") // nop nop nop

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

// decodeBudget is what Decode may allocate for an input: a constant times
// its length. An instruction is 56 bytes in memory and at least one on the
// wire; pre-sized annotation maps are the other large ratio.
func decodeBudget(data []byte) uint64 { return uint64(128*len(data) + 4096) }

func TestDecodeBoundsDeclaredCounts(t *testing.T) {
	if len(hostileInstrCount) != 21 {
		t.Fatalf("seed is %d bytes", len(hostileInstrCount))
	}
	streams := map[string][]byte{"instructions": hostileInstrCount}
	// A valid stream with a hostile count in two of the other count fields.
	valid := Encode(moduleWith(t, buildSumLoop(t)))
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x07} // 2^31-1
	// Offsets into `valid`: "SVBC" v1, name "test" (1+4), module annotation
	// count, method count, then the first method: name "sum" ...
	annoAt := 4 + 1 + 1 + len("test")
	for name, at := range map[string]int{"annotations": annoAt, "methods": annoAt + 1} {
		streams[name] = append(append(append([]byte{}, valid[:at]...), huge...), valid[at+1:]...)
	}
	for name, data := range streams {
		var err error
		got := allocatedBy(func() { _, err = Decode(data) })
		if err == nil {
			t.Errorf("%s: Decode accepted a count the input cannot hold", name)
		}
		if got > decodeBudget(data) {
			t.Errorf("%s: Decode allocated %d bytes for %d bytes of input", name, got, len(data))
		}
	}
}

// TestDecodeIsCanonical: Decode accepts exactly what Encode writes, so a
// module has one byte stream and one content hash.
func TestDecodeIsCanonical(t *testing.T) {
	mod := sampleModule(t)
	data := Encode(mod)
	// The method count (2) is the byte before the first method's name.
	at := bytes.Index(data, []byte("\x05saxpy")) - 1
	if at < 0 || data[at] != 2 {
		t.Fatalf("method count not where expected (%d)", at)
	}
	padded := append(append(append([]byte{}, data[:at]...), 0x82, 0x00), data[at+1:]...)
	if _, err := Decode(padded); err == nil {
		t.Error("Decode accepted a padded varint")
	}

	two := NewModule("m")
	two.SetAnnotation("a", []byte{1})
	two.SetAnnotation("b", []byte{2})
	enc := Encode(two)
	swapped := bytes.Replace(enc, []byte("\x01a\x01\x01\x01b\x01\x02"), []byte("\x01b\x01\x02\x01a\x01\x01"), 1)
	if bytes.Equal(enc, swapped) {
		t.Fatal("annotation entries not where expected")
	}
	if _, err := Decode(swapped); err == nil {
		t.Error("Decode accepted annotation keys out of order")
	}
	dup := bytes.Replace(enc, []byte("\x01b\x01\x02"), []byte("\x01a\x01\x02"), 1)
	if _, err := Decode(dup); err == nil {
		t.Error("Decode accepted a duplicate annotation key")
	}

	noImports := append([]byte{}, Encode(NewModule("m"))...)
	noImports[len(formatMagic)] = formatVersionImports
	noImports = append(noImports[:len(noImports)-1], 0, 0) // import count 0, method count 0
	if _, err := Decode(noImports); err == nil {
		t.Error("Decode accepted an import-format module without imports")
	}
}

// FuzzDecode drives arbitrary bytes through Decode — the path every upload
// to svd takes before anything else looks at it. Whatever the input, decoding
// must not panic and must not allocate more than a constant times the input;
// anything accepted must re-encode to the same bytes, and the verifier must
// survive it.
func FuzzDecode(f *testing.F) {
	f.Add(hostileInstrCount)
	f.Add([]byte{})
	f.Add([]byte("SVBC\x01\x00\xff\xff\xff\xff\x0f")) // absurd annotation count
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		enc := Encode(randomModule(r))
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		flipped := append([]byte(nil), enc...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	withImports := NewModule("importer")
	withImports.Imports = []Import{{Module: "lib", Methods: []ImportedMethod{{Name: "f", Params: []Type{Array(F64), Scalar(I32)}, Ret: Scalar(I64)}}}}
	f.Add(Encode(withImports))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		var (
			mod *Module
			err error
		)
		if got := allocatedBy(func() { mod, err = Decode(data) }); got > decodeBudget(data) {
			t.Fatalf("Decode allocated %d bytes for %d bytes of input", got, len(data))
		}
		if err != nil {
			return
		}
		if again := Encode(mod); !bytes.Equal(again, data) {
			t.Fatalf("accepted module re-encodes differently:\n in  %x\n out %x", data, again)
		}
		// What decodes is verified next; arbitrary code must be refused or
		// proven, never crash the verifier.
		if err := Verify(mod); err == nil {
			for _, m := range mod.Methods {
				if p, err := MethodProof(mod, m); err != nil || p != m.proof {
					t.Fatalf("%s: verified method has no usable proof (%v)", m.Name, err)
				}
			}
		}
	})
}
