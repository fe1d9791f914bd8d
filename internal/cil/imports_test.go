package cil

import (
	"reflect"
	"strings"
	"testing"
)

// importedModule is sampleModule plus an import table: a dependency on two
// methods of one module and one method of another.
func importedModule(t testing.TB) *Module {
	mod := NewModule("importer")
	b := NewMethodBuilder("caller", []Type{Scalar(I64)}, Scalar(I64))
	b.LoadArg(0).Return()
	if err := mod.AddMethod(b.MustFinish()); err != nil {
		t.Fatal(err)
	}
	var h1, h2 [HashSize]byte
	for i := range h1 {
		h1[i] = byte(i)
		h2[i] = byte(255 - i)
	}
	mod.AddImport(Import{Hash: h1, Module: "mathlib", Methods: []ImportedMethod{
		{Name: "cube", Params: []Type{Scalar(I64)}, Ret: Scalar(I64)},
		{Name: "scale", Params: []Type{Array(F64), Scalar(F64), Scalar(I32)}, Ret: Scalar(Void)},
	}})
	mod.AddImport(Import{Hash: h2, Module: "strlib", Methods: []ImportedMethod{
		{Name: "hash32", Params: []Type{Array(I32), Scalar(I32)}, Ret: Scalar(I32)},
	}})
	if err := Verify(mod); err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestImportsEncodeDecodeRoundTrip: a module with an import table survives
// the byte stream intact — hashes, diagnostic names and declared signatures.
func TestImportsEncodeDecodeRoundTrip(t *testing.T) {
	mod := importedModule(t)
	data := Encode(mod)
	if data[len(formatMagic)] != formatVersionImports {
		t.Fatalf("version byte = %d, want %d for an importing module",
			data[len(formatMagic)], formatVersionImports)
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
}

// TestImportFreeModuleStaysV1 pins the compatibility contract: a module
// without imports must encode as format version 1, so content hashes and
// the code-size experiment are untouched by the linking feature.
func TestImportFreeModuleStaysV1(t *testing.T) {
	data := Encode(sampleModule(t))
	if data[len(formatMagic)] != formatVersion {
		t.Fatalf("version byte = %d, want %d for an import-free module",
			data[len(formatMagic)], formatVersion)
	}
}

// TestImportSymRoundTrip covers the hash-qualified call-symbol spelling.
func TestImportSymRoundTrip(t *testing.T) {
	var h [HashSize]byte
	for i := range h {
		h[i] = byte(i * 3)
	}
	sym := ImportSym(h, "cube")
	if !IsImportSym(sym) {
		t.Fatalf("IsImportSym(%q) = false", sym)
	}
	if IsImportSym("cube") {
		t.Fatal(`IsImportSym("cube") = true for a plain local symbol`)
	}
	method, qual := SplitImportSym(sym)
	if method != "cube" || qual != HashQualifier(h) {
		t.Fatalf("SplitImportSym(%q) = %q, %q", sym, method, qual)
	}
	if _, q := SplitImportSym("local"); q != "" {
		t.Fatalf("plain symbol produced qualifier %q", q)
	}
}

// TestResolveCallPrefersLocalThenImports: signature resolution covers both
// local methods and hash-qualified imports, and misses cleanly.
func TestResolveCallPrefersLocalThenImports(t *testing.T) {
	mod := importedModule(t)
	if _, ret, ok := mod.ResolveCall("caller"); !ok || ret != Scalar(I64) {
		t.Fatalf("ResolveCall(caller) = ret %v, ok %v", ret, ok)
	}
	sym := ImportSym(mod.Imports[0].Hash, "cube")
	params, ret, ok := mod.ResolveCall(sym)
	if !ok || ret != Scalar(I64) || len(params) != 1 {
		t.Fatalf("ResolveCall(%q) = %v, %v, %v", sym, params, ret, ok)
	}
	if _, _, ok := mod.ResolveCall(ImportSym(mod.Imports[0].Hash, "missing")); ok {
		t.Fatal("ResolveCall resolved a method the import never declared")
	}
}

// TestAddImportMergesByHash: re-adding a hash merges method lists instead of
// duplicating the import (later signatures win on name clashes).
func TestAddImportMerges(t *testing.T) {
	mod := importedModule(t)
	h := mod.Imports[0].Hash
	mod.AddImport(Import{Hash: h, Module: "mathlib", Methods: []ImportedMethod{
		{Name: "cube", Params: []Type{Scalar(I32)}, Ret: Scalar(I32)}, // replaces
		{Name: "pow", Params: []Type{Scalar(I64), Scalar(I64)}, Ret: Scalar(I64)},
	}})
	if len(mod.Imports) != 2 {
		t.Fatalf("AddImport duplicated the import: %d entries", len(mod.Imports))
	}
	im := mod.Imports[0]
	if len(im.Methods) != 3 {
		t.Fatalf("merged import has %d methods, want 3", len(im.Methods))
	}
	if _, m, ok := mod.ImportedMethod(ImportSym(h, "cube")); !ok || m.Ret != Scalar(I32) {
		t.Fatal("merge did not replace the clashing signature")
	}
}

// TestValidateImportsRejects enumerates the structural errors Decode and the
// linker rely on being impossible in a validated module.
func TestValidateImportsRejects(t *testing.T) {
	var h [HashSize]byte
	h[0] = 7
	cases := []struct {
		name    string
		imports []Import
		wantSub string
	}{
		{"duplicate hash", []Import{
			{Hash: h, Methods: []ImportedMethod{{Name: "a"}}},
			{Hash: h, Methods: []ImportedMethod{{Name: "b"}}},
		}, "twice"},
		{"no methods", []Import{{Hash: h}}, "no methods"},
		{"unnamed method", []Import{{Hash: h, Methods: []ImportedMethod{{}}}}, "unnamed"},
		{"duplicate method", []Import{
			{Hash: h, Methods: []ImportedMethod{{Name: "a"}, {Name: "a"}}},
		}, "twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := NewModule("bad")
			mod.Imports = tc.imports
			err := ValidateImports(mod)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ValidateImports = %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
}

// TestDecodeRejectsInvalidImportTable: a byte stream whose import table is
// structurally broken must fail Decode, not surface later at link time.
func TestDecodeRejectsInvalidImportTable(t *testing.T) {
	mod := importedModule(t)
	mod.Imports[1].Hash = mod.Imports[0].Hash // duplicate → invalid
	data := encodeUnchecked(mod)
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted a duplicate import hash")
	}
}

// encodeUnchecked re-encodes a module exactly like Encode; it exists so the
// invalid-table test is explicit that no validation happens on this path.
func encodeUnchecked(mod *Module) []byte { return Encode(mod) }
