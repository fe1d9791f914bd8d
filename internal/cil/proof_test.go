package cil

import (
	"fmt"
	"reflect"
	"testing"
)

// genModule builds a module of n methods with loops, a conditional, calls
// into the previous method and values live on the stack across joins: the
// shapes the verifier's dataflow and the proof have to cover.
func genModule(tb testing.TB, n int) *Module {
	tb.Helper()
	mod := NewModule(fmt.Sprintf("gen%d", n))
	for i := 0; i < n; i++ {
		b := NewMethodBuilder(fmt.Sprintf("m%d", i), []Type{Scalar(I32), Array(I32)}, Scalar(I32))
		acc, j := b.AddLocal(Scalar(I32)), b.AddLocal(Scalar(I32))
		head, done, odd, join := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.ConstI(I32, int64(i)).StoreLocal(acc).ConstI(I32, 0).StoreLocal(j)
		b.Bind(head)
		b.LoadLocal(j).LoadArg(0).OpK(CmpGe, I32).BranchTrue(done)
		// acc is on the stack across the conditional's join.
		b.LoadLocal(acc)
		b.LoadLocal(j).ConstI(I32, 1).OpK(And, I32).BranchTrue(odd)
		b.LoadArg(1).LoadLocal(j).OpK(LdElem, I32).Branch(join)
		b.Bind(odd)
		b.LoadLocal(j).ConstI(I32, 3).OpK(Mul, I32)
		b.Bind(join)
		b.OpK(Add, I32).StoreLocal(acc)
		if i > 0 {
			b.LoadLocal(acc).LoadLocal(j).LoadArg(1).CallMethod(fmt.Sprintf("m%d", i-1)).OpK(Add, I32).StoreLocal(acc)
		}
		b.LoadLocal(j).ConstI(I32, 1).OpK(Add, I32).StoreLocal(j).Branch(head)
		b.Bind(done)
		b.LoadLocal(acc).Return()
		if err := mod.AddMethod(b.MustFinish()); err != nil {
			tb.Fatal(err)
		}
	}
	return mod
}

func moduleInstrs(mod *Module) int {
	n := 0
	for _, m := range mod.Methods {
		n += len(m.Code)
	}
	return n
}

// TestVerifyAllocatesPerMethodNotPerInstruction: a warm verifier allocates
// the proofs it returns — a handful of objects a method — and nothing that
// grows with the instruction count.
func TestVerifyAllocatesPerMethodNotPerInstruction(t *testing.T) {
	mod := genModule(t, 64)
	if err := Verify(mod); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := Verify(mod); err != nil {
			t.Fatal(err)
		}
	})
	methods, instrs := len(mod.Methods), moduleInstrs(mod)
	// Per method: proof, reachability bitmap, join table, join stacks. The
	// slack is a verifier's own buffers, for when the pool hands out a new one
	// (under the race detector it drops a quarter of what is put back).
	if limit := float64(4*methods + 16); allocs > limit {
		t.Errorf("Verify of %d methods (%d instructions) allocated %.0f objects, want <= %.0f", methods, instrs, allocs, limit)
	}
	if instrs < 20*methods {
		t.Fatalf("generated module too small to tell the two apart: %d instructions", instrs)
	}
}

// TestProofIsCompact pins the retained form: a bitmap and the entry stacks
// of branch targets only, never a stack per instruction.
func TestProofIsCompact(t *testing.T) {
	mod := genModule(t, 2)
	if err := Verify(mod); err != nil {
		t.Fatal(err)
	}
	m := mod.Methods[1]
	p := m.proof
	if p == nil {
		t.Fatal("Verify left no proof")
	}
	targets := map[int]bool{}
	for _, in := range m.Code {
		if in.Op.IsBranch() {
			targets[in.Target] = true
		}
	}
	if p.NumJoins() != len(targets) {
		t.Errorf("proof records %d joins, method has %d branch targets", p.NumJoins(), len(targets))
	}
	if len(p.reach) != (len(m.Code)+63)/64 {
		t.Errorf("reachability bitmap is %d words for %d instructions", len(p.reach), len(m.Code))
	}
	last, nonEmpty := -1, 0
	for i := 0; i < p.NumJoins(); i++ {
		pc, entry := p.Join(i)
		if pc <= last || !targets[pc] || !p.Reachable(pc) {
			t.Errorf("join %d at pc %d: not an ascending reachable branch target", i, pc)
		}
		last = pc
		if len(entry) > 0 {
			nonEmpty++
			if !reflect.DeepEqual(entry, []Type{Scalar(I32), Scalar(I32)}) && !reflect.DeepEqual(entry, []Type{Scalar(I32)}) {
				t.Errorf("join at pc %d has entry stack %v", pc, entry)
			}
		}
	}
	if nonEmpty == 0 {
		t.Error("no join carries a stack; the generator should keep a value live across one")
	}
	if len(p.types) > 2*p.NumJoins() {
		t.Errorf("proof retains %d stack types for %d joins", len(p.types), p.NumJoins())
	}
	for pc := range m.Code {
		if !p.Reachable(pc) {
			t.Errorf("pc %d reported unreachable", pc)
		}
	}
}

// TestProofMarksUnreachableCode: code after an unconditional branch that no
// branch targets is skipped by the verifier and reported as such.
func TestProofMarksUnreachableCode(t *testing.T) {
	b := NewMethodBuilder("f", nil, Scalar(I32))
	end := b.NewLabel()
	b.ConstI(I32, 1).Branch(end)
	b.Op(Pop).Op(Pop) // would underflow if simulated
	b.Bind(end)
	b.Return()
	mod := moduleWith(t, b.MustFinish())
	if err := Verify(mod); err != nil {
		t.Fatal(err)
	}
	p := mod.Methods[0].proof
	for pc, want := range []bool{true, true, false, false, true} {
		if p.Reachable(pc) != want {
			t.Errorf("Reachable(%d) = %v, want %v", pc, !want, want)
		}
	}
	if pc, entry := p.Join(0); p.NumJoins() != 1 || pc != 4 || !reflect.DeepEqual(entry, []Type{Scalar(I32)}) {
		t.Errorf("joins = %d, first at %d with %v", p.NumJoins(), pc, entry)
	}
}

// TestProofNeverTravels: the proof stays with the method Verify wrote it on.
// Clones and decoded modules carry none, and a proof is not trusted for a
// method that changed length or moved to another module since.
func TestProofNeverTravels(t *testing.T) {
	mod := genModule(t, 3)
	if err := Verify(mod); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(Encode(mod))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mod.Methods {
		if m.proof == nil {
			t.Fatalf("%s: Verify left no proof", m.Name)
		}
		if m.Clone().proof != nil || mod.Clone().Methods[i].proof != nil {
			t.Errorf("%s: Clone carried the proof", m.Name)
		}
		if decoded.Methods[i].proof != nil {
			t.Errorf("%s: Decode produced a proof", m.Name)
		}
		if p, err := MethodProof(mod, m); err != nil || p != m.proof {
			t.Errorf("%s: MethodProof did not return the attached proof (%v)", m.Name, err)
		}
	}

	// A clone is verified afresh, to an equal proof, without being written.
	c := mod.Clone()
	p, err := MethodProof(c, c.Methods[2])
	if err != nil {
		t.Fatal(err)
	}
	if c.Methods[2].proof != nil {
		t.Error("MethodProof wrote into the method")
	}
	want := mod.Methods[2].proof
	if !reflect.DeepEqual(p.reach, want.reach) || !reflect.DeepEqual(p.joins, want.joins) ||
		!reflect.DeepEqual(p.types, want.types) || p.maxStack != want.maxStack {
		t.Error("re-verifying a clone produced a different proof")
	}

	// Edited in place: the stale proof is not used, the edit is verified.
	m := mod.Methods[0]
	m.Code = append([]Instr{{Op: Pop}}, m.Code...)
	if _, err := MethodProof(mod, m); err == nil {
		t.Error("MethodProof trusted a proof for code that has since grown")
	}
	m.Code = m.Code[1:]

	// Moved: the callee has another signature in the new module.
	other := NewModule("other")
	callee := NewMethod("m0", nil, Scalar(I32))
	callee.Code = []Instr{{Op: LdcI, Kind: I32}, {Op: Ret}}
	if err := other.AddMethod(callee); err != nil {
		t.Fatal(err)
	}
	if err := other.AddMethod(mod.Methods[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := MethodProof(other, mod.Methods[1]); err == nil {
		t.Error("MethodProof trusted a proof made against another module's signatures")
	}
}

// TestVerifyTracksVectorElementKinds: a vector on the verifier's stack names
// the element kind of the builtin that made it, so a join layout can say
// which lanes it holds, and two paths must agree on it.
func TestVerifyTracksVectorElementKinds(t *testing.T) {
	b := NewMethodBuilder("f", []Type{Array(F32), Array(F32)}, Scalar(Void))
	l := b.NewLabel()
	b.LoadArg(1).ConstI(I32, 0).LoadArg(0).ConstI(I32, 0).OpK(VLoad, F32).Branch(l)
	b.Bind(l)
	b.OpK(VStore, F32).Return()
	mod := moduleWith(t, b.MustFinish())
	if err := Verify(mod); err != nil {
		t.Fatal(err)
	}
	_, entry := mod.Methods[0].proof.Join(0)
	want := []Type{Array(F32), Scalar(I32), {Kind: Vec, Elem: F32}}
	if !reflect.DeepEqual(entry, want) {
		t.Errorf("join entry = %v, want %v", entry, want)
	}
	if s := entry[2].String(); s != "vec.f32" {
		t.Errorf("String() = %q", s)
	}

	rejectCase(t, "vecjoin", func(b *MethodBuilder) {
		other, join := b.NewLabel(), b.NewLabel()
		b.LoadArg(1).BranchTrue(other)
		b.LoadArg(0).ConstI(I32, 0).OpK(VLoad, F32).Branch(join)
		b.Bind(other)
		b.ConstI(I32, 7).OpK(VSplat, I32)
		b.Bind(join)
		b.Op(Pop).Return()
	}, []Type{Array(F32), Scalar(I32)}, Scalar(Void), "stack kind mismatch at join slot 0: vec.f32 vs vec.i32")
}

func BenchmarkVerify(b *testing.B) {
	for _, n := range []int{1, 2, 16, 64} {
		mod := genModule(b, n)
		b.Run(fmt.Sprintf("methods=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Verify(mod); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*moduleInstrs(mod)), "ns/instr")
		})
	}
}
