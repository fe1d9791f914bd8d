package cil

// StackProof is what verifying one method leaves behind for deployment-side
// compilers, so they need not repeat the verifier's dataflow: which
// instructions are reachable, and the typed entry stack of every reachable
// branch target (the only places where an abstract stack cannot be carried
// over from the previous instruction). It is deliberately compact — a bitmap
// and one flat type slice, not a stack per instruction — because modules
// retain it for as long as they live.
//
// Verify attaches the proof to the method it verified, before the module is
// shared; after that nobody writes it. It is never encoded and Method.Clone
// drops it, so a decoded or edited method is always verified afresh.
type StackProof struct {
	mod      *Module // the module whose call signatures the proof resolved
	n        int     // len(Code) when proven
	maxStack int
	reach    []uint64 // bit pc: instruction pc is reachable
	joins    []join   // reachable branch targets, ascending pc
	types    []Type   // the joins' entry stacks, back to back
}

// join locates one branch target's entry stack: types[previous end:end].
type join struct{ pc, end int32 }

// Reachable reports whether control can reach instruction pc.
func (p *StackProof) Reachable(pc int) bool { return p.reach[pc>>6]&(1<<(pc&63)) != 0 }

// NumJoins returns the number of reachable branch targets.
func (p *StackProof) NumJoins() int { return len(p.joins) }

// Join returns the i-th reachable branch target in ascending pc order and
// the types on the evaluation stack at its entry. A vector entry names its
// element kind in Type.Elem (Void when it came from a vector local, whose
// declaration does not say). The slice aliases the proof: read only.
func (p *StackProof) Join(i int) (pc int, entry []Type) {
	return int(p.joins[i].pc), joinEntry(p.joins, p.types, i)
}

func joinEntry(joins []join, types []Type, i int) []Type {
	start := int32(0)
	if i > 0 {
		start = joins[i-1].end
	}
	return types[start:joins[i].end:joins[i].end]
}

// MethodProof returns the proof Verify attached to m, or, when m carries
// none that was proven for this module and this code length — it was decoded,
// cloned, built by hand or moved — verifies m now without writing into it.
// Either way code that reaches a compiler through here has been verified.
func MethodProof(mod *Module, m *Method) (*StackProof, error) {
	if p := m.proof; p != nil && p.mod == mod && p.n == len(m.Code) {
		return p, nil
	}
	v := verifierPool.Get().(*verifier)
	defer verifierPool.Put(v)
	return v.prove(mod, m)
}
