// Package profile defines the runtime execution profiles that close the
// split-compilation loop: where internal/anno carries annotations the
// *offline* compiler produced for the online JIT, this package carries
// annotations the *runtime* produced about its own behavior — per-function
// invocation counts and per-branch edge counts sampled by the pre-decoded
// simulator core. A profile can promote hot functions to the tier-2
// optimizer in the machine that recorded it, and — serialized through the
// annotation envelope (anno.KeyProfile) — warm a fresh deployment of the
// same module elsewhere.
//
// Profiles are bucketed at control-flow granularity on purpose: the
// dispatch loop only touches a counter at branches and function entries, so
// straight-line code runs exactly as before and the gated simulated-cycle
// metrics are unaffected. Full per-block frequencies are reconstructed on
// demand (BlockFreqs) from the edge counts, never maintained online.
package profile

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nisa"
)

// SchemaVersion is the profile payload schema this package reads and
// writes (the envelope section additionally carries the annotation schema
// version; see internal/anno).
const SchemaVersion = 1

// BranchCount is the observed outcome histogram of one branch instruction.
// For unconditional jumps NotTaken stays zero.
type BranchCount struct {
	Taken    uint64
	NotTaken uint64
}

// FuncProfile is the recorded behavior of one native function: how often it
// was entered and, for every branch instruction in pc order, how often each
// outcome occurred. Branch ordinal k counts the k-th Jump/BranchCmp of the
// function's code; the register assigner's rewrite inserts only straight-
// line spill code and never adds or removes branches, so ordinals are
// stable between a fresh translation and the final assigned code.
type FuncProfile struct {
	Name     string
	Calls    uint64
	Branches []BranchCount
}

// ModuleProfile aggregates the function profiles of one deployed module,
// sorted by function name for deterministic serialization.
type ModuleProfile struct {
	Funcs []FuncProfile
}

// Func returns the profile of the named function, or nil.
func (p *ModuleProfile) Func(name string) *FuncProfile {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return &p.Funcs[i]
		}
	}
	return nil
}

// BranchOrdinals returns the number of branch instructions (Jump or
// BranchCmp) in the code — the expected length of a matching
// FuncProfile.Branches slice.
func BranchOrdinals(code []nisa.Instr) int {
	n := 0
	for i := range code {
		if code[i].Op.IsBranch() {
			n++
		}
	}
	return n
}

// BlockFreqs reconstructs the observed execution count of every
// instruction from a function's edge counts: block entries are the sum of
// incoming taken edges plus fall-through from the preceding block, seeded
// with the invocation count at pc 0. The profile must have been recorded
// over code with the same branch structure; a branch-count mismatch
// returns an error so callers can degrade to invocation counts only.
func BlockFreqs(code []nisa.Instr, fp *FuncProfile) ([]int64, error) {
	if got, want := len(fp.Branches), BranchOrdinals(code); got != want {
		return nil, fmt.Errorf("profile %s: %d branch counters for %d branches", fp.Name, got, want)
	}

	// Taken-edge counts flowing into each target pc, and block leaders.
	takenIn := make([]uint64, len(code)+1)
	leader := make([]bool, len(code)+1)
	if len(code) > 0 {
		leader[0] = true
	}
	ord := 0
	for pc := range code {
		in := &code[pc]
		if !in.Op.IsBranch() {
			if in.Op == nisa.Ret && pc+1 <= len(code) {
				leader[min(pc+1, len(code))] = true
			}
			continue
		}
		bc := fp.Branches[ord]
		ord++
		if in.Target >= 0 && int(in.Target) <= len(code) {
			takenIn[in.Target] += bc.Taken
			leader[in.Target] = true
		}
		if pc+1 <= len(code) {
			leader[min(pc+1, len(code))] = true
		}
	}

	freqs := make([]int64, len(code))
	var cur uint64 // current block's entry count
	ord = 0
	for pc := range code {
		if leader[pc] {
			cur = takenIn[pc]
			if pc == 0 {
				cur += fp.Calls
			}
			// Fall-through from the previous instruction, unless it left
			// the block unconditionally.
			if pc > 0 {
				switch prev := &code[pc-1]; prev.Op {
				case nisa.Jump, nisa.Ret:
					// no fall-through
				case nisa.BranchCmp:
					// ord already advanced past the previous branch.
					cur += fp.Branches[ord-1].NotTaken
				default:
					cur += uint64(freqs[pc-1])
				}
			}
		}
		freqs[pc] = int64(cur)
		if code[pc].Op.IsBranch() {
			ord++
		}
	}
	return freqs, nil
}

// Policy decides when a function is hot enough for tier-2 promotion.
type Policy struct {
	// PromoteCalls is the invocation count at which a function is
	// promoted. Zero means the default; negative disables promotion
	// (profiling-only tiering).
	PromoteCalls int64
}

// DefaultPromoteCalls is the promotion threshold used when a Policy leaves
// PromoteCalls zero: low enough that short benchmark runs reach tier 2,
// high enough that one-shot invocations never pay for re-optimization.
const DefaultPromoteCalls = 8

// Threshold returns the effective promotion threshold, or -1 when
// promotion is disabled.
func (p Policy) Threshold() int64 {
	if p.PromoteCalls < 0 {
		return -1
	}
	if p.PromoteCalls == 0 {
		return DefaultPromoteCalls
	}
	return p.PromoteCalls
}

// Hot reports whether a function with the given invocation count should be
// promoted under the policy.
func (p Policy) Hot(calls uint64) bool {
	t := p.Threshold()
	return t >= 0 && calls >= uint64(t)
}

// Encode serializes the profile payload (schema v1): a version byte, the
// function count, then per function its name, invocation count and branch
// outcome counters, all varint-encoded. The payload is what travels inside
// the annotation envelope's "profile" section.
func (p *ModuleProfile) Encode() []byte {
	buf := []byte{SchemaVersion}
	buf = binary.AppendUvarint(buf, uint64(len(p.Funcs)))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = binary.AppendUvarint(buf, f.Calls)
		buf = binary.AppendUvarint(buf, uint64(len(f.Branches)))
		for _, bc := range f.Branches {
			buf = binary.AppendUvarint(buf, bc.Taken)
			buf = binary.AppendUvarint(buf, bc.NotTaken)
		}
	}
	return buf
}

// Decode parses an Encode-produced payload.
func Decode(data []byte) (*ModuleProfile, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("profile: empty payload")
	}
	if data[0] != SchemaVersion {
		return nil, fmt.Errorf("profile: payload schema %d, want %d", data[0], SchemaVersion)
	}
	pos := 1
	uvar := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("profile: truncated %s", what)
		}
		pos += n
		return v, nil
	}
	nf, err := uvar("function count")
	if err != nil {
		return nil, err
	}
	if nf > uint64(len(data)) {
		return nil, fmt.Errorf("profile: function count %d exceeds payload", nf)
	}
	p := &ModuleProfile{Funcs: make([]FuncProfile, 0, nf)}
	for i := uint64(0); i < nf; i++ {
		nameLen, err := uvar("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(data)-pos) {
			return nil, fmt.Errorf("profile: truncated name")
		}
		f := FuncProfile{Name: string(data[pos : pos+int(nameLen)])}
		pos += int(nameLen)
		if f.Calls, err = uvar("call count"); err != nil {
			return nil, err
		}
		nb, err := uvar("branch count")
		if err != nil {
			return nil, err
		}
		if nb > uint64(len(data)-pos) {
			return nil, fmt.Errorf("profile: branch count %d exceeds payload", nb)
		}
		if nb > 0 {
			f.Branches = make([]BranchCount, nb)
		}
		for j := range f.Branches {
			if f.Branches[j].Taken, err = uvar("taken count"); err != nil {
				return nil, err
			}
			if f.Branches[j].NotTaken, err = uvar("not-taken count"); err != nil {
				return nil, err
			}
		}
		p.Funcs = append(p.Funcs, f)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("profile: %d trailing bytes", len(data)-pos)
	}
	return p, nil
}
