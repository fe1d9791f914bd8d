// Package regalloc implements the offline half of split register allocation
// (Diouf et al., cited in Section 4 of the paper): an analysis over the
// portable bytecode that computes, for every variable slot (arguments and
// locals), its live range and an estimated dynamic access weight, and encodes
// the result as a compact, target-independent annotation.
//
// The online half lives in the JIT (internal/jit, RegAllocSplit mode): it
// reads the annotation and assigns physical registers in priority order in a
// single linear pass, instead of re-deriving spill priorities itself. The
// register-allocation experiment (EXP-RA) compares the spills produced by
// the baseline online allocator, the annotation-driven allocator and a full
// offline-quality allocation.
package regalloc

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/anno"
	"repro/internal/cil"
)

// slotState accumulates one variable slot's live range and access weight.
type slotState struct {
	used       bool
	start, end int
	weight     uint32
}

// loopRegion is one backward-branch region of the bytecode.
type loopRegion struct{ start, end int }

// analyzeScratch holds the per-method work buffers of the offline analysis.
// They are pooled for the same reason the online JIT pools its scratch
// state: the analysis runs once per method per offline compilation, and the
// buffers never escape (the annotation intervals are built fresh).
type analyzeScratch struct {
	slots   []slotState
	regions []loopRegion
}

var analyzePool = sync.Pool{New: func() any { return new(analyzeScratch) }}

// Analysis is the offline allocation result for one method.
type Analysis struct {
	Method string
	Info   *anno.RegAllocInfo
	// Steps counts elementary analysis operations; the Figure 1 experiment
	// uses it to show how much work the offline step absorbs.
	Steps int64
}

// AnalyzeMethod computes live ranges and spill weights for every variable
// slot of the method (arguments first, then locals), over the bytecode.
func AnalyzeMethod(m *cil.Method) *Analysis {
	numSlots := len(m.Params) + len(m.Locals)
	a := &Analysis{Method: m.Name, Info: &anno.RegAllocInfo{NumSlots: numSlots}}

	// Record each slot's register class (the v1 spill-class metadata): it is
	// a byte per slot offline, and it saves the online allocator from
	// re-deriving the class of every annotated interval from the bytecode
	// types. The v0 encoding simply has no room for it.
	a.Info.Classes = make([]anno.SpillClass, 0, numSlots)
	for _, t := range m.Params {
		a.Info.Classes = append(a.Info.Classes, anno.SpillClassOf(t))
	}
	for _, t := range m.Locals {
		a.Info.Classes = append(a.Info.Classes, anno.SpillClassOf(t))
	}

	sc := analyzePool.Get().(*analyzeScratch)
	defer analyzePool.Put(sc)
	if cap(sc.slots) < numSlots {
		sc.slots = make([]slotState, numSlots)
	} else {
		sc.slots = sc.slots[:numSlots]
		clear(sc.slots)
	}
	slots := sc.slots

	// Loop regions from backward branches give the nesting depth used to
	// weight accesses (an access in a loop body is worth 10x one outside).
	regions := sc.regions[:0]
	for pc, in := range m.Code {
		if in.Op.IsBranch() && in.Target <= pc {
			regions = append(regions, loopRegion{in.Target, pc})
		}
	}
	sc.regions = regions
	depthAt := func(pc int) int {
		d := 0
		for _, r := range regions {
			if pc >= r.start && pc <= r.end {
				d++
			}
		}
		if d > 4 {
			d = 4
		}
		return d
	}

	slotOf := func(in cil.Instr) int {
		switch in.Op {
		case cil.LdArg, cil.StArg:
			return int(in.Int)
		case cil.LdLoc, cil.StLoc:
			return len(m.Params) + int(in.Int)
		}
		return -1
	}

	for pc, in := range m.Code {
		s := slotOf(in)
		if s < 0 {
			continue
		}
		a.Steps++
		st := &slots[s]
		if !st.used {
			st.used = true
			st.start, st.end = pc, pc
		}
		if pc < st.start {
			st.start = pc
		}
		if pc > st.end {
			st.end = pc
		}
		w := uint32(1)
		for i, d := 0, depthAt(pc); i < d; i++ {
			w *= 10
		}
		st.weight += w
	}

	// Arguments are live from method entry even before their first use.
	for i := range m.Params {
		if slots[i].used {
			slots[i].start = 0
		}
	}

	// Extend ranges across loops: a slot accessed anywhere inside a loop is
	// live across its back edge.
	for changed := true; changed; {
		changed = false
		for _, r := range regions {
			for i := range slots {
				st := &slots[i]
				if !st.used || st.end < r.start || st.start > r.end {
					continue
				}
				a.Steps++
				if st.start > r.start {
					st.start = r.start
					changed = true
				}
				if st.end < r.end {
					st.end = r.end
					changed = true
				}
			}
		}
	}

	used := 0
	for _, st := range slots {
		if st.used {
			used++
		}
	}
	if used > 0 {
		a.Info.Intervals = make([]anno.SlotInterval, 0, used)
	}
	for i, st := range slots {
		if st.used {
			a.Info.Intervals = append(a.Info.Intervals, anno.SlotInterval{
				Slot: i, Start: st.start, End: st.end + 1, Weight: st.weight,
			})
		}
	}
	// Decreasing weight, ties by slot index: this order *is* the portable
	// allocation decision the online assigner follows.
	slices.SortFunc(a.Info.Intervals, func(x, y anno.SlotInterval) int {
		if c := cmp.Compare(y.Weight, x.Weight); c != 0 {
			return c
		}
		return cmp.Compare(x.Slot, y.Slot)
	})
	return a
}

// AnnotateMethod runs the offline analysis and attaches its annotation to the
// method in the legacy v0 encoding. It returns the analysis for inspection.
func AnnotateMethod(m *cil.Method) *Analysis {
	a, _ := AnnotateMethodV(m, anno.V0)
	return a
}

// AnnotateMethodV runs the offline analysis and attaches its annotation at
// the given schema version (anno.V0 or anno.V1).
func AnnotateMethodV(m *cil.Method, version uint32) (*Analysis, error) {
	a := AnalyzeMethod(m)
	if err := anno.AttachRegAllocInfoV(m, a.Info, version); err != nil {
		return nil, err
	}
	return a, nil
}

// AnnotateModule runs the offline register allocation analysis on every
// method of the module, attaching legacy v0 annotations.
func AnnotateModule(mod *cil.Module) []*Analysis {
	out, _ := AnnotateModuleV(mod, anno.V0)
	return out
}

// AnnotateModuleV annotates every method at the given schema version.
func AnnotateModuleV(mod *cil.Module, version uint32) ([]*Analysis, error) {
	out := make([]*Analysis, 0, len(mod.Methods))
	for _, m := range mod.Methods {
		a, err := AnnotateMethodV(m, version)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
