package jit

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/anno"
	"repro/internal/nisa"
)

// ScratchRegs is the number of per-class scratch registers the JIT reserves
// beyond the allocatable register file for spill reloads. The simulated
// register files are sized to target.IntRegs + ScratchRegs (and likewise for
// the other classes).
const ScratchRegs = 3

// interval is the live range and estimated dynamic weight of one virtual
// register over the linearized native code.
type interval struct {
	used   bool
	start  int
	end    int
	weight int64
}

// lsActive is one live register assignment of the linear-scan allocator.
type lsActive struct{ vreg, reg int }

// weighted pairs a virtual register with its allocation priority.
type weighted struct {
	vreg   int
	weight int64
}

// assigner performs register assignment and spill-code insertion on the
// virtual-register code produced by the translator. Like the translator it
// is pooled per compile worker: every work buffer below keeps its capacity
// between compilations, so a warm assigner runs allocation-free except for
// the final exactly-sized instruction slice it hands the compiled function.
type assigner struct {
	c  *Compiler
	tr *translator
	f  *nisa.Func

	annot *anno.RegAllocInfo
	// freqs, when non-nil, holds observed per-instruction execution
	// frequencies (profile.BlockFreqs) that replace the static 10^depth
	// weight heuristic (CompileMethodProfiled).
	freqs []int64

	intervals []interval
	assigned  []int // physical register index per vreg, -1 = spilled/unused
	slot      []int // spill slot per vreg, -1 = none
	numSlots  int

	steps int64

	// Reusable work buffers (capacities survive across compilations).
	defBuf, usesBuf []*nisa.Reg // regRefs results
	regionBuf       [][2]int    // loopRegions result
	classBuf        []int       // vregsOfClass result
	orderBuf        []int       // linearScan / weightOrder allocation order
	freeBuf         []int       // linearScan free-register stack
	activeBuf       []lsActive  // linearScan active set
	inClassBuf      []bool      // splitOrder: vreg is in the current class
	takenBuf        []bool      // splitOrder: vreg already ordered
	slotVregBuf     []int       // splitOrder: variable slot -> named vreg
	namedBuf        []weighted  // splitOrder: annotated variables
	restBuf         []weighted  // splitOrder: temporaries
	mergeBuf        []int       // splitOrder merged order
	perRegBuf       [][]int     // priorityAllocate per-register assignments
	outBuf          []nisa.Instr
	preBuf, postBuf []nisa.Instr // rewrite spill loads/stores around one instr
	cur             nisa.Instr   // rewrite: the instruction being rewritten
	posMapBuf       []int        // rewrite old->new instruction positions
}

// reset readies a pooled assigner for one method. annot is the method's
// register-allocation annotation after load-time negotiation (nil when
// absent or fallen back); it is only consulted in RegAllocSplit mode.
func (a *assigner) reset(c *Compiler, tr *translator, f *nisa.Func, annot *anno.RegAllocInfo) {
	a.c, a.tr, a.f = c, tr, f
	a.annot = nil
	a.freqs = nil
	if c.Opts.RegAlloc == RegAllocSplit {
		a.annot = annot
	}
	a.numSlots = 0
	a.steps = 0
}

func (a *assigner) run() error {
	n := len(a.tr.vregs)
	if cap(a.intervals) < n {
		a.intervals = make([]interval, n)
	} else {
		a.intervals = a.intervals[:n]
		clear(a.intervals)
	}
	a.assigned = growInts(a.assigned, n)
	a.slot = growInts(a.slot, n)
	for i := range a.assigned {
		a.assigned[i] = -1
		a.slot[i] = -1
	}

	a.computeIntervals()
	a.extendAcrossLoops()
	a.computeWeights()

	for _, class := range []nisa.RegClass{nisa.ClassInt, nisa.ClassFloat, nisa.ClassVec} {
		if err := a.allocateClass(class); err != nil {
			return err
		}
	}
	a.rewrite()

	a.f.FrameSlots = a.numSlots
	a.f.Stats.CompileSteps += a.steps
	return nil
}

// regRefs returns the register operands of an instruction split into
// definitions and uses. The returned pointers alias the instruction so the
// rewriter can substitute physical registers in place; the backing slices
// are reused on the next call.
func (a *assigner) regRefs(in *nisa.Instr) (defs, uses []*nisa.Reg) {
	defs, uses = a.defBuf[:0], a.usesBuf[:0]
	add := func(list []*nisa.Reg, r *nisa.Reg) []*nisa.Reg {
		if r.Class == nisa.ClassNone {
			return list
		}
		return append(list, r)
	}
	switch in.Op {
	case nisa.Store, nisa.VStore, nisa.SpillStore:
		uses = add(uses, &in.Rd)
		uses = add(uses, &in.Ra)
		uses = add(uses, &in.Rb)
	case nisa.Ret:
		uses = add(uses, &in.Ra)
	case nisa.Call:
		for i := range in.Args {
			uses = add(uses, &in.Args[i])
		}
		defs = add(defs, &in.Rd)
	default:
		defs = add(defs, &in.Rd)
		uses = add(uses, &in.Ra)
		uses = add(uses, &in.Rb)
	}
	a.defBuf, a.usesBuf = defs, uses
	return defs, uses
}

func (a *assigner) touch(vreg, pos int) {
	iv := &a.intervals[vreg]
	if !iv.used {
		iv.used = true
		iv.start, iv.end = pos, pos
		return
	}
	if pos < iv.start {
		iv.start = pos
	}
	if pos > iv.end {
		iv.end = pos
	}
}

func (a *assigner) computeIntervals() {
	for pos := range a.f.Code {
		defs, uses := a.regRefs(&a.f.Code[pos])
		for _, r := range defs {
			if r.Virtual {
				a.touch(r.Index, pos)
			}
		}
		for _, r := range uses {
			if r.Virtual {
				a.touch(r.Index, pos)
			}
		}
	}
}

// loopRegions returns the [start, end] index ranges of backward branches.
// The result is valid until the next call.
func (a *assigner) loopRegions() [][2]int {
	regions := a.regionBuf[:0]
	for pos := range a.f.Code {
		if in := &a.f.Code[pos]; in.Op.IsBranch() && in.Target <= pos {
			regions = append(regions, [2]int{in.Target, pos})
		}
	}
	a.regionBuf = regions
	return regions
}

// extendAcrossLoops widens every live interval that overlaps a loop so it
// covers the whole loop: a value live anywhere inside the loop must keep its
// location across the back edge.
func (a *assigner) extendAcrossLoops() {
	regions := a.loopRegions()
	for changed := true; changed; {
		changed = false
		for _, reg := range regions {
			for i := range a.intervals {
				iv := &a.intervals[i]
				if !iv.used || iv.end < reg[0] || iv.start > reg[1] {
					continue
				}
				if iv.start > reg[0] {
					iv.start = reg[0]
					changed = true
				}
				if iv.end < reg[1] {
					iv.end = reg[1]
					changed = true
				}
				a.steps++
			}
		}
	}
}

// computeWeights estimates dynamic use counts: every occurrence counts
// 10^loop-depth — or, when an execution profile supplied observed block
// frequencies, exactly the frequency of its instruction's block.
func (a *assigner) computeWeights() {
	if a.freqs != nil {
		for pos := range a.f.Code {
			w := a.freqs[pos]
			if w < 1 {
				w = 1
			}
			defs, uses := a.regRefs(&a.f.Code[pos])
			for _, r := range defs {
				if r.Virtual {
					a.intervals[r.Index].weight += w
				}
			}
			for _, r := range uses {
				if r.Virtual {
					a.intervals[r.Index].weight += w
				}
			}
		}
		return
	}
	regions := a.loopRegions()
	depthAt := func(pos int) int {
		d := 0
		for _, reg := range regions {
			if pos >= reg[0] && pos <= reg[1] {
				d++
			}
		}
		if d > 4 {
			d = 4
		}
		return d
	}
	for pos := range a.f.Code {
		defs, uses := a.regRefs(&a.f.Code[pos])
		w := int64(1)
		for i, d := 0, depthAt(pos); i < d; i++ {
			w *= 10
		}
		for _, r := range defs {
			if r.Virtual {
				a.intervals[r.Index].weight += w
			}
		}
		for _, r := range uses {
			if r.Virtual {
				a.intervals[r.Index].weight += w
			}
		}
	}
}

// classRegs returns the allocatable register count for a class.
func (a *assigner) classRegs(class nisa.RegClass) int {
	switch class {
	case nisa.ClassInt:
		return a.c.Target.IntRegs
	case nisa.ClassFloat:
		return a.c.Target.FloatRegs
	default:
		return a.c.Target.VecRegs
	}
}

// vregsOfClass lists the used virtual registers of a class. The result is
// valid until the next call.
func (a *assigner) vregsOfClass(class nisa.RegClass) []int {
	out := a.classBuf[:0]
	for i, info := range a.tr.vregs {
		if info.class == class && a.intervals[i].used {
			out = append(out, i)
		}
	}
	a.classBuf = out
	return out
}

func (a *assigner) allocateClass(class nisa.RegClass) error {
	vregs := a.vregsOfClass(class)
	if len(vregs) == 0 {
		return nil
	}
	numRegs := a.classRegs(class)
	if numRegs <= 0 {
		if class == nisa.ClassVec {
			return fmt.Errorf("vector registers required but target %q has none", a.c.Target.Name)
		}
		// Pathological configuration: everything spills.
		for _, v := range vregs {
			a.spill(v)
		}
		return nil
	}

	mode := a.c.Opts.RegAlloc
	if mode == RegAllocSplit && a.annot == nil {
		mode = RegAllocOnline
	}
	// Charge each mode the analysis work it has to perform online. The
	// split mode follows the offline priority order directly; the other
	// modes pay for ordering the intervals themselves, and the
	// offline-quality mode additionally pays for recomputing profitability
	// weights over the whole native code (the work the annotation avoids).
	sortCost := int64(len(vregs)) * int64(log2(len(vregs)))
	switch mode {
	case RegAllocOnline:
		a.steps += sortCost
		a.linearScan(vregs, numRegs)
	case RegAllocSplit:
		a.priorityAllocate(numRegs, a.splitOrder(class, vregs))
	case RegAllocOptimal:
		a.steps += int64(len(a.f.Code)) + sortCost
		a.priorityAllocate(numRegs, a.weightOrder(vregs))
	default:
		return fmt.Errorf("unknown register allocation mode %v", mode)
	}
	return nil
}

// log2 returns the integer binary logarithm of n (at least 1).
func log2(n int) int {
	l := 1
	for n > 2 {
		n >>= 1
		l++
	}
	return l
}

func (a *assigner) spill(v int) {
	if a.slot[v] >= 0 {
		return
	}
	a.slot[v] = a.numSlots
	a.numSlots++
	a.f.Stats.SpillSlots++
	a.f.Stats.SpillWeight += a.intervals[v].weight
}

// linearScan is the baseline purely-online allocator: Poletto/Sarkar linear
// scan in interval start order with the furthest-end spill heuristic and no
// profitability information.
func (a *assigner) linearScan(vregs []int, numRegs int) {
	order := append(a.orderBuf[:0], vregs...)
	slices.SortFunc(order, func(x, y int) int {
		if c := cmp.Compare(a.intervals[x].start, a.intervals[y].start); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	free := a.freeBuf[:0]
	for r := numRegs - 1; r >= 0; r-- {
		free = append(free, r)
	}
	active := a.activeBuf[:0]

	expire := func(pos int) {
		keep := active[:0]
		for _, x := range active {
			if a.intervals[x.vreg].end < pos {
				free = append(free, x.reg)
			} else {
				keep = append(keep, x)
			}
		}
		active = keep
	}

	for _, v := range order {
		a.steps++
		iv := a.intervals[v]
		expire(iv.start)
		if len(free) > 0 {
			reg := free[len(free)-1]
			free = free[:len(free)-1]
			a.assigned[v] = reg
			active = append(active, lsActive{v, reg})
			continue
		}
		// Spill the interval that ends furthest in the future.
		furthest := -1
		for i, x := range active {
			if furthest < 0 || a.intervals[x.vreg].end > a.intervals[active[furthest].vreg].end {
				furthest = i
			}
		}
		if furthest >= 0 && a.intervals[active[furthest].vreg].end > iv.end {
			victim := active[furthest]
			a.spill(victim.vreg)
			a.assigned[victim.vreg] = -1
			a.assigned[v] = victim.reg
			active[furthest] = lsActive{v, victim.reg}
		} else {
			a.spill(v)
		}
	}
	a.orderBuf, a.freeBuf, a.activeBuf = order, free, active
}

// splitOrder builds the allocation order from the offline annotation. Named
// variables take their spill priority (weight) from the annotation — the
// offline half already ordered them — while the JIT's own short-lived
// temporaries keep their locally-computed weight; the two sorted sequences
// are merged by weight. This is the linear-time online half of the split
// register allocator: no interference or profitability analysis is redone
// for the program's variables.
func (a *assigner) splitOrder(class nisa.RegClass, vregs []int) []int {
	nv := len(a.tr.vregs)
	inClass := growBools(a.inClassBuf, nv)
	for _, v := range vregs {
		inClass[v] = true
	}
	// Variable slot -> named vreg of this class (the annotation talks in
	// slots). Slots are params first, then locals; a slot the annotation
	// names beyond that range is simply ignored, like a map miss was.
	numSlots := len(a.tr.m.Params) + len(a.tr.m.Locals)
	slotVreg := growInts(a.slotVregBuf, numSlots)
	for i := range slotVreg {
		slotVreg[i] = -1
	}
	for v, info := range a.tr.vregs {
		if info.named && inClass[v] {
			slotVreg[info.slot] = v
		}
	}
	// Named variables in annotation order (already sorted by weight).
	named := a.namedBuf[:0]
	taken := growBools(a.takenBuf, nv)
	// With v1 spill-class metadata the annotation itself says which
	// register class each slot belongs to, so intervals of other classes
	// are skipped up front instead of being re-derived (looked up against
	// this class's slot set) on every per-class pass.
	classes := a.annot.Classes
	want := spillClassOf(class)
	for _, iv := range a.annot.Intervals {
		if classes != nil && iv.Slot < len(classes) && classes[iv.Slot] != anno.SpillClassUnknown && classes[iv.Slot] != want {
			continue
		}
		if iv.Slot >= 0 && iv.Slot < numSlots {
			if v := slotVreg[iv.Slot]; v >= 0 && !taken[v] {
				named = append(named, weighted{vreg: v, weight: int64(iv.Weight)})
				taken[v] = true
			}
		}
		a.steps++
	}
	// Temporaries (and any named slot missing from the annotation) by
	// decreasing native weight.
	rest := a.restBuf[:0]
	for _, v := range vregs {
		if !taken[v] {
			rest = append(rest, weighted{vreg: v, weight: a.intervals[v].weight})
		}
	}
	slices.SortFunc(rest, func(x, y weighted) int {
		if c := cmp.Compare(y.weight, x.weight); c != 0 {
			return c
		}
		return cmp.Compare(x.vreg, y.vreg)
	})
	// Merge the two weight-sorted sequences (linear).
	order := a.mergeBuf[:0]
	i, j := 0, 0
	for i < len(named) || j < len(rest) {
		a.steps++
		if j >= len(rest) || (i < len(named) && named[i].weight >= rest[j].weight) {
			order = append(order, named[i].vreg)
			i++
		} else {
			order = append(order, rest[j].vreg)
			j++
		}
	}
	a.inClassBuf, a.takenBuf, a.slotVregBuf = inClass, taken, slotVreg
	a.namedBuf, a.restBuf, a.mergeBuf = named, rest, order
	return order
}

// spillClassOf maps a native register class to its annotation-level spill
// class.
func spillClassOf(class nisa.RegClass) anno.SpillClass {
	switch class {
	case nisa.ClassInt:
		return anno.SpillClassInt
	case nisa.ClassFloat:
		return anno.SpillClassFloat
	case nisa.ClassVec:
		return anno.SpillClassVec
	}
	return anno.SpillClassUnknown
}

// weightOrder orders every virtual register by decreasing locally-computed
// weight: the "offline quality" reference allocation.
func (a *assigner) weightOrder(vregs []int) []int {
	order := append(a.orderBuf[:0], vregs...)
	slices.SortFunc(order, func(x, y int) int {
		if c := cmp.Compare(a.intervals[y].weight, a.intervals[x].weight); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	a.orderBuf = order
	return order
}

// priorityAllocate assigns registers greedily in the given priority order,
// using exact interval overlap as the interference test.
func (a *assigner) priorityAllocate(numRegs int, order []int) {
	if cap(a.perRegBuf) < numRegs {
		a.perRegBuf = make([][]int, numRegs)
	}
	perReg := a.perRegBuf[:numRegs] // vregs assigned to each register
	for r := range perReg {
		perReg[r] = perReg[r][:0]
	}
	overlaps := func(x, y int) bool {
		ix, iy := a.intervals[x], a.intervals[y]
		return ix.start <= iy.end && iy.start <= ix.end
	}
	for _, v := range order {
		placed := false
		for r := 0; r < numRegs && !placed; r++ {
			conflict := false
			for _, other := range perReg[r] {
				a.steps++
				if overlaps(v, other) {
					conflict = true
					break
				}
			}
			if !conflict {
				perReg[r] = append(perReg[r], v)
				a.assigned[v] = r
				placed = true
			}
		}
		if !placed {
			a.spill(v)
		}
	}
}

// rewrite replaces virtual registers with physical ones and inserts spill
// loads/stores around instructions that touch spilled values. The final
// instruction slice handed to the compiled function is a fresh, exactly
// sized allocation — never pooled memory.
func (a *assigner) rewrite() {
	out := a.outBuf[:0]
	// oldToNew maps original instruction indices to their new positions so
	// branch targets can be fixed afterwards.
	oldToNew := growInts(a.posMapBuf, len(a.f.Code)+1)

	phys := func(r nisa.Reg) nisa.Reg {
		return nisa.Reg{Class: r.Class, Index: a.assigned[r.Index]}
	}
	scratch := func(class nisa.RegClass, n int) nisa.Reg {
		return nisa.Reg{Class: class, Index: a.classRegs(class) + n}
	}

	// Every call's ArgSlots is carved from one slab: one allocation a
	// method, not one a call.
	slotSlab := 0
	for pos := range a.f.Code {
		if a.f.Code[pos].Op == nisa.Call {
			slotSlab += len(a.f.Code[pos].Args)
		}
	}
	slab := make([]int, slotSlab)

	// The instruction being rewritten lives in the assigner, not in a local:
	// regRefs hands out pointers into it, which would move a local to the
	// heap once per native instruction.
	in := &a.cur
	for pos := range a.f.Code {
		oldToNew[pos] = len(out)
		*in = a.f.Code[pos]
		// Calls keep spilled arguments in their frame slots; the simulator
		// reads them from there directly. Args is the translator's own
		// slice, rewritten in place: the virtual-register code dies here.
		if in.Op == nisa.Call {
			args := in.Args
			slots := slab[:len(args):len(args)]
			slab = slab[len(args):]
			for i, r := range args {
				slots[i] = -1
				if r.Virtual && a.assigned[r.Index] < 0 {
					slots[i] = a.slot[r.Index]
					args[i] = nisa.NoReg
					a.f.Stats.SpillLoads++
				} else if r.Virtual {
					args[i] = phys(r)
				}
			}
			in.ArgSlots = slots
			if in.Rd.Class != nisa.ClassNone && in.Rd.Virtual {
				if a.assigned[in.Rd.Index] < 0 {
					slot := a.slot[in.Rd.Index]
					in.Rd = scratch(in.Rd.Class, 0)
					out = append(out, *in)
					out = append(out, nisa.Instr{Op: nisa.SpillStore, Rd: in.Rd, Imm: int64(slot)})
					a.f.Stats.SpillStores++
					continue
				}
				in.Rd = phys(in.Rd)
			}
			out = append(out, *in)
			continue
		}

		defs, uses := a.regRefs(in)
		nextScratch := 0
		pre, post := a.preBuf[:0], a.postBuf[:0]
		for _, u := range uses {
			if !u.Virtual {
				continue
			}
			if a.assigned[u.Index] >= 0 {
				*u = phys(*u)
				continue
			}
			s := scratch(u.Class, nextScratch)
			nextScratch++
			pre = append(pre, nisa.Instr{Op: nisa.SpillLoad, Rd: s, Imm: int64(a.slot[u.Index])})
			a.f.Stats.SpillLoads++
			*u = s
		}
		for _, d := range defs {
			if !d.Virtual {
				continue
			}
			if a.assigned[d.Index] >= 0 {
				*d = phys(*d)
				continue
			}
			s := scratch(d.Class, 0)
			post = append(post, nisa.Instr{Op: nisa.SpillStore, Rd: s, Imm: int64(a.slot[d.Index])})
			a.f.Stats.SpillStores++
			*d = s
		}
		out = append(out, pre...)
		out = append(out, *in)
		out = append(out, post...)
		a.preBuf, a.postBuf = pre, post
	}
	oldToNew[len(a.f.Code)] = len(out)

	// Re-target branches to the new instruction positions.
	for i := range out {
		if out[i].Op.IsBranch() {
			out[i].Target = oldToNew[out[i].Target]
		}
	}
	final := make([]nisa.Instr, len(out))
	copy(final, out)
	a.f.Code = final
	a.outBuf, a.posMapBuf = out, oldToNew
}
