package sim

import (
	"sync"

	"repro/internal/prim"
	"repro/internal/target"
)

// Frames are scratch between top-level calls: exec clears the registers and
// spill slots of every activation it enters. So a machine does not keep
// them. A top-level Call borrows a frame stack from its Code's pool and
// gives it back when the call ends, however it ends; an idle machine holds
// its heap and statistics, and the frames exist only for running calls.
//
// The governor still charges each machine for its own frames. The machine
// records, per call depth, what it has been charged for (frameCharge), and
// charges exactly when a depth first needs more than its record: the same
// charges, in the same order, as when every machine kept its own frames,
// whichever borrowed stack a call runs on.

// dframe is one activation record: the register files, the spill area,
// and the buffer the caller marshals this frame's arguments into.
type dframe struct {
	ints  []int64
	flts  []float64
	vecs  []prim.Vec
	spill []prim.Vec
	args  []argval
}

type argval struct {
	i int64
	f float64
}

// frameStack holds one activation record per call depth of one top-level
// call.
type frameStack struct {
	frames []*dframe
	// oversized is set when a call grew the stack past pooledDepth frames,
	// or a spill area or argument buffer past pooledSlots entries; put
	// trims such a stack before the pool keeps it.
	oversized bool
}

// pooledDepth and pooledSlots bound what a pooled stack keeps between
// calls: the frames of the first pooledDepth call depths, each with at most
// pooledSlots spill slots and argument entries. Ordinary calls stay within
// them and reuse everything; a deep recursion or a spill-heavy function
// allocates its excess on every call instead of pinning it in a pool that
// lives as long as the process.
const (
	pooledDepth = 16
	pooledSlots = 256
)

// regShape is the size of a machine's three register files: the target's
// allocatable registers plus the scratch registers the JIT reserves.
type regShape struct{ ints, flts, vecs int }

// frameBytes is the charge for one call depth's register files.
func (s regShape) frameBytes() int64 {
	return int64(s.ints)*8 + int64(s.flts)*8 + int64(s.vecs)*vecBytes
}

// framePool lends frame stacks to the top-level calls of every machine
// whose registers have one shape. It keeps at most as many stacks as calls
// have run at once on that shape, whatever the number of machines and
// images, and allocates nothing once it has served the same concurrency
// before. It is a plain free list rather than a sync.Pool: a sync.Pool
// drops items at random under the race detector, and the steady-state call
// must allocate nothing there too.
type framePool struct {
	shape regShape

	mu   sync.Mutex
	free []*frameStack
}

// framePools holds one pool per register shape (regShape → *framePool).
var framePools sync.Map

// framePoolFor returns the pool of the register shape of target t.
func framePoolFor(t *target.Desc) *framePool {
	s := regShape{t.IntRegs + 4, t.FloatRegs + 4, t.VecRegs + 4}
	if p, ok := framePools.Load(s); ok {
		return p.(*framePool)
	}
	p, _ := framePools.LoadOrStore(s, &framePool{shape: s})
	return p.(*framePool)
}

// get takes a free stack, or a new empty one.
func (p *framePool) get() *frameStack {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return new(frameStack)
	}
	st := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	return st
}

// put returns a stack to the pool, trimmed to its bounds.
func (p *framePool) put(st *frameStack) {
	if st.oversized {
		st.trim()
	}
	p.mu.Lock()
	p.free = append(p.free, st)
	p.mu.Unlock()
}

// trim cuts a stack back to pooledDepth frames and drops every spill area
// and argument buffer larger than pooledSlots entries.
func (st *frameStack) trim() {
	if len(st.frames) > pooledDepth {
		st.frames = append([]*dframe(nil), st.frames[:pooledDepth]...)
	}
	for _, fr := range st.frames {
		if cap(fr.spill) > pooledSlots {
			fr.spill = nil
		}
		if cap(fr.args) > pooledSlots {
			fr.args = nil
		}
	}
	st.oversized = false
}

// frameCharge is the governor's record of one call depth of one machine:
// the spill slots and argument entries charged so far. The depth's frame
// itself was charged when the record was created.
type frameCharge struct {
	spill, args int
}

// returnFrames gives the top-level call's frame stack back to the pool.
func (m *Machine) returnFrames() {
	m.code.frames.put(m.frames)
	m.frames = nil
}

// frameAt returns the borrowed frame for a call depth, growing the stack
// on first use of that depth and charging the machine for a depth it has
// never used.
func (m *Machine) frameAt(depth int) *dframe {
	shape := m.code.frames.shape
	for len(m.charged) <= depth {
		m.charged = append(m.charged, frameCharge{})
		m.memCharged += shape.frameBytes()
	}
	st := m.frames
	for len(st.frames) <= depth {
		if len(st.frames) >= pooledDepth {
			st.oversized = true
		}
		st.frames = append(st.frames, &dframe{
			ints: make([]int64, shape.ints),
			flts: make([]float64, shape.flts),
			vecs: make([]prim.Vec, shape.vecs),
		})
	}
	return st.frames[depth]
}

// argBuf returns the argument buffer of the frame at depth resized to n
// entries, charging the machine when the depth needs more entries than
// ever before.
func (m *Machine) argBuf(depth, n int) []argval {
	fr := m.frameAt(depth)
	if c := &m.charged[depth]; c.args < n {
		c.args = n
		m.memCharged += int64(n) * 16
	}
	if cap(fr.args) < n {
		fr.args = make([]argval, n)
		if n > pooledSlots {
			m.frames.oversized = true
		}
	}
	fr.args = fr.args[:n]
	return fr.args
}
