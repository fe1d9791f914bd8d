package sim

import (
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/nisa"
	"repro/internal/target"
)

// Code is the pre-decoded form of one program's functions on one target:
// the records decode.go lowers native code to, owned by whoever owns the
// native code (an image or a link set in internal/core) and shared by every
// machine executing it, so an idle machine holds registers, frames and heap,
// not a copy of the program. A function is decoded on its first call on
// any of the machines and published once; readers take the published table
// with one atomic load, no lock and no read-modify-write. Published records
// are immutable except the callee slot of a call site (see callSite).
type Code struct {
	target *target.Desc

	mu    sync.Mutex // serializes decoding and publication
	funcs atomic.Pointer[map[*nisa.Func]*dfunc]
}

// NewCode returns an empty decoded-code table for programs compiled for t.
func NewCode(t *target.Desc) *Code {
	c := &Code{target: t}
	c.funcs.Store(&map[*nisa.Func]*dfunc{})
	return c
}

// decoded returns the pre-decoded form of f, decoding and publishing it on
// first use. prog is the calling machine's program; call sites bind the
// callees it already holds.
func (c *Code) decoded(f *nisa.Func, prog *nisa.Program) *dfunc {
	if df := (*c.funcs.Load())[f]; df != nil {
		return df
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.funcs.Load()
	if df := old[f]; df != nil {
		return df
	}
	df := c.decodeFunc(f, prog)
	next := make(map[*nisa.Func]*dfunc, len(old)+1)
	maps.Copy(next, old)
	next[f] = df
	c.funcs.Store(&next)
	return df
}

// Len returns how many functions have been decoded.
func (c *Code) Len() int { return len(*c.funcs.Load()) }
