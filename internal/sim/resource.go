package sim

// Per-machine resource governance. A machine executing an untrusted module
// must be able to bound what the guest consumes: simulated instructions
// (MaxSteps, the budget the machine always had), guest memory (MemLimit,
// covering the simulated heap and the frame, spill and argument buffers
// its calls need), and wall-clock time (a deadline on the run
// context, checked on the cancellation stride). Every breach is reported as
// a typed *ResourceError so callers can map "the guest hit its limit" to a
// different failure class than "the guest is broken".
//
// Accounting is always on — charging a counter at the rare growth sites is
// free compared to the allocation itself, and it lets an ungoverned run
// report MemUsed so an operator can derive a just-sufficient limit. The
// limit checks only arm when MemLimit > 0, and none of this feeds the
// simulated statistics: a governed run that stays inside its limits is
// bit-identical (results, outputs, cycles) to an ungoverned one.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cil"
	"repro/internal/faultinject"
	"repro/internal/nisa"
	"repro/internal/prim"
)

// ResourceKind names which limit a ResourceError reports.
type ResourceKind string

// The governed resources.
const (
	// ResourceCycles is the instruction budget (Machine.MaxSteps).
	ResourceCycles ResourceKind = "cycles"
	// ResourceMem is the guest memory limit (Machine.MemLimit).
	ResourceMem ResourceKind = "mem"
	// ResourceDeadline is the wall-clock run deadline (applied by callers
	// through the run context; see core's RunDeadline).
	ResourceDeadline ResourceKind = "deadline"
)

// String returns the kind's name.
func (k ResourceKind) String() string { return string(k) }

// ResourceError reports that a run exceeded one of its governed limits. It
// is a deterministic property of the module and its limits — the same run
// under the same limits fails the same way — which is why servers map it to
// a non-retryable "resource_exhausted" class instead of a generic execution
// failure.
type ResourceError struct {
	// Kind is the exhausted resource.
	Kind ResourceKind
	// Limit is the configured bound: instructions for cycles, bytes for
	// mem, nanoseconds for deadline.
	Limit int64
	// Need is how much the run wanted when it tripped (bytes for mem;
	// zero when unknown or not meaningful for the kind).
	Need int64
	// Func is the simulated function that was executing.
	Func string
}

// Error renders the breach. The cycles form is byte-for-byte the message
// the instruction budget has always produced, so existing callers matching
// on it keep working.
func (e *ResourceError) Error() string {
	switch e.Kind {
	case ResourceCycles:
		return fmt.Sprintf("sim: instruction budget of %d exhausted in %s", e.Limit, e.Func)
	case ResourceMem:
		return fmt.Sprintf("sim: memory limit of %d bytes exceeded (%d bytes needed) in %s", e.Limit, e.Need, e.Func)
	default:
		return fmt.Sprintf("sim: run deadline of %s exceeded in %s", time.Duration(e.Limit), e.Func)
	}
}

// budgetExhausted builds the instruction-budget breach: one cold helper
// shared by the dispatch loop and every fused superinstruction case.
func (m *Machine) budgetExhausted(name string) error {
	return &ResourceError{Kind: ResourceCycles, Limit: m.maxSteps(), Func: name}
}

// Fault-injection sites of the simulator (see internal/faultinject):
// sim.panic fires at Call entry and panics out of dispatch — exercising the
// panic firewall above the machine — and sim.memgrow fires at the guest
// allocation instruction and reports a deterministic memory breach.
const (
	faultSitePanic   = "sim.panic"
	faultSiteMemGrow = "sim.memgrow"
)

// vecBytes is the host size of one vector register or spill slot.
var vecBytes = int64(len(prim.Vec{}))

// MemUsed returns the guest memory charged so far: simulated heap bytes
// plus one frame per call depth the machine has used and the largest spill
// area and argument buffer each depth has needed. Frames are borrowed per
// top-level call, but the charge is the machine's own: it does not depend
// on which frames a call ran on. Charging is deterministic, so an
// ungoverned run's MemUsed is exactly the smallest MemLimit under which the
// same run still succeeds.
func (m *Machine) MemUsed() int64 { return m.memCharged }

// memCheck is the per-activation limit check, called from the exec prologue
// after the frame and spill charges: it catches every charge the
// allocation instruction's own pre-check does not cover. Only called when
// MemLimit > 0.
func (m *Machine) memCheck(f *nisa.Func) error {
	if m.memCharged > m.MemLimit {
		return &ResourceError{Kind: ResourceMem, Limit: m.MemLimit, Need: m.memCharged, Func: f.Name}
	}
	return nil
}

// allocGoverned checks a guest allocation of n elements against the memory
// limit before any host memory is allocated, so a hostile length cannot
// drive the host out of memory on a governed machine. It mirrors
// AllocArray's growth arithmetic exactly (header plus alignment padding)
// and guards the multiplication itself. Only called when MemLimit > 0.
func (m *Machine) allocGoverned(f *nisa.Func, elem cil.Kind, n int64) error {
	es := int64(elem.Size())
	if es > 0 && n > (math.MaxInt64-arrayHeader-16)/es {
		return &ResourceError{Kind: ResourceMem, Limit: m.MemLimit, Need: math.MaxInt64, Func: f.Name}
	}
	grow := arrayHeader + n*es
	base := int64(len(m.mem))
	if rem := (base + arrayHeader + grow) % 16; rem != 0 {
		grow += 16 - rem
	}
	if m.memCharged+grow > m.MemLimit {
		return &ResourceError{Kind: ResourceMem, Limit: m.MemLimit, Need: m.memCharged + grow, Func: f.Name}
	}
	return nil
}

// injectPanic fires the sim.panic fault site (a no-op when disarmed): an
// armed error-mode fault panics out of the dispatch stack, which is how
// chaos tests drive the panic firewall above the machine.
func injectPanic(name string) {
	if flt := faultinject.At(faultSitePanic); flt != nil {
		if err := flt.Apply(); err != nil {
			panic(fmt.Sprintf("sim: injected guest panic in %s", name))
		}
	}
}

// injectMemGrow fires the sim.memgrow fault site at the guest allocation
// instruction (nil when disarmed): an armed error-mode fault reports a
// deterministic memory breach as if the allocation had blown the limit.
func (m *Machine) injectMemGrow(f *nisa.Func) error {
	if flt := faultinject.At(faultSiteMemGrow); flt != nil {
		if err := flt.Apply(); err != nil {
			return &ResourceError{Kind: ResourceMem, Limit: m.MemLimit, Need: math.MaxInt64, Func: f.Name}
		}
	}
	return nil
}
