package core

// The panic firewall at the run boundary. The machine executes untrusted
// bytecode; a bug there (or hostile input that slipped past verification)
// must surface as a structured per-run error, never as a process crash and
// never as a machine left in a half-executed state. Every run therefore
// goes through guardedCall: a panic escaping dispatch is recovered into a
// *PanicError, the machine is quarantined, and the next run transparently
// rebuilds it from the deployment's image — the same cheap instantiation a
// fresh deployment performs, reusing the cached native code — before
// executing. Quarantines and rebuilds are counted on GuardStats, the
// deployment-level twin of TierStats.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"

	"repro/internal/sim"
)

// EnvMemLimit is the SPLITVM_MEM_LIMIT override, read once per process: a
// positive byte count governs the guest memory of every deployment. CI uses
// it to prove the governor's zero-drift property — the full gated benchmark
// suite runs generously governed and must match the ungoverned baseline
// exactly — without threading an option through every harness (the same
// pattern as SPLITVM_TIER and SPLITVM_LAZY).
var EnvMemLimit = sync.OnceValue(func() int64 {
	v := os.Getenv("SPLITVM_MEM_LIMIT")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
})

// PanicError is a guest panic recovered at the run boundary: the run failed,
// the machine was quarantined, and the next run gets a rebuilt machine.
type PanicError struct {
	// Val is the value the guest panicked with.
	Val any
}

// Error renders the recovered panic.
func (e *PanicError) Error() string { return fmt.Sprintf("core: guest panic: %v", e.Val) }

// GuardStats counts the panic firewall's activity on one deployment. Like
// TierStats this is host-side bookkeeping: none of it feeds the simulated
// statistics.
type GuardStats struct {
	// Quarantines counts runs that ended in a recovered panic, taking the
	// machine out of service until its rebuild.
	Quarantines int64 `json:"quarantines"`
	// Rebuilds counts machines transparently re-instantiated from their
	// image at the start of the run after a quarantine.
	Rebuilds int64 `json:"rebuilds"`
}

// GuardStats returns a snapshot of the deployment's firewall activity.
func (d *Deployment) GuardStats() GuardStats { return d.guard }

// Quarantined reports whether the last run panicked and the machine is
// waiting to be rebuilt (the next run clears it).
func (d *Deployment) Quarantined() bool { return d.quarantined }

// SetMemLimit bounds the guest memory the deployment's machine may consume
// (see sim.Machine.MemLimit); the limit survives quarantine rebuilds.
// 0 — the default — leaves guest memory ungoverned.
func (d *Deployment) SetMemLimit(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	d.memLimit = bytes
	d.Machine.MemLimit = bytes
}

// MemLimit returns the configured guest memory limit (0 = ungoverned).
func (d *Deployment) MemLimit() int64 { return d.memLimit }

// rebuild replaces a quarantined machine with a fresh one. Deployments
// instantiated from an image (or a link set) rebuild exactly like a new
// instantiation — sharing the cached native code, re-wiring the lazy
// resolver — and the per-machine configuration that is not part of the
// image (tiering, memory limit) is re-applied from what the deployment
// remembers. Machines constructed directly over a program fall back to a
// fresh machine on the same program.
func (d *Deployment) rebuild() {
	switch {
	case d.linked != nil:
		nd := d.linked.Instantiate()
		d.Machine, d.Program = nd.Machine, nd.Program
	case d.Image != nil:
		nd := d.Image.Instantiate()
		d.Machine, d.Program = nd.Machine, nd.Program
	default:
		d.Machine = sim.New(d.Target, d.Program)
	}
	if d.tierOpts != nil {
		d.EnableTiering(*d.tierOpts)
	}
	if d.memLimit > 0 {
		d.Machine.MemLimit = d.memLimit
	}
	d.quarantined = false
	d.guard.Rebuilds++
}

// guardedCall is the run boundary every Run/RunContext/RunKernel execution
// passes through: rebuild a quarantined machine, apply the wall-clock run
// deadline, execute, and catch anything that panics out of dispatch.
func (d *Deployment) guardedCall(ctx context.Context, entry string, args ...sim.Value) (res sim.Value, err error) {
	if d.quarantined {
		d.rebuild()
	}
	parent := ctx
	if d.RunDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.RunDeadline)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			d.quarantined = true
			d.guard.Quarantines++
			err = &PanicError{Val: r}
		}
	}()
	res, err = d.Machine.CallContext(ctx, entry, args...)
	// A deadline the governor imposed — not one the caller's own context
	// already carried — is a resource breach, not a cancellation.
	if err != nil && d.RunDeadline > 0 && ctx.Err() == context.DeadlineExceeded && parent.Err() == nil {
		err = &sim.ResourceError{Kind: sim.ResourceDeadline, Limit: int64(d.RunDeadline), Func: entry}
	}
	return res, err
}
