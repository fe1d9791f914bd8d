package splitvm

// The resource governor on the public surface. Deployed modules are a trust
// boundary — a hostile or buggy byte stream must never take down the engine
// — so a deployment can be governed per machine: a guest memory limit
// (WithMemLimit / SPLITVM_MEM_LIMIT), a wall-clock run deadline
// (WithRunDeadline), and the instruction budget the machine always had. A
// breach surfaces as a typed *ResourceError; a panic escaping dispatch is
// recovered by the core's panic firewall into a *PanicError, the machine is
// quarantined and transparently rebuilt from its cached image on the next
// run (counted on GuardStats). Like tiering, the governor is per machine
// and deliberately not part of the code-cache key: a governed run inside
// its limits executes the exact instruction and cycle sequence of an
// ungoverned one, so governed and ungoverned deployments share images.

import (
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// ResourceError is the typed error a governed run returns when it exceeds
// one of its limits: instruction budget (ResourceCycles), guest memory
// (ResourceMem) or wall-clock deadline (ResourceDeadline). It is a
// deterministic property of the module and its limits, so servers map it to
// a non-retryable resource_exhausted class instead of a generic execution
// failure. Detect it with errors.As.
type ResourceError = sim.ResourceError

// ResourceKind names which limit a ResourceError reports.
type ResourceKind = sim.ResourceKind

// The governed resources (see ResourceError).
const (
	// ResourceCycles is the instruction budget.
	ResourceCycles = sim.ResourceCycles
	// ResourceMem is the guest memory limit.
	ResourceMem = sim.ResourceMem
	// ResourceDeadline is the wall-clock run deadline.
	ResourceDeadline = sim.ResourceDeadline
)

// PanicError is a guest panic recovered by the panic firewall at the run
// boundary: the run failed, the machine was quarantined, and the next run
// transparently gets a machine rebuilt from the deployment's image.
type PanicError = core.PanicError

// GuardStats counts a deployment's panic-firewall activity: quarantines
// (runs that ended in a recovered panic) and rebuilds (machines
// re-instantiated from their image afterwards). Host-side bookkeeping, like
// TierStats — none of it feeds simulated statistics.
type GuardStats = core.GuardStats

// WithMemLimit bounds the guest memory a deployment's machine may consume —
// the simulated heap plus the pooled frame and argument buffers grown on
// the guest's behalf — in bytes; a breach fails the run with a
// *ResourceError of kind ResourceMem, checked before the offending
// allocation so a hostile array length never reaches the host allocator.
// 0 (the default) leaves guest memory ungoverned. The limit is per machine
// and deliberately not part of the code-cache key: accounting never
// perturbs results or simulated cycles, so governed and ungoverned
// deployments share images. SPLITVM_MEM_LIMIT sets the process-wide
// default, like SPLITVM_TIER does for tiering.
func WithMemLimit(bytes int64) DeployOption {
	return deployOption(func(c *config) {
		if bytes < 0 {
			bytes = 0
		}
		c.memLimit = bytes
	})
}

// WithRunDeadline bounds the wall-clock time of each run on the deployment:
// the run context is derived with this timeout and the machine aborts on
// its cancellation stride, failing the run with a *ResourceError of kind
// ResourceDeadline (a deadline or cancellation the caller's own context
// carried still reports as a cancellation). 0 (the default) leaves runs
// unbounded. Per machine, never part of the cache key; a run that finishes
// inside its deadline is instruction- and cycle-identical to an unbounded
// one.
func WithRunDeadline(d time.Duration) DeployOption {
	return deployOption(func(c *config) {
		if d < 0 {
			d = 0
		}
		c.runDeadline = d
	})
}

// applyGovernor wires the resolved governor configuration onto a freshly
// instantiated deployment (the per-machine half that is not in the image).
func (c *config) applyGovernor(d *core.Deployment) {
	if c.memLimit > 0 {
		d.SetMemLimit(c.memLimit)
	}
	if c.runDeadline > 0 {
		d.RunDeadline = c.runDeadline
	}
}

// GuardStats returns a snapshot of the deployment's panic-firewall
// activity.
func (dp *Deployment) GuardStats() GuardStats { return dp.d.GuardStats() }

// MemUsed returns the guest memory charged to the deployment's machine so
// far: simulated heap bytes plus the pooled frame and argument buffers
// grown on the guest's behalf. Accounting is always on, so an ungoverned
// run reports the exact smallest WithMemLimit under which the same run
// still succeeds.
func (dp *Deployment) MemUsed() int64 { return dp.d.Machine.MemUsed() }

// MemLimit returns the deployment's guest memory limit (0 = ungoverned).
func (dp *Deployment) MemLimit() int64 { return dp.d.MemLimit() }

// RunDeadline returns the deployment's wall-clock per-run deadline (0 =
// unbounded).
func (dp *Deployment) RunDeadline() time.Duration { return dp.d.RunDeadline }
