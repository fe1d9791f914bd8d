package core

// Tiered execution at the deployment level: the simulator's profiling and
// promotion machinery (internal/sim) wired to the JIT, so a promotion can
// validate the deployed register allocation against the observed block
// frequencies — closing the split-compilation loop at runtime. The check
// recompiles the hot method with profile-derived weights and compares; the
// deployed code keeps executing either way, so tiering never changes
// simulated cycles, statistics or results (the differential tests pin this
// across the Table 1 matrix).

import (
	"os"
	"reflect"
	"sync"

	"repro/internal/cil"
	"repro/internal/jit"
	"repro/internal/nisa"
	"repro/internal/profile"
	"repro/internal/sim"
)

// TierOptions configures tiered execution on a deployment.
type TierOptions struct {
	// Policy sets the promotion threshold (zero value: the default
	// threshold; PromoteCalls < 0 profiles without promoting).
	Policy profile.Policy
	// Profile warms the machine with a previously exported profile, so
	// functions the exporter found hot promote on their first call here.
	Profile *profile.ModuleProfile
	// DisableReallocCheck skips the profile-guided register allocation
	// validation on promotion (fusion still happens).
	DisableReallocCheck bool
}

// EnableTiering turns on profiling and tier-2 promotion for this
// deployment. Must be called before or between runs, not concurrently
// with them.
func (d *Deployment) EnableTiering(opts TierOptions) {
	d.tierOpts = &opts // remembered so a quarantine rebuild re-applies it
	d.applyTiering()
}

// TieringEnabled reports whether the deployment profiles and promotes. It
// reads the deployment's configuration, not its machine, which a run may
// replace (a quarantine rebuild), so it is safe to call beside a run.
func (d *Deployment) TieringEnabled() bool { return d.tierOpts != nil }

// applyTiering configures the current machine from d.tierOpts.
func (d *Deployment) applyTiering() {
	opts := d.tierOpts
	m := d.Machine
	m.EnableTiering(opts.Policy)
	if !opts.DisableReallocCheck {
		m.SetTierController(d.reallocController())
	}
	if opts.Profile != nil {
		m.WarmProfile(opts.Profile)
	}
}

// TierStats returns the machine's tiering activity.
func (d *Deployment) TierStats() sim.TierStats { return d.Machine.TierStats() }

// ExportProfile returns the observed execution profile of the
// deployment's machine — the annotation a later deployment imports via
// TierOptions.Profile.
func (d *Deployment) ExportProfile() *profile.ModuleProfile {
	return d.Machine.ProfileSnapshot()
}

// reallocController builds the promotion callback: recompile the hot
// method with the observed block frequencies as allocation weights and
// compare against the deployed code. The comparison validates the offline
// annotation online; the deployed code is never replaced.
func (d *Deployment) reallocController() sim.PromoteFunc {
	comp := jit.New(d.Target, d.JITOpts)
	methods := make(map[string]*cil.Method, len(d.Module.Methods))
	for _, m := range d.Module.Methods {
		methods[m.Name] = m
	}
	return func(f *nisa.Func, fp *profile.FuncProfile) sim.PromoteResult {
		m := methods[f.Name]
		if m == nil {
			return sim.PromoteResult{}
		}
		nf, err := comp.CompileMethodProfiled(d.Module, m, fp)
		if err != nil {
			// Shape mismatch (degraded warm import): could not check.
			return sim.PromoteResult{}
		}
		confirmed := nf.FrameSlots == f.FrameSlots && reflect.DeepEqual(nf.Code, f.Code)
		return sim.PromoteResult{ReallocChecked: true, ReallocConfirmed: confirmed}
	}
}

// envTier is the SPLITVM_TIER override, read once per process: "1" (or
// "on") enables tiering with the default policy on every instantiated
// deployment. CI uses it to prove the zero-drift property — the full gated
// benchmark suite runs with tiering enabled and must match the baseline
// exactly — without threading an option through every harness.
var envTier = sync.OnceValue(func() bool {
	v := os.Getenv("SPLITVM_TIER")
	return v == "1" || v == "on"
})
