package splitvm

// Tiered execution on the public surface: profiles and tiering are deploy
// options (per machine, never part of the code-cache key — the shared
// image is identical with tiering on or off, which is the architectural
// invariance the differential tests pin), and the observed profile is
// exportable as a standalone versioned annotation value that a later
// deployment — on this engine or another — imports to skip the warm-up.

import (
	"fmt"

	"repro/internal/anno"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
)

// Profile is a module execution profile: per-function invocation counts
// and branch taken/not-taken counters, the runtime-produced annotation of
// the split-compilation loop.
type Profile = profile.ModuleProfile

// TierStats aggregates a deployment's tiering activity: promotions,
// promotion latency, fused superinstruction pairs, profile-guided register
// allocation validations and warm-profile imports. All host-side
// bookkeeping — none of it feeds simulated statistics.
type TierStats = sim.TierStats

// WithTiering enables runtime profiling and tier-2 promotion on a
// deployment (default off). Tiering is per machine and deliberately not
// part of the code-cache key: tier 2 never changes simulated cycles,
// statistics or results, so tiered and plain deployments share images.
func WithTiering(on bool) DeployOption {
	return deployOption(func(c *config) { c.tiering = on })
}

// WithPromoteCalls sets the tier-2 promotion threshold in calls (implies
// WithTiering(true); n < 0 profiles without ever promoting; 0 uses the
// default threshold).
func WithPromoteCalls(n int64) DeployOption {
	return deployOption(func(c *config) { c.tiering = true; c.promoteCalls = n })
}

// WithProfile carries a previously exported profile into either stage — the
// one genuinely two-sided option, which is why it is a SharedOption. At
// deploy time it warms the machine (implies WithTiering(true)): functions
// the exporter observed hot are promoted on their first call here instead
// of after the full threshold. At compile time it embeds the profile in the
// produced module as a versioned annotation, so the byte stream itself
// carries the warm-up — any later deployment of that module (on any engine)
// imports it through the ordinary annotation negotiation.
func WithProfile(p *Profile) SharedOption {
	return sharedOption(func(c *config) {
		c.tiering = true
		c.profile = p
	})
}

// applyTiering wires the resolved tiering configuration onto a freshly
// instantiated deployment.
func (c *config) applyTiering(d *core.Deployment) {
	if !c.tiering {
		return
	}
	d.EnableTiering(core.TierOptions{
		Policy:  profile.Policy{PromoteCalls: c.promoteCalls},
		Profile: c.profile,
	})
}

// Profile returns the execution profile the module carries as a
// module-level annotation (a deployment re-exported it into the stream), or
// nil when the module has none or this reader cannot negotiate it —
// unreadable profiles degrade to nil exactly like every other annotation.
func (m *Module) Profile() *Profile { return anno.ProfileOf(m.mod) }

// TieringEnabled reports whether this deployment profiles and promotes.
func (dp *Deployment) TieringEnabled() bool { return dp.d.TieringEnabled() }

// TierStats returns a snapshot of the deployment's tiering activity.
func (dp *Deployment) TierStats() TierStats { return dp.d.TierStats() }

// ExportProfile returns the execution profile the deployment's machine has
// observed so far (one entry per executed function). Returns an empty
// profile when nothing ran; the machine need not be tiered — profiling
// counters exist whenever tiering was enabled.
func (dp *Deployment) ExportProfile() *Profile { return dp.d.ExportProfile() }

// EncodeProfile serializes a profile as a standalone versioned annotation
// value (the same envelope format the annotation container uses), suitable
// for storage or transport and for WithProfile after DecodeProfile.
func EncodeProfile(p *Profile) ([]byte, error) {
	return anno.EncodeProfileV(p, anno.CurrentVersion)
}

// DecodeProfile parses a profile annotation value produced by
// EncodeProfile (possibly by a different toolchain version). A value this
// reader cannot negotiate — a future schema, a malformed payload — is an
// error here; callers wanting the annotation contract's
// negotiate-or-fallback semantics treat it as "deploy without a profile",
// never as a failed deployment.
func DecodeProfile(data []byte) (*Profile, error) {
	p, out := anno.ReadProfileValue(data, 0)
	if p == nil {
		return nil, fmt.Errorf("splitvm: profile not usable: %s", out.Reason)
	}
	return p, nil
}
