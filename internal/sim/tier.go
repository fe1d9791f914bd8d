package sim

import (
	"slices"
	"sort"

	"repro/internal/nisa"
	"repro/internal/profile"
)

// Tiered execution. The pre-decoded core of decode.go is tier 1; with
// tiering enabled the machine additionally keeps per-function profile
// counters — an invocation count and one taken/not-taken pair per branch,
// bucketed at control-flow granularity so straight-line code is untouched —
// and promotes a function to tier 2 once the policy calls it hot.
//
// Tier-2 execution is architecturally invariant by construction: promotion
// may fuse frequent adjacent instruction pairs into superinstructions that
// save dispatch work on the host, but every fused case charges exactly the
// cycles and statistics of its two constituents, so simulated cycles,
// statistics and results stay bit-identical to tier 1 (the differential
// tests pin this across the Table 1 matrix). The controller hook lets
// internal/core additionally re-run register allocation with the observed
// block frequencies and compare it against the deployed code — validating
// the offline annotation online, without ever switching execution away
// from the code the image shipped.

// PromoteResult is what a tier controller reports back about one
// promotion: whether it re-ran register allocation with the observed
// frequencies and whether the result matched the deployed code.
type PromoteResult struct {
	ReallocChecked   bool
	ReallocConfirmed bool
}

// PromoteFunc is the optional tier-2 controller callback, invoked once per
// promoted function with a snapshot of its profile.
type PromoteFunc func(f *nisa.Func, fp *profile.FuncProfile) PromoteResult

// TierStats aggregates the machine's tiering activity. Everything here is
// host-side bookkeeping: none of it feeds the simulated statistics.
type TierStats struct {
	// Promotions counts functions promoted to tier 2.
	Promotions int64 `json:"promotions"`
	// PromoteCallsSum sums, over all promotions, the invocation count at
	// which the function was promoted — the promotion latency in calls
	// (threshold when cold, 1 when an imported profile warmed the machine).
	PromoteCallsSum int64 `json:"promote_calls_sum"`
	// FusedPairs counts instruction pairs fused into superinstructions.
	FusedPairs int64 `json:"fused_pairs"`
	// ReallocChecked/Confirmed/Diverged count controller re-allocations:
	// checked promotions, those whose profile-weighted register allocation
	// reproduced the deployed code exactly, and those that diverged (the
	// deployed code keeps executing either way).
	ReallocChecked   int64 `json:"realloc_checked"`
	ReallocConfirmed int64 `json:"realloc_confirmed"`
	ReallocDiverged  int64 `json:"realloc_diverged"`
	// WarmSeeded counts functions whose counters were seeded from an
	// imported profile; WarmDegraded counts imports whose branch counters
	// did not match the code and seeded the invocation count only.
	WarmSeeded   int64 `json:"warm_seeded"`
	WarmDegraded int64 `json:"warm_degraded"`
}

// tierState is the machine's tiering control block (nil when tiering is
// off, which is the default and costs the dispatch loop nothing beyond one
// nil check per branch and call).
type tierState struct {
	threshold int64 // promotion threshold in calls, -1 = profile only
	promote   PromoteFunc
	warm      map[string]*profile.FuncProfile
	stats     TierStats
	funcs     map[*nisa.Func]*tierFunc
}

// tierFunc is a tiered machine's private copy of a decoded function, which
// it counts into and fuses instead of the shared records. branchCounts
// holds a taken/not-taken pair per branch in pc order; seeded is the call
// count a warm profile imported. Counters survive ResetStats.
type tierFunc struct {
	code         []dinstr
	fn           *nisa.Func
	calls        uint64
	seeded       uint64
	branchCounts []uint64
	promoted     bool
}

// EnableTiering turns on profiling and tier-2 promotion under the given
// policy. It must be called before or between executions, not
// concurrently with them; functions that ran earlier start profiling from
// zero at their next call.
func (m *Machine) EnableTiering(p profile.Policy) {
	if m.tier == nil {
		m.tier = &tierState{}
	}
	m.tier.threshold = p.Threshold()
}

// TieringEnabled reports whether the machine profiles and promotes.
func (m *Machine) TieringEnabled() bool { return m.tier != nil }

// SetTierController installs the promotion callback (used by
// internal/core to validate register allocation against the observed
// frequencies). A nil controller leaves promotion as fusion-only.
func (m *Machine) SetTierController(fn PromoteFunc) {
	if m.tier == nil {
		m.tier = &tierState{threshold: profile.Policy{}.Threshold()}
	}
	m.tier.promote = fn
}

// WarmProfile seeds the machine's counters from an imported profile, so a
// function the exporter found hot is promoted on its first call here
// instead of after the full promotion threshold. Must be called before the
// functions run; profiles whose branch shape does not match the code
// degrade to seeding the invocation count only.
func (m *Machine) WarmProfile(p *profile.ModuleProfile) {
	if m.tier == nil {
		m.tier = &tierState{threshold: profile.Policy{}.Threshold()}
	}
	if m.tier.warm == nil {
		m.tier.warm = make(map[string]*profile.FuncProfile, len(p.Funcs))
	}
	for i := range p.Funcs {
		m.tier.warm[p.Funcs[i].Name] = &p.Funcs[i]
	}
	// Re-seed functions that already run tiered.
	for _, tf := range m.tier.funcs {
		if !tf.promoted {
			m.tier.seedFunc(tf)
		}
	}
}

// TierStats returns a snapshot of the machine's tiering activity.
func (m *Machine) TierStats() TierStats {
	if m.tier == nil {
		return TierStats{}
	}
	return m.tier.stats
}

// funcFor returns the machine's private copy of a decoded function,
// making it on the function's first tiered call: the records copied from
// the shared Code, branch counters in pc order (two per branch) and, when
// an imported profile covers the function, warm-seeded counts.
func (t *tierState) funcFor(df *dfunc) *tierFunc {
	if tf := t.funcs[df.fn]; tf != nil {
		return tf
	}
	nb := 0
	for i := range df.code {
		switch df.code[i].x {
		case xJump, xBranchCmp:
			nb++
		}
	}
	tf := &tierFunc{code: slices.Clone(df.code), fn: df.fn, branchCounts: make([]uint64, 2*nb)}
	if t.funcs == nil {
		t.funcs = make(map[*nisa.Func]*tierFunc)
	}
	t.funcs[df.fn] = tf
	t.seedFunc(tf)
	return tf
}

func (t *tierState) seedFunc(tf *tierFunc) {
	fp := t.warm[tf.fn.Name]
	if fp == nil {
		return
	}
	tf.calls = fp.Calls
	tf.seeded = fp.Calls
	if 2*len(fp.Branches) == len(tf.branchCounts) {
		for i, bc := range fp.Branches {
			tf.branchCounts[2*i] = bc.Taken
			tf.branchCounts[2*i+1] = bc.NotTaken
		}
		t.stats.WarmSeeded++
	} else {
		// Shape mismatch (e.g. a profile recorded on a target whose code
		// translated differently): keep the invocation count, drop the
		// edge counts — negotiate-or-fallback, never an error.
		t.stats.WarmDegraded++
	}
}

// snapshot builds the function's profile from the live counters.
func (tf *tierFunc) snapshot() profile.FuncProfile {
	fp := profile.FuncProfile{Name: tf.fn.Name, Calls: tf.calls}
	if n := len(tf.branchCounts) / 2; n > 0 {
		fp.Branches = make([]profile.BranchCount, n)
		for i := range fp.Branches {
			fp.Branches[i] = profile.BranchCount{
				Taken:    tf.branchCounts[2*i],
				NotTaken: tf.branchCounts[2*i+1],
			}
		}
	}
	return fp
}

// ProfileSnapshot returns the machine's observed behavior as a module
// profile: one entry per executed function, sorted by name. It is the
// payload behind anno.KeyProfile — the annotation the runtime writes.
func (m *Machine) ProfileSnapshot() *profile.ModuleProfile {
	p := &profile.ModuleProfile{}
	if m.tier == nil {
		return p
	}
	for _, tf := range m.tier.funcs {
		p.Funcs = append(p.Funcs, tf.snapshot())
	}
	sort.Slice(p.Funcs, func(i, j int) bool { return p.Funcs[i].Name < p.Funcs[j].Name })
	return p
}

// promoteFunc moves one hot function to tier 2: snapshot the profile, let
// the controller validate register allocation against it, then fuse the
// hot adjacent pairs. Runs once per function, outside the steady state.
func (m *Machine) promoteFunc(tf *tierFunc) {
	t := m.tier
	tf.promoted = true
	t.stats.Promotions++
	t.stats.PromoteCallsSum += int64(tf.calls - tf.seeded)
	fp := tf.snapshot()
	if t.promote != nil {
		res := t.promote(tf.fn, &fp)
		if res.ReallocChecked {
			t.stats.ReallocChecked++
			if res.ReallocConfirmed {
				t.stats.ReallocConfirmed++
			} else {
				t.stats.ReallocDiverged++
			}
		}
	}
	t.stats.FusedPairs += int64(fuseFunc(tf, &fp))
}

// fusedOp lists the fusible pairs: the first xop of each row may fuse
// with the second when the pair is hot and the partner is not a branch
// target. The patterns cover the latches and bodies the JIT emits for the
// Table 1 kernels' hot loops: the immediate-plus-add increment, the
// induction-variable update, the loop back edge, a vector load feeding a
// vector ALU op, and a vector ALU op feeding the store.
func fusedOp(first, second xop) xop {
	switch {
	case first == xMovImm && second == xAdd:
		return xFusedMovImmAdd
	case first == xAdd && second == xMovInt:
		return xFusedAddMov
	case first == xMovInt && second == xJump:
		return xFusedMovJump
	case first == xVLoad && second == xVBin:
		return xFusedVLoadVBin
	case first == xVBin && second == xVStore:
		return xFusedVBinVStore
	}
	return xNop
}

// fuseFunc rewrites hot adjacent pairs into superinstructions and returns
// the number of pairs fused. The code array keeps its length and every
// original record: slot i gets the fused opcode (executing both
// operations and continuing at pc+2), slot i+1 keeps the original partner
// record so branches into it — and the exact tier-1 instruction-budget
// error path — still see unfused code. A pair only fuses when its block
// ran at least once per invocation on average and the partner is not a
// branch target.
func fuseFunc(tf *tierFunc, fp *profile.FuncProfile) int {
	freqs, err := profile.BlockFreqs(tf.fn.Code, fp)
	if err != nil {
		// Warm-degraded counters: no edge information, nothing to fuse.
		return 0
	}
	isTarget := make([]bool, len(tf.code)+1)
	for i := range tf.code {
		switch tf.code[i].x {
		case xJump, xBranchCmp:
			if t := int(tf.code[i].target); t >= 0 && t < len(isTarget) {
				isTarget[t] = true
			}
		}
	}
	hot := int64(tf.calls)
	if hot < 1 {
		hot = 1
	}
	fused := 0
	for i := 0; i+1 < len(tf.code); i++ {
		if freqs[i] < hot || isTarget[i+1] {
			continue
		}
		x := fusedOp(tf.code[i].x, tf.code[i+1].x)
		if x == xNop {
			continue
		}
		tf.code[i].x = x
		fused++
		i++ // the partner record must stay original: never fuse it as a head
	}
	return fused
}
