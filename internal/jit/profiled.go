package jit

import (
	"fmt"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/profile"
)

// CompileMethodProfiled re-runs the translate → register-assignment
// pipeline for one method with the observed execution profile standing in
// for the static loop-depth weight heuristic: per-instruction block
// frequencies reconstructed from the profile's branch counters drive the
// allocator's profitability weights. The tiering controller (internal/core)
// uses it to validate the deployed allocation against observed behavior —
// the result is compared, never swapped in, so it cannot perturb execution.
//
// The frequencies are reconstructed over the pre-rewrite code, which has
// the same branches in the same order as the final code (spill rewriting
// only inserts straight-line code), so the profile's branch ordinals line
// up. A profile whose shape does not match the code is an error here; the
// caller treats it as "could not check", not as a failure.
func (c *Compiler) CompileMethodProfiled(mod *cil.Module, m *cil.Method, fp *profile.FuncProfile) (*nisa.Func, error) {
	st := getState()
	defer putState(st)
	annot := anno.NegotiateMethod(m, c.Opts.MinAnnotationVersion).RegAlloc
	st.beginMethod()
	tr := &st.tr
	tr.reset(c, mod, m, st)
	if err := tr.run(); err != nil {
		return nil, fmt.Errorf("jit: %s: %w", m.Name, err)
	}
	f := &nisa.Func{
		Name:   m.Name,
		Params: append([]cil.Type(nil), m.Params...),
		Ret:    m.Ret,
		Code:   tr.code,
		Stats:  tr.stats,
	}
	freqs, err := profile.BlockFreqs(f.Code, fp)
	if err != nil {
		return nil, fmt.Errorf("jit: %s: profile does not match code: %w", m.Name, err)
	}
	ra := &st.as
	ra.reset(c, tr, f, annot)
	ra.freqs = freqs
	if err := ra.run(); err != nil {
		return nil, fmt.Errorf("jit: %s: register assignment: %w", m.Name, err)
	}
	return f, nil
}
