package splitvm

import (
	"context"
	"fmt"

	"repro/internal/anno"
	"repro/internal/core"
	"repro/internal/target"
)

// Deployment is one module deployed on one simulated target: a JIT-compiled
// native image (possibly shared through the engine's code cache) plus a
// private machine executing it. The machine owns mutable state — memory and
// statistics — so a Deployment must not be used from multiple goroutines
// concurrently; deploy once per goroutine instead, which is cheap when the
// image is cached.
type Deployment struct {
	d         *core.Deployment
	fromCache bool
	fromDisk  bool
	// linked is set on DeployLinked deployments: the validated link set the
	// machine spans; per-method state queries then aggregate over its units.
	linked *core.Linked
}

// KernelRun is the result of running a benchmark kernel once on a
// deployment.
type KernelRun = core.KernelRun

// Target returns the deployment's target description.
func (dp *Deployment) Target() *target.Desc { return dp.d.Target }

// FromCache reports whether the native code came from the engine's code
// cache rather than a fresh JIT compilation.
func (dp *Deployment) FromCache() bool { return dp.fromCache }

// FromDisk reports whether the native code was materialized from the
// engine's persistent cache layer (a restart or a replica sharing the
// volume); every FromDisk deployment is also FromCache.
func (dp *Deployment) FromDisk() bool { return dp.fromDisk }

// Lazy reports whether this deployment compiles methods on their first call
// (WithLazyCompile) instead of having compiled everything at deploy time.
func (dp *Deployment) Lazy() bool {
	if dp.linked != nil {
		return dp.linked.Lazy()
	}
	return dp.d.Image != nil && dp.d.Image.Lazy()
}

// MethodState is one method's position in the lazy compilation lifecycle.
type MethodState = core.MethodState

// The lazy method states (see core.MethodState).
const (
	MethodStub      = core.MethodStub
	MethodCompiling = core.MethodCompiling
	MethodReady     = core.MethodReady
)

// MethodCompileState is one method's entry in a CompileState report.
type MethodCompileState = core.MethodCompileState

// CompileState reports the per-method compilation state of the deployment's
// image, shared by every deployment of that image: eager deployments report
// every method ready, lazy ones the live stub/compiling/ready table.
func (dp *Deployment) CompileState() map[string]MethodCompileState {
	if dp.linked != nil {
		return dp.linked.CompileState()
	}
	if dp.d.Image != nil {
		return dp.d.Image.CompileState()
	}
	out := make(map[string]MethodCompileState, len(dp.d.Module.Methods))
	for _, m := range dp.d.Module.Methods {
		out[m.Name] = MethodCompileState{State: core.MethodReady}
	}
	return out
}

// MethodCounts returns how many of the deployment's methods have native
// code and how many the module has in total. Eager deployments always
// report compiled == total; a fresh lazy deployment reports 0 compiled.
func (dp *Deployment) MethodCounts() (compiled, total int) {
	if dp.linked != nil {
		return dp.linked.MethodCounts()
	}
	if dp.d.Image != nil {
		return dp.d.Image.MethodCounts()
	}
	n := len(dp.d.Module.Methods)
	return n, n
}

// AnnotationOutcome is the negotiated status of one annotation of one
// method: the schema version it declared and whether it was consumed or
// fell back to online-only compilation.
type AnnotationOutcome = anno.MethodOutcome

// CompileReport describes the JIT compilation behind a deployment: how much
// online work it took and how the load-time annotation negotiation went.
type CompileReport struct {
	// Target is the deployment target's registry name.
	Target string `json:"target"`
	// FromCache reports whether the native code was reused from the
	// engine's code cache (the negotiation outcomes then describe the
	// original compilation).
	FromCache bool `json:"from_cache"`
	// JITSteps approximates the online compilation work.
	JITSteps int64 `json:"jit_steps"`
	// CompileNanos is the wall-clock time the JIT spent producing the
	// image (the original compilation's cost when FromCache is true).
	CompileNanos int64 `json:"compile_nanos"`
	// AnnotationOutcomes lists the negotiation result of every annotation
	// present in the module, per method.
	AnnotationOutcomes []AnnotationOutcome `json:"annotation_outcomes,omitempty"`
	// AnnotationFallbacks counts the sections that degraded to online-only
	// compilation (never an error: annotations are advisory).
	AnnotationFallbacks int `json:"annotation_fallbacks"`
	// Lazy reports whether the deployment compiles methods on first call.
	Lazy bool `json:"lazy,omitempty"`
	// MethodsCompiled/MethodsTotal are the image's per-method progress at
	// the moment the report was taken (equal on eager deployments).
	MethodsCompiled int `json:"methods_compiled"`
	MethodsTotal    int `json:"methods_total"`
}

// AnnotationFallbacks returns the number of annotation sections of this
// deployment's image that degraded to online-only compilation — the
// CompileReport headline without copying the per-method outcome list.
func (dp *Deployment) AnnotationFallbacks() int { return dp.d.AnnotationFallbacks }

// CompileReport returns the compilation report of this deployment's image.
// On lazy deployments the report is a live snapshot: CompileNanos and the
// method counts grow as first calls compile methods.
func (dp *Deployment) CompileReport() CompileReport {
	compiled, total := dp.MethodCounts()
	return CompileReport{
		Target:              dp.d.Target.Name,
		FromCache:           dp.fromCache,
		JITSteps:            dp.d.JITSteps,
		CompileNanos:        dp.CompileNanos(),
		AnnotationOutcomes:  append([]AnnotationOutcome(nil), dp.d.AnnotationOutcomes...),
		AnnotationFallbacks: dp.d.AnnotationFallbacks,
		Lazy:                dp.Lazy(),
		MethodsCompiled:     compiled,
		MethodsTotal:        total,
	}
}

// CompileNanos returns the wall-clock time the JIT spent producing this
// deployment's native code: the image compilation on eager deployments (the
// original compilation's cost when the image came from the code cache), the
// sum of the first-call method compilations so far on lazy ones.
func (dp *Deployment) CompileNanos() int64 {
	n := dp.d.CompileNanos
	if dp.linked != nil {
		return n + dp.linked.LazyCompileNanos()
	}
	if dp.d.Image != nil {
		n += dp.d.Image.LazyCompileNanos()
	}
	return n
}

// EnsureCompiled forces a lazy deployment fully compiled, as if every
// method (of every linked unit) had already taken its first call: each
// resolution is the usual singleflight JIT shared with every other
// deployment of the image, so warming one canary this way warms the whole
// fleet through the method store. Afterwards code-derived statistics
// (NativeCodeBytes, SpillSummary, SpillWeight, JITSteps) equal the eager
// deployment's. Eager deployments are a no-op; cancelling ctx aborts
// between methods, leaving the usual consistent partial state.
func (dp *Deployment) EnsureCompiled(ctx context.Context) error {
	return dp.d.EnsureCompiled(ctx)
}

// Run executes an entry point on the deployment's machine.
func (dp *Deployment) Run(entry string, args ...Value) (Value, error) {
	return dp.d.Run(entry, args...)
}

// RunContext executes an entry point like Run, aborting the simulation
// between instructions once ctx is cancelled — the error wraps ctx.Err(),
// so errors.Is(err, context.Canceled) detects a client disconnect.
// Uncancelled runs are instruction- and cycle-identical to Run.
func (dp *Deployment) RunContext(ctx context.Context, entry string, args ...Value) (Value, error) {
	return dp.d.RunContext(ctx, entry, args...)
}

// RunKernel marshals kernel inputs into the deployment's memory, runs the
// kernel entry point once and returns the result, the cycles it took and
// the output arrays. The inputs are cloned, not modified.
func (dp *Deployment) RunKernel(k Kernel, in *Inputs) (*KernelRun, error) {
	return dp.d.RunKernel(k, in)
}

// Signature returns the signature of a named method of the deployed module
// (any module of the set, on linked deployments).
func (dp *Deployment) Signature(entry string) (Signature, error) {
	if dp.linked != nil {
		for _, u := range dp.linked.Units {
			if meth := u.Image.Module.Method(entry); meth != nil {
				return signatureOf(meth), nil
			}
		}
		return Signature{}, fmt.Errorf("splitvm: no method %q in link set", entry)
	}
	meth := dp.d.Module.Method(entry)
	if meth == nil {
		return Signature{}, fmt.Errorf("splitvm: no method %q in module %s", entry, dp.d.Module.Name)
	}
	return signatureOf(meth), nil
}

// Cycles returns the cycles consumed so far by the deployment's machine.
func (dp *Deployment) Cycles() int64 { return dp.d.Cycles() }

// ResetCycles clears the machine's statistics (keeping its memory image).
func (dp *Deployment) ResetCycles() { dp.d.ResetCycles() }

// Stats returns a snapshot of the machine's execution statistics.
func (dp *Deployment) Stats() Stats { return dp.d.Machine.Stats }

// JITSteps approximates the work the online compiler performed for this
// deployment's image; with split compilation this stays small even when the
// generated code is aggressive.
func (dp *Deployment) JITSteps() int64 { return dp.d.JITSteps }

// SpillSummary sums the static spill statistics over all compiled
// functions: spilled variables, spill loads and spill stores. Like
// NativeCodeBytes it counts the image's code, so on a lazy deployment it
// covers the methods any deployment of the image has compiled so far.
func (dp *Deployment) SpillSummary() (slots, loads, stores int) { return dp.d.SpillSummary() }

// SpillWeight sums the estimated dynamic spill accesses (loop-depth
// weighted use counts of spilled variables) over all compiled functions.
func (dp *Deployment) SpillWeight() int64 { return dp.d.SpillWeight() }

// NativeCodeBytes estimates the native code size of the deployment's image
// (of every image, on linked deployments). On a lazy deployment it counts
// the methods compiled so far by any deployment of the image. It is safe
// to call while the deployment runs.
func (dp *Deployment) NativeCodeBytes() int { return dp.d.NativeCodeBytes() }

// UsedSIMD reports whether the JIT mapped at least one portable vector
// builtin of the named method onto the target's vector unit (as opposed to
// scalarizing).
func (dp *Deployment) UsedSIMD(entry string) bool {
	f := dp.d.Program.Func(entry)
	return f != nil && f.Stats.VectorLowered > 0
}

// DisassembleNative renders the JIT-generated native code.
func (dp *Deployment) DisassembleNative() string { return dp.d.Program.Disassemble() }
