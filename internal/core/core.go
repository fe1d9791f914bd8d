// Package core assembles the paper's proposal into one API: processor
// virtualization (compile once to portable bytecode, deploy the byte stream)
// combined with split compilation (expensive offline analyses whose results
// travel as annotations, cheap target-specific online steps).
//
// The package exposes the two halves explicitly:
//
//   - CompileOffline runs the developer-side toolchain: MiniC front end,
//     constant folding, auto-vectorization, lowering to bytecode, split
//     register allocation analysis, annotation attachment, and binary
//     encoding. Its output is the deployable byte stream.
//
//   - Deploy runs the device-side toolchain for one simulated target: decode,
//     verify, JIT-compile (mapping or scalarizing the portable vector
//     builtins, consuming the register allocation annotation) and instantiate
//     a cycle-approximate machine ready to Run entry points.
//
// Everything the experiments measure (cycles, spills, compile effort,
// annotation bytes, code sizes) is reachable from these two results.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/codegen"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/minic"
	"repro/internal/nisa"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/vm"
)

// OfflineOptions configures the developer-side (offline) compiler.
type OfflineOptions struct {
	// ModuleName names the produced module; defaults to "app".
	ModuleName string
	// DisableVectorize skips the auto-vectorizer (produces the scalar
	// bytecode baseline of Table 1).
	DisableVectorize bool
	// DisableRegAllocAnnotations skips the offline register allocation
	// analysis.
	DisableRegAllocAnnotations bool
	// DisableAnnotations strips every annotation from the produced module
	// while keeping the code identical (ablation for Figure 1).
	DisableAnnotations bool
	// DisableConstFold skips constant folding.
	DisableConstFold bool
	// AnnotationVersion selects the on-wire schema of the produced
	// annotations: anno.V0 (the zero value, matching the historical
	// behavior) emits the legacy bare streams, anno.V1 the versioned
	// envelope with the spill-class metadata.
	AnnotationVersion uint32
}

// OfflineResult is the outcome of the offline compilation step.
type OfflineResult struct {
	Module  *cil.Module
	Encoded []byte

	VectorizeResults []opt.VectorizeResult
	RegAllocAnalyses []*regalloc.Analysis

	// FoldedConstants counts constant-folding rewrites.
	FoldedConstants int
	// AnnotationBytes is the total size of all annotations in the module.
	AnnotationBytes int
	// OfflineSteps approximates the work spent in offline analyses
	// (vectorization legality tests, liveness, weights); it feeds the
	// Figure 1 comparison of offline versus online effort.
	OfflineSteps int64
}

// CompileOffline compiles MiniC source text into an encoded, annotated,
// deployable module.
func CompileOffline(source string, opts OfflineOptions) (*OfflineResult, error) {
	name := opts.ModuleName
	if name == "" {
		name = "app"
	}
	prog, err := minic.Parse(source)
	if err != nil {
		return nil, err
	}
	chk, err := minic.Check(prog)
	if err != nil {
		return nil, err
	}
	res := &OfflineResult{}
	if !opts.DisableConstFold {
		res.FoldedConstants = opt.FoldConstants(chk)
	}
	if !opts.DisableVectorize {
		res.VectorizeResults = opt.Vectorize(chk)
		for _, r := range res.VectorizeResults {
			res.OfflineSteps += int64(20 * len(r.Plans))    // dependence + shape analysis per loop
			res.OfflineSteps += int64(5 * (r.Rejected + 1)) // rejected candidates still cost analysis
		}
	}
	mod, err := codegen.Compile(chk, name, codegen.Options{
		DisableVectorPlans: opts.DisableVectorize,
		DisableAnnotations: opts.DisableAnnotations,
		AnnotationVersion:  opts.AnnotationVersion,
	})
	if err != nil {
		return nil, err
	}
	if !opts.DisableRegAllocAnnotations && !opts.DisableAnnotations {
		res.RegAllocAnalyses, err = regalloc.AnnotateModuleV(mod, opts.AnnotationVersion)
		if err != nil {
			return nil, err
		}
		for _, a := range res.RegAllocAnalyses {
			res.OfflineSteps += a.Steps
		}
	}
	for _, m := range mod.Methods {
		res.OfflineSteps += int64(len(m.Code))
	}
	res.Module = mod
	res.Encoded = cil.Encode(mod)
	res.AnnotationBytes = anno.TotalAnnotationBytes(mod)
	return res, nil
}

// CompileKernel compiles one named benchmark kernel (see internal/kernels).
func CompileKernel(name string, opts OfflineOptions) (*OfflineResult, kernels.Kernel, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, kernels.Kernel{}, err
	}
	if opts.ModuleName == "" {
		opts.ModuleName = name
	}
	res, err := CompileOffline(k.Source, opts)
	return res, k, err
}

// Image is the immutable, target-specific half of a deployment: the decoded
// and verified module together with the native program the JIT produced for
// one target. An Image holds no execution state, so it can be built once and
// instantiated into any number of machines — it is the unit the public
// engine's code cache stores and shares between concurrent deployments.
type Image struct {
	Target  *target.Desc
	Module  *cil.Module
	Program *nisa.Program
	// JITOpts is the online-compiler configuration that produced the
	// program (kept so tiering can re-run the same pipeline for its
	// profile-guided validation).
	JITOpts jit.Options

	// JITSteps approximates the work the online compiler performed; with
	// split compilation this stays small even when the generated code is
	// aggressive.
	JITSteps int64
	// CompileNanos is the wall-clock time the JIT spent producing this
	// image (the online compile cost a deployment pays on a cache miss).
	CompileNanos int64

	// AnnotationOutcomes is the per-method result of the load-time
	// annotation negotiation: which sections were consumed at which schema
	// version, and which fell back to online-only compilation.
	AnnotationOutcomes []anno.MethodOutcome
	// AnnotationFallbacks counts the sections that fell back (never an
	// error: annotations are advisory).
	AnnotationFallbacks int

	// lazy, when non-nil, marks the image as compile-on-first-call: Program
	// starts empty and methods move stub → compiling → ready through
	// ResolveMethod (see lazy.go). Nil — the default — is the eager image
	// with every method compiled up front.
	lazy *lazyState

	// code is the decoded code every machine of the image shares, made on
	// first use (see Code).
	codeOnce sync.Once
	code     *sim.Code
}

// Code returns the pre-decoded form of the image's native code that every
// machine it instantiates executes: each function is decoded once per
// image, on its first call on any of them.
func (img *Image) Code() *sim.Code {
	img.codeOnce.Do(func() { img.code = sim.NewCode(img.Target) })
	return img.code
}

// BuildImage decodes, verifies and JIT-compiles an encoded module for a
// target. This is everything that happens on the device side of the
// distribution boundary, short of instantiating a machine. Modules that
// import other modules are rejected here: their cross-module calls can only
// resolve through a link set (NewLinked), and failing at build time is what
// keeps a missing dependency from surfacing as a first-call panic.
func BuildImage(encoded []byte, tgt *target.Desc, jopts jit.Options) (*Image, error) {
	mod, err := cil.Decode(encoded)
	if err != nil {
		return nil, err
	}
	if err := requireNoImports(mod); err != nil {
		return nil, err
	}
	return ImageFromModule(mod, tgt, jopts)
}

// requireNoImports rejects standalone deployment of a module whose calls
// reach into other modules.
func requireNoImports(mod *cil.Module) error {
	if len(mod.Imports) == 0 {
		return nil
	}
	return fmt.Errorf("core: module %q imports %d other module(s); deploy it as a link set so cross-module calls resolve at link time", mod.Name, len(mod.Imports))
}

// ImageFromModule verifies and JIT-compiles an already-decoded module. The
// image keeps a reference to the module; callers that mutate the module
// afterwards must pass a clone.
func ImageFromModule(mod *cil.Module, tgt *target.Desc, jopts jit.Options) (*Image, error) {
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	return ImageFromVerifiedModule(mod, tgt, jopts)
}

// ImageFromVerifiedModule JIT-compiles a module that has already passed
// verification. Verification writes per-method results (MaxStack) into the
// module, so callers building images for several targets concurrently must
// verify once up front and use this entry point: the JIT itself only reads
// the module.
func ImageFromVerifiedModule(mod *cil.Module, tgt *target.Desc, jopts jit.Options) (*Image, error) {
	start := time.Now()
	prog, rep, err := jit.New(tgt, jopts).CompileModuleReport(mod)
	if err != nil {
		return nil, err
	}
	img := &Image{
		Target:              tgt,
		Module:              mod,
		Program:             prog,
		JITOpts:             jopts,
		CompileNanos:        time.Since(start).Nanoseconds(),
		AnnotationOutcomes:  rep.Outcomes,
		AnnotationFallbacks: rep.Fallbacks,
	}
	for _, f := range prog.Funcs {
		img.JITSteps += f.Stats.CompileSteps
	}
	return img, nil
}

// Instantiate creates a fresh machine executing the image. The machine owns
// its registers, frames, memory and statistics; the image owns the native
// and the decoded code every machine shares, so concurrent instantiations
// are safe. Lazy images give every machine its own program value — the
// machine patches it as methods resolve — pre-seeded with whatever methods
// earlier deployments already compiled, all resolving through the image's
// shared singleflight table.
func (img *Image) Instantiate() *Deployment {
	prog := img.Program
	if img.lazy != nil {
		prog = nisa.NewProgram(img.Target.Name)
		img.lazy.snapshot(prog)
	}
	machine := sim.NewWithCode(prog, img.Code())
	if img.lazy != nil {
		machine.SetResolver(lazyResolverFor(img))
	}
	d := &Deployment{
		Target:              img.Target,
		Module:              img.Module,
		Program:             prog,
		JITOpts:             img.JITOpts,
		Machine:             machine,
		Image:               img,
		JITSteps:            img.JITSteps,
		CompileNanos:        img.CompileNanos,
		AnnotationOutcomes:  img.AnnotationOutcomes,
		AnnotationFallbacks: img.AnnotationFallbacks,
	}
	if envTier() {
		d.EnableTiering(TierOptions{})
	}
	if ml := EnvMemLimit(); ml > 0 {
		d.SetMemLimit(ml)
	}
	return d
}

// Deployment is a module deployed on one simulated target: the decoded and
// verified module, the JIT-compiled native image and the machine executing
// it.
type Deployment struct {
	Target  *target.Desc
	Module  *cil.Module
	Program *nisa.Program
	Machine *sim.Machine
	// Image is the image this deployment was instantiated from; for lazy
	// images it carries the live per-method compilation state
	// (Image.CompileState, Image.MethodCounts).
	Image *Image
	// JITOpts is the online-compiler configuration behind the deployed
	// program (see Image.JITOpts).
	JITOpts jit.Options

	// JITSteps approximates the work the online compiler performed; with
	// split compilation this stays small even when the generated code is
	// aggressive.
	JITSteps int64
	// CompileNanos is the wall-clock JIT time behind this deployment's
	// image (paid once per image; cache-hit deployments inherit the
	// original compilation's cost figure).
	CompileNanos int64

	// AnnotationOutcomes and AnnotationFallbacks carry the image's
	// load-time annotation negotiation result (see Image).
	AnnotationOutcomes  []anno.MethodOutcome
	AnnotationFallbacks int

	// RunDeadline, when positive, bounds the wall-clock time of each run:
	// the run context is derived with this timeout and the dispatch loop
	// aborts on its cancellation stride, reporting a *sim.ResourceError of
	// kind deadline (a caller-cancelled context still reports cancellation).
	RunDeadline time.Duration

	// linked is set on deployments instantiated from a link set; it lets
	// EnsureCompiled span every unit, not just the root image.
	linked *Linked

	// Panic-firewall state (guard.go): quarantined marks a machine whose
	// last run panicked, guard counts quarantines and rebuilds, and
	// memLimit/tierOpts remember the per-machine configuration a rebuild
	// must re-apply.
	quarantined bool
	guard       GuardStats
	memLimit    int64
	tierOpts    *TierOptions
}

// EnsureCompiled forces a lazy deployment fully compiled, as if every
// method (of every unit, on linked deployments) had already taken its first
// call: each resolution is the usual singleflight JIT, and the resulting
// code is patched into this deployment's program, including the
// hash-qualified alias symbols cross-module call sites use. Afterwards the
// code-derived statistics — NativeCodeBytes, SpillSummary, SpillWeight,
// JITSteps — equal those of an eager deployment of the same module(s).
// Eager deployments are a no-op. Cancelling ctx aborts between methods,
// leaving the usual consistent partial state.
func (d *Deployment) EnsureCompiled(ctx context.Context) error {
	if d.linked != nil {
		if err := d.linked.ensureCompiled(ctx, d.Program); err != nil {
			return err
		}
		var steps int64
		for _, u := range d.linked.Units {
			steps += u.Image.JITSteps + u.Image.LazyJITSteps()
		}
		d.JITSteps = steps
		return nil
	}
	if d.Image == nil || !d.Image.Lazy() {
		return nil
	}
	for _, m := range d.Module.Methods {
		f, err := d.Image.ResolveMethod(ctx, m.Name)
		if err != nil {
			return err
		}
		d.Program.Funcs[m.Name] = f
	}
	d.JITSteps = d.Image.JITSteps + d.Image.LazyJITSteps()
	return nil
}

// Deploy decodes, verifies and JIT-compiles an encoded module for a target,
// then instantiates a machine for it. Callers that deploy the same module
// repeatedly should build an Image once (or use the pkg/splitvm engine,
// which caches images) and instantiate it per deployment. With SPLITVM_LAZY
// set the image is built lazy — methods JIT on first call — which never
// changes results or simulated cycles, only when compile time is paid.
func Deploy(encoded []byte, tgt *target.Desc, jopts jit.Options) (*Deployment, error) {
	mod, err := cil.Decode(encoded)
	if err != nil {
		return nil, err
	}
	if err := requireNoImports(mod); err != nil {
		return nil, err
	}
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	var img *Image
	if EnvLazy() {
		img, err = LazyImageFromVerifiedModule(mod, tgt, jopts)
	} else {
		img, err = ImageFromVerifiedModule(mod, tgt, jopts)
	}
	if err != nil {
		return nil, err
	}
	return img.Instantiate(), nil
}

// Run executes an entry point on the deployment's machine, behind the panic
// firewall (guard.go): a panic escaping dispatch is recovered into a
// *PanicError and the machine is rebuilt from its image on the next run.
func (d *Deployment) Run(entry string, args ...sim.Value) (sim.Value, error) {
	return d.guardedCall(context.Background(), entry, args...)
}

// RunContext executes an entry point like Run, aborting between simulated
// instructions once ctx is cancelled (the error wraps ctx.Err()).
// Uncancelled runs are instruction- and cycle-identical to Run.
func (d *Deployment) RunContext(ctx context.Context, entry string, args ...sim.Value) (sim.Value, error) {
	return d.guardedCall(ctx, entry, args...)
}

// Cycles returns the cycles consumed so far by the deployment's machine.
func (d *Deployment) Cycles() int64 { return d.Machine.Stats.Cycles }

// ResetCycles clears the machine's statistics (keeping its memory image).
func (d *Deployment) ResetCycles() { d.Machine.ResetStats() }

// SpillSummary sums the static spill statistics over all compiled functions.
func (d *Deployment) SpillSummary() (slots, loads, stores int) {
	d.eachFunc(func(f *nisa.Func) {
		slots += f.Stats.SpillSlots
		loads += f.Stats.SpillLoads
		stores += f.Stats.SpillStores
	})
	return
}

// SpillWeight sums the estimated dynamic spill accesses (loop-depth weighted
// use counts of spilled variables) over all compiled functions.
func (d *Deployment) SpillWeight() int64 {
	var total int64
	d.eachFunc(func(f *nisa.Func) { total += f.Stats.SpillWeight })
	return total
}

// NativeCodeBytes estimates the native code size of the deployment.
func (d *Deployment) NativeCodeBytes() int {
	total := 0
	d.eachFunc(func(f *nisa.Func) { total += f.CodeBytes(d.Target.BytesPerInstr) })
	return total
}

// eachFunc calls fn once on every compiled function of the deployment's
// image, or of every unit of its link set. It reads the images, never the
// machine's program: a lazy machine's resolver writes that map while it
// runs, so code statistics stay safe to read beside a run.
func (d *Deployment) eachFunc(fn func(*nisa.Func)) {
	if d.linked != nil {
		for _, u := range d.linked.Units {
			u.Image.eachFunc(fn)
		}
		return
	}
	d.Image.eachFunc(fn)
}

// KernelRun is the result of running a kernel once on a deployment.
type KernelRun struct {
	Result sim.Value
	Cycles int64
	// Outputs are the kernel's array arguments copied back out of simulated
	// memory after the run (in the order of kernels.Inputs.Arrays).
	Outputs []*vm.Array
}

// MarshalKernelArgs copies a kernel's array inputs into the machine's heap
// and builds the argument list for the kernel entry point, returning the
// arguments and the simulated addresses of the copied arrays (in
// in.Arrays order). It is the one marshalling protocol shared by RunKernel,
// the wall-clock benchmarks and the differential tests.
func MarshalKernelArgs(m *sim.Machine, in *kernels.Inputs) ([]sim.Value, []sim.Addr) {
	args := make([]sim.Value, len(in.Args))
	addrs := make([]sim.Addr, 0, len(in.Arrays))
	arrIdx := 0
	for i, a := range in.Args {
		switch {
		case a.Kind == cil.Ref:
			addr := m.CopyInArray(in.Arrays[arrIdx])
			addrs = append(addrs, addr)
			arrIdx++
			args[i] = sim.IntArg(int64(addr))
		case a.Kind.IsFloat():
			args[i] = sim.FloatArg(a.Float())
		default:
			args[i] = sim.IntArg(a.Int())
		}
	}
	return args, addrs
}

// RunKernel marshals kernel inputs into the deployment's memory, runs the
// kernel entry point once and returns the result, the cycles it took and the
// output arrays. The inputs are not modified (they are cloned first).
func (d *Deployment) RunKernel(k kernels.Kernel, in *kernels.Inputs) (*KernelRun, error) {
	// Rebuild a quarantined machine before marshalling: inputs copied into
	// the old machine's memory would be lost to the guardedCall rebuild.
	if d.quarantined {
		d.rebuild()
	}
	work := in.Clone()
	args, addrs := MarshalKernelArgs(d.Machine, work)
	before := d.Machine.Stats.Cycles
	res, err := d.guardedCall(context.Background(), k.Entry, args...)
	if err != nil {
		return nil, fmt.Errorf("core: running %s on %s: %w", k.Entry, d.Target.Name, err)
	}
	run := &KernelRun{Result: res, Cycles: d.Machine.Stats.Cycles - before}
	for i, addr := range addrs {
		out := vm.NewArray(work.Arrays[i].Elem, work.Arrays[i].Len())
		if err := d.Machine.CopyOutArray(addr, out); err != nil {
			return nil, err
		}
		run.Outputs = append(run.Outputs, out)
	}
	return run, nil
}

// Interpret runs an entry point of the offline result on the reference
// interpreter (the managed runtime), for functional cross-checking.
func (r *OfflineResult) Interpret(entry string, args ...vm.Value) (vm.Value, error) {
	rt, err := vm.NewRuntime(r.Module.Clone())
	if err != nil {
		return vm.Value{}, err
	}
	return rt.Call(entry, args...)
}
