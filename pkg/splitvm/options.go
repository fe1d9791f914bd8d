package splitvm

import (
	"time"

	"repro/internal/anno"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/target"
)

// The options API is typed by stage, so misuse fails at compile time instead
// of being silently ignored at run time:
//
//   - CompileOption configures the offline stage (Compile, CompileKernel,
//     CompileModules): module naming, optimizer switches, annotation schema.
//   - DeployOption configures the online stage (Deploy, DeployLinked,
//     DeployHetero): target selection, JIT knobs, caching, laziness,
//     tiering.
//   - SharedOption is both — WithProfile is the canonical example: at
//     compile time it embeds the profile in the module's annotations, at
//     deploy time it warms the machine.
//   - Engine-wide options (WithCacheSize, WithDiskCache) are only the root
//     Option: New accepts every kind, but passing an engine-wide option to
//     Compile or Deploy no longer type-checks.
//
// Options given to New apply to every call on that engine; options given to
// a call apply on top, last writer wins.

// Option is the root option interface: anything New accepts. It is the
// deprecated name for call-site use — pass CompileOption values to Compile
// and DeployOption values to Deploy instead; the concrete With* constructors
// already return the right type.
type Option interface {
	apply(*config)
}

// CompileOption configures the offline stage of one engine or one call.
type CompileOption interface {
	Option
	compileOption()
}

// DeployOption configures the online stage of one engine or one call.
type DeployOption interface {
	Option
	deployOption()
}

// SharedOption is valid for both stages (see WithProfile).
type SharedOption interface {
	CompileOption
	DeployOption
}

// The concrete option kinds. All four are plain functions over the resolved
// config; the marker methods only exist to make the stage visible to the
// type checker.
type (
	engineOption  func(*config)
	compileOption func(*config)
	deployOption  func(*config)
	sharedOption  func(*config)
)

func (o engineOption) apply(c *config)  { o(c) }
func (o compileOption) apply(c *config) { o(c) }
func (compileOption) compileOption()    {}
func (o deployOption) apply(c *config)  { o(c) }
func (deployOption) deployOption()      {}
func (o sharedOption) apply(c *config)  { o(c) }
func (sharedOption) compileOption()     {}
func (sharedOption) deployOption()      {}

// Annotation schema versions, for WithAnnotationVersion and
// WithMinAnnotationVersion. Version 0 is the grandfathered legacy encoding
// (bare payloads, no container); version 1 is the self-describing envelope.
const (
	AnnotationV0 uint32 = anno.V0
	AnnotationV1 uint32 = anno.V1
	// AnnotationVersionCurrent is the newest schema the toolchain emits and
	// understands — the default for WithAnnotationVersion.
	AnnotationVersionCurrent uint32 = anno.CurrentVersion
)

// config is the resolved configuration of one call. Offline options are read
// by Compile, online options by Deploy; the type system keeps each kind at
// the calls that read it.
type config struct {
	// Offline (Compile) options.
	moduleName          string
	vectorize           bool
	constFold           bool
	annotations         bool
	regAllocAnnotations bool
	annotationVersion   uint32

	// Online (Deploy) options.
	arch           target.Arch
	desc           *target.Desc
	regAlloc       RegAllocMode
	forceScalarize bool
	noCache        bool
	minAnnoVersion uint32
	compileWorkers int
	lazyCompile    bool
	// Tiering options (per machine, never part of the cache key).
	tiering      bool
	promoteCalls int64
	profile      *profile.ModuleProfile
	// Resource-governor options (per machine, never part of the cache key;
	// see governor.go).
	memLimit    int64
	runDeadline time.Duration

	// Engine-wide options (read by New only).
	cacheSize int
	diskDir   string
}

func defaultConfig() config {
	return config{
		vectorize:           true,
		constFold:           true,
		annotations:         true,
		regAllocAnnotations: true,
		annotationVersion:   anno.CurrentVersion,
		arch:                target.X86SSE,
		regAlloc:            RegAllocSplit,
		lazyCompile:         core.EnvLazy(),
		memLimit:            core.EnvMemLimit(),
	}
}

// targetDesc resolves the deployment target: an explicit descriptor wins
// over a registry name.
func (c *config) targetDesc() (*target.Desc, error) {
	if c.desc != nil {
		return c.desc, nil
	}
	return target.Lookup(c.arch)
}

// WithModuleName names the module the offline compiler produces (default
// "app"; CompileKernel defaults to the kernel name).
func WithModuleName(name string) CompileOption {
	return compileOption(func(c *config) { c.moduleName = name })
}

// WithVectorize enables or disables the offline auto-vectorizer. Disabling
// it produces the scalar-bytecode baseline of Table 1.
func WithVectorize(on bool) CompileOption {
	return compileOption(func(c *config) { c.vectorize = on })
}

// WithConstFold enables or disables offline constant folding.
func WithConstFold(on bool) CompileOption {
	return compileOption(func(c *config) { c.constFold = on })
}

// WithAnnotations(false) strips every split-compilation annotation from the
// produced module while keeping the code identical (the Figure 1 ablation).
func WithAnnotations(on bool) CompileOption {
	return compileOption(func(c *config) { c.annotations = on })
}

// WithRegAllocAnnotations enables or disables only the offline register
// allocation analysis (the annotation the split allocator consumes).
func WithRegAllocAnnotations(on bool) CompileOption {
	return compileOption(func(c *config) { c.regAllocAnnotations = on })
}

// WithAnnotationVersion selects the on-wire schema version of the
// annotations the offline compiler emits (default AnnotationVersionCurrent).
// Version 0 is the legacy pre-envelope encoding, kept for byte streams that
// must deploy on readers predating the versioned container; version 1 wraps
// the payloads in the self-describing envelope and carries the spill-class
// metadata. Compile fails on versions the writer cannot emit.
func WithAnnotationVersion(v uint32) CompileOption {
	return compileOption(func(c *config) { c.annotationVersion = v })
}

// WithMinAnnotationVersion makes deployments reject annotation sections
// older than the given schema version during load-time negotiation: stale
// sections degrade to online-only compilation (surfaced in the
// CompileReport) instead of being consumed. Zero — the default — accepts
// everything, including grandfathered v0 streams.
func WithMinAnnotationVersion(v uint32) DeployOption {
	return deployOption(func(c *config) { c.minAnnoVersion = v })
}

// WithTarget selects the deployment target by registry name (default
// target.X86SSE). The name is resolved against the registry at Deploy time,
// so targets added with target.Register are reachable.
func WithTarget(a target.Arch) DeployOption {
	return deployOption(func(c *config) { c.arch = a; c.desc = nil })
}

// WithTargetDesc selects the deployment target by explicit descriptor,
// bypassing the registry — the way to deploy on ad-hoc variants such as
// desc.WithIntRegs(n).
func WithTargetDesc(d *target.Desc) DeployOption {
	return deployOption(func(c *config) { c.desc = d })
}

// WithRegAllocMode selects the JIT's register allocation strategy (default
// RegAllocSplit, the annotation-driven allocator).
func WithRegAllocMode(m RegAllocMode) DeployOption {
	return deployOption(func(c *config) { c.regAlloc = m })
}

// WithForceScalarize makes the JIT ignore the target's SIMD unit and
// scalarize every vector builtin (the "JIT simply ignores the
// vectorization" ablation).
func WithForceScalarize(on bool) DeployOption {
	return deployOption(func(c *config) { c.forceScalarize = on })
}

// WithLazyCompile switches a deployment to on-demand compilation: Deploy
// installs a per-method stub table instead of JIT-compiling the whole
// module, and each method compiles on its first call — once per image,
// however many deployments share it, and once fleet-wide when the engine has
// a disk cache (replicas publish compiled methods to the shared volume).
// Lazily compiled code is bit-identical to the eager build, so results and
// simulated cycles never change; only when compile time is paid does.
// Deploy-time validation (decode, verify, link resolution) is not deferred:
// anything wrong with the module still fails the deployment, never a first
// call. The default is eager; SPLITVM_LAZY=1 flips the process-wide default.
func WithLazyCompile(on bool) DeployOption {
	return deployOption(func(c *config) { c.lazyCompile = on })
}

// WithCacheSize bounds the engine's code cache to at most n native images;
// when a completed JIT compilation would exceed the bound, the least
// recently deployed image is evicted (and counted in CacheStats.Evictions).
// n <= 0 — the default — keeps the cache unbounded. The bound is a property
// of the whole engine: it only type-checks on New.
func WithCacheSize(n int) Option {
	return engineOption(func(c *config) {
		if n < 0 {
			n = 0
		}
		c.cacheSize = n
	})
}

// WithDiskCache backs the engine's code cache with a persistent
// content-addressed store rooted at dir (created if absent): every completed
// JIT compilation is spilled to disk keyed by the same (module sha256,
// target descriptor, JIT options) identity as the in-memory cache, an LRU
// eviction demotes to disk instead of dropping, and a miss consults the
// disk before compiling — so restarted engines deploy warm
// (Deployment.FromCache reports true, CompileStats counts no compilation)
// and replicas can share a cache volume. Lazy deployments store per-method
// entries under the same identity, so a method JIT-compiles at most once
// fleet-wide. Entries are written atomically and checksummed; a corrupt or
// truncated entry degrades to recompilation, never to an error. Like
// WithCacheSize this is a property of the whole engine: it only type-checks
// on New. Check Engine.DiskCacheErr when durability is required.
func WithDiskCache(dir string) Option {
	return engineOption(func(c *config) { c.diskDir = dir })
}

// WithCompileWorkers bounds the number of methods the JIT compiles
// concurrently during one compilation (0 — the default — sizes the pool by
// the module: up to GOMAXPROCS workers, but only as many as have a few
// hundred bytecode instructions each, so small modules compile on the
// calling goroutine; 1 compiles sequentially; any other count is used as
// given). The generated native code is bit-identical for
// every worker count — parallelism buys wall-clock compile time, never a
// different program — so the knob is deliberately not part of the code-cache
// key: deployments that differ only in their worker count share images.
func WithCompileWorkers(n int) DeployOption {
	return deployOption(func(c *config) {
		if n < 0 {
			n = 1
		}
		c.compileWorkers = n
	})
}

// WithCache enables or disables the engine's code cache for a deployment
// (default enabled). With the cache off the JIT always runs and the
// resulting image is not shared.
func WithCache(on bool) DeployOption {
	return deployOption(func(c *config) { c.noCache = !on })
}
