// Package splitvm is the public API of the split-compilation toolchain: the
// reproduction of Cohen & Rohou's "Processor virtualization and split
// compilation" design, grown into a reusable engine.
//
// The toolchain has two halves, and the Engine exposes both:
//
//   - The offline stage (Compile / CompileContext) runs the developer-side
//     compiler: MiniC front end, constant folding, auto-vectorization to
//     portable builtins, lowering to verified CIL-style bytecode, split
//     register allocation analysis, and annotation attachment. Its output is
//     a Module — the deployable, annotated byte stream.
//
//   - The online stage (Deploy / DeployContext) runs the device-side
//     compiler for one target (internal/target): decode, verify, JIT
//     (mapping or scalarizing the portable vector builtins, consuming the
//     register allocation annotation) and instantiate a cycle-approximate
//     machine ready to Run entry points.
//
// Both stages are configured with functional options, typed by the stage
// they configure: a CompileOption (WithVectorize, WithAnnotations, ...)
// is accepted by Compile, a DeployOption (WithTarget, WithRegAllocMode,
// WithLazyCompile, ...) by Deploy, and a SharedOption (WithProfile) by
// both — passing an option to the wrong stage is a compile error, not a
// silent no-op. Every option also satisfies the root Option interface,
// which is what New accepts: options passed to New become engine-wide
// defaults; options passed to a single call override them for that call.
//
// Context plumbing follows one convention across the whole surface, stated
// here once: the *Context variant (CompileContext, DeployContext,
// DeployLinkedContext, RunContext) is the canonical method, and the short
// name is a thin wrapper over context.Background(). Cancellation is safe
// mid-flight by construction — a cancelled deploy leaves the shared code
// cache consistent (the in-flight compilation completes for the next
// caller), and a cancelled lazy run never leaves a half-patched dispatch
// table: the method stays a stub and the next call compiles it.
//
// Deployments are eager by default: every method JIT-compiles at deploy
// time. WithLazyCompile(true) installs per-method stubs instead; each
// method compiles on its first call (singleflight per image and method),
// producing code bit-identical to the eager build — results and simulated
// cycles never depend on compilation timing — and sharing per-method code
// fleet-wide through the disk cache. Programs authored as several modules
// compile with CompileModules, validate with Link and deploy with
// DeployLinked; cross-module calls resolve module-by-content-hash at link
// time, so a missing or mismatched dependency is a Link error, never a
// first-call panic.
//
// The engine maintains a concurrency-safe code cache keyed by (module
// content hash, target description, JIT options): repeated deployments of
// the same module on the same kind of core reuse the JIT-compiled native
// program and only pay for a fresh machine. Concurrent deployments of the
// same key JIT-compile once; the losers of the race wait for the winner's
// image. This is the first scaling primitive toward serving many concurrent
// deployment requests from one engine.
//
// A minimal round trip:
//
//	eng := splitvm.New(splitvm.WithTarget(target.X86SSE))
//	mod, err := eng.Compile(source)
//	dep, err := eng.Deploy(mod)
//	res, err := dep.Run("sumsq", splitvm.IntArg(1000))
package splitvm

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sync"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/target"
)

// Engine unifies the offline and online compilation stages behind one
// configuration and one shared code cache. An Engine is safe for concurrent
// use by multiple goroutines; the zero value is not usable — construct
// engines with New.
type Engine struct {
	defaults []Option

	// disk is the persistent cache layer (WithDiskCache), nil when not
	// configured; diskErr records why opening the store failed — the
	// engine then runs memory-only, and DiskCacheErr surfaces the reason.
	disk    *diskcache.Store
	diskErr error

	mu    sync.Mutex
	cache map[cacheKey]*cacheEntry
	// descs holds the one copy of each target descriptor that cache keys
	// point at; verified the modules that cached images were built from, by
	// content hash, for Load. Each entry leaves with the last cache entry
	// using it. loadHits counts the Loads verified answered.
	descs    map[target.Desc]*internedDesc
	verified map[[sha256.Size]byte]*verifiedModule
	loadHits int64
	// lru orders the completed cache entries, most recently used first;
	// in-flight compilations live only in the map and are never evicted.
	lru *list.List
	// maxEntries bounds the number of completed images kept (0 = unbounded).
	maxEntries int
	hits       int64
	misses     int64
	evictions  int64
	// diskHits counts deployments served from the persistent layer after a
	// memory miss (each is also counted in hits: the caller experienced a
	// cache hit, just a slower one).
	diskHits int64

	// compilations counts completed JIT compilations (cache hits excluded);
	// annoFallbacks counts the subset whose load-time annotation
	// negotiation degraded at least one section to online-only compilation;
	// compileNanos accumulates the wall-clock time those compilations took.
	compilations  int64
	annoFallbacks int64
	compileNanos  int64
	// lazyCompiles counts methods JIT-compiled on first call by lazy
	// deployments (fleet-store hits excluded); their wall-clock time also
	// accumulates into compileNanos.
	lazyCompiles int64
}

// New returns an engine. The options become the engine's defaults; every
// Compile/Deploy call starts from them and applies its own options on top.
//
// The SPLITVM_DISK_CACHE environment variable names a persistent cache
// directory applied to every engine that was not explicitly configured
// with WithDiskCache — the process-wide twin of that option, like
// SPLITVM_TIER and SPLITVM_COMPILE_WORKERS. CI uses it to prove that
// enabling the disk cache never moves a gated metric.
func New(defaults ...Option) *Engine {
	e := &Engine{
		defaults: append([]Option(nil), defaults...),
		cache:    make(map[cacheKey]*cacheEntry),
		descs:    make(map[target.Desc]*internedDesc),
		verified: make(map[[sha256.Size]byte]*verifiedModule),
		lru:      list.New(),
	}
	cfg := e.config(nil)
	e.maxEntries = cfg.cacheSize
	if cfg.diskDir == "" {
		cfg.diskDir = os.Getenv("SPLITVM_DISK_CACHE")
	}
	if cfg.diskDir != "" {
		e.disk, e.diskErr = diskcache.Open(cfg.diskDir)
	}
	return e
}

// DiskCacheErr reports why the persistent cache layer requested with
// WithDiskCache could not be opened (nil when it opened, or when none was
// requested). An engine with a failed disk layer still works — it caches in
// memory only — so callers that require durability must check explicitly.
func (e *Engine) DiskCacheErr() error { return e.diskErr }

// config resolves the effective configuration for one call. The three
// variants differ only in the option type they accept; New's defaults are
// always applied first.
func (e *Engine) config(opts []Option) config {
	cfg := defaultConfig()
	for _, o := range e.defaults {
		o.apply(&cfg)
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}

func (e *Engine) compileConfig(opts []CompileOption) config {
	cfg := e.config(nil)
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}

func (e *Engine) deployConfig(opts []DeployOption) config {
	cfg := e.config(nil)
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}

// offlineOptions maps the resolved config onto the core offline compiler.
func (c *config) offlineOptions() core.OfflineOptions {
	return core.OfflineOptions{
		ModuleName:                 c.moduleName,
		DisableVectorize:           !c.vectorize,
		DisableRegAllocAnnotations: !c.regAllocAnnotations,
		DisableAnnotations:         !c.annotations,
		DisableConstFold:           !c.constFold,
		AnnotationVersion:          c.annotationVersion,
	}
}

// jitOptions maps the resolved config onto the online compiler.
func (c *config) jitOptions() jit.Options {
	return jit.Options{
		RegAlloc:             c.regAlloc,
		ForceScalarize:       c.forceScalarize,
		MinAnnotationVersion: c.minAnnoVersion,
		CompileWorkers:       c.compileWorkers,
	}
}

// Compile runs the offline stage on MiniC source text and returns the
// deployable module.
func (e *Engine) Compile(source string, opts ...CompileOption) (*Module, error) {
	return e.CompileContext(context.Background(), source, opts...)
}

// CompileContext is Compile with cancellation between pipeline stages.
func (e *Engine) CompileContext(ctx context.Context, source string, opts ...CompileOption) (*Module, error) {
	cfg := e.compileConfig(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := core.CompileOffline(source, cfg.offlineOptions())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.attachProfile(res); err != nil {
		return nil, err
	}
	return newCompiledModule(res)
}

// attachProfile embeds a WithProfile profile into the compiled module as a
// versioned annotation (the compile-time half of the shared option) and
// refreshes the encoded byte stream. Profiles only exist in the enveloped
// schema, so the attachment always uses the current version regardless of
// WithAnnotationVersion; WithAnnotations(false) suppresses it like every
// other annotation.
func (c *config) attachProfile(res *core.OfflineResult) error {
	if c.profile == nil || !c.annotations {
		return nil
	}
	if err := anno.AttachProfileV(res.Module, c.profile, anno.CurrentVersion); err != nil {
		return err
	}
	res.Encoded = cil.Encode(res.Module)
	res.AnnotationBytes = anno.TotalAnnotationBytes(res.Module)
	return nil
}

// CompileKernel compiles one named benchmark kernel (see Kernels) with the
// kernel's name as the default module name.
func (e *Engine) CompileKernel(name string, opts ...CompileOption) (*Module, Kernel, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, Kernel{}, err
	}
	m, err := e.Compile(k.Source, append([]CompileOption{WithModuleName(name)}, opts...)...)
	return m, k, err
}

// Load decodes and verifies an encoded module (the device-side entry point
// for byte streams produced elsewhere, e.g. read from a file). While the
// code cache holds an image of bytes with the same SHA-256, Load reuses its
// verified module instead; the result behaves identically either way.
func (e *Engine) Load(encoded []byte) (*Module, error) {
	hash := sha256.Sum256(encoded)
	e.mu.Lock()
	v := e.verified[hash]
	if v != nil {
		e.loadHits++
	}
	e.mu.Unlock()
	if v == nil {
		return loadModule(encoded, hash)
	}
	return newLoadedModule(v.mod, append([]byte(nil), encoded...), hash, v.annoBytes), nil
}

// verifiedModule is a verified module, its annotation byte count and the
// number of cached images built from it.
type verifiedModule struct {
	mod       *cil.Module
	annoBytes int
	images    int
}

// internedDesc is a target descriptor and the number of cache keys using it.
type internedDesc struct {
	desc target.Desc
	refs int
}

// pinLocked counts a newly published image of m in e.verified; images of
// another decode of the same bytes do not count. Caller holds e.mu.
func (e *Engine) pinLocked(ent *cacheEntry, m *Module) {
	v := e.verified[ent.key.hash]
	if v == nil {
		v = &verifiedModule{mod: m.mod, annoBytes: m.stats.AnnotationBytes}
		e.verified[ent.key.hash] = v
	}
	if ent.pinned = v.mod == m.mod; ent.pinned {
		v.images++
	}
}

// dropLocked removes an entry from e.cache and its counts from e.descs and
// e.verified. Caller holds e.mu.
func (e *Engine) dropLocked(ent *cacheEntry) {
	delete(e.cache, ent.key)
	d := e.descs[*ent.key.desc]
	if d.refs--; d.refs == 0 {
		delete(e.descs, d.desc)
	}
	if v := e.verified[ent.key.hash]; ent.pinned {
		if v.images--; v.images == 0 {
			delete(e.verified, ent.key.hash)
		}
	}
}

// Deploy runs the online stage: JIT-compile the module for the configured
// target (through the engine's code cache) and instantiate a machine. With
// WithLazyCompile the whole-module JIT is replaced by per-method stubs that
// compile on first call; everything else — decode, verify, cache identity —
// is unchanged, and the deployment behaves identically apart from when
// compile time is paid.
func (e *Engine) Deploy(m *Module, opts ...DeployOption) (*Deployment, error) {
	return e.DeployContext(context.Background(), m, opts...)
}

// DeployContext is Deploy with cancellation. A caller whose context expires
// while another goroutine JIT-compiles the shared image returns early; the
// compilation itself finishes and stays cached. On lazy deployments the
// machine threads each Run's context into any first-call compilation it
// triggers, so a cancelled run aborts the resolution before anything is
// patched — a later call retries cleanly.
func (e *Engine) DeployContext(ctx context.Context, m *Module, opts ...DeployOption) (*Deployment, error) {
	if m == nil {
		return nil, fmt.Errorf("splitvm: Deploy needs a module (did Compile fail?)")
	}
	if len(m.mod.Imports) > 0 {
		return nil, fmt.Errorf("splitvm: module %q imports other modules; use Engine.Link and DeployLinked so its cross-module calls resolve at link time", m.mod.Name)
	}
	cfg := e.deployConfig(opts)
	tgt, err := cfg.targetDesc()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jopts := cfg.jitOptions()
	if cfg.noCache {
		priv := *tgt // the image outlives the call; never alias the caller's descriptor
		img, err := e.buildImage(m, &priv, jopts, cfg.lazyCompile, "")
		if err != nil {
			return nil, err
		}
		d := img.Instantiate()
		cfg.applyTiering(d)
		cfg.applyGovernor(d)
		return &Deployment{d: d}, nil
	}
	img, hit, diskHit, err := e.image(ctx, m, tgt, jopts, cfg.lazyCompile)
	if err != nil {
		return nil, err
	}
	d := img.Instantiate()
	cfg.applyTiering(d)
	cfg.applyGovernor(d)
	return &Deployment{d: d, fromCache: hit, fromDisk: diskHit}, nil
}

// buildImage constructs one image outside the cache lookup: eager (counted
// as a compilation) or lazy (counted per method as first calls arrive).
// name, the cache key's content address (diskName), wires lazy images to the
// per-method disk store; empty — no disk layer, or the no-cache path —
// leaves them store-less.
func (e *Engine) buildImage(m *Module, tgt *target.Desc, jopts jit.Options, lazy bool, name string) (*core.Image, error) {
	if !lazy {
		img, err := core.ImageFromVerifiedModule(m.mod, tgt, jopts)
		if err != nil {
			return nil, err
		}
		e.countCompilation(img)
		return img, nil
	}
	img, err := core.LazyImageFromVerifiedModule(m.mod, tgt, jopts)
	if err != nil {
		return nil, err
	}
	if name != "" {
		img.SetMethodStore(&methodStore{disk: e.disk, base: name, mod: m.mod})
	}
	img.OnLazyCompile(func(method string, nanos int64, fromStore bool) {
		e.mu.Lock()
		if fromStore {
			e.diskHits++
		} else {
			e.lazyCompiles++
			e.compileNanos += nanos
		}
		e.mu.Unlock()
	})
	return img, nil
}

// cacheKey identifies one JIT compilation. The target description is keyed
// by the engine's interned copy of it (Engine.descs), one per distinct
// value, so two descriptors that differ in any machine parameter (for
// example a WithIntRegs-resized register file) never share native code.
// CompileWorkers is deliberately absent: the parallel compile pipeline
// produces bit-identical programs for every worker count, so keying on it
// would only duplicate images.
type cacheKey struct {
	hash           [sha256.Size]byte
	desc           *target.Desc
	regAlloc       jit.RegAllocMode
	forceScalarize bool
	minAnnoVersion uint32
	// lazy separates lazily materialized images from eager ones: the native
	// code is bit-identical method by method, but an eager image is complete
	// at deploy time while a lazy one fills in as methods are first called,
	// so the two must never be the same cache entry.
	lazy bool
}

// cacheEntry is one cached (or in-flight) JIT compilation. ready is closed
// once img/err are final.
type cacheEntry struct {
	key cacheKey
	// diskName is the key's content address in the disk store, computed once
	// when the entry is created; empty without a disk layer.
	diskName string
	ready    chan struct{}
	img      *core.Image
	err      error
	// elem is the entry's position in the engine's LRU list, nil while the
	// compilation is in flight or after eviction. Guarded by Engine.mu.
	elem *list.Element
	// persisted records that the image is durably in the disk store, so an
	// LRU eviction can drop it from memory without losing it; entries that
	// missed their write-through are demoted at eviction time instead.
	// Written only by the goroutine that owns the compilation or eviction.
	persisted bool
	// pinned records that the image counts in Engine.verified (guarded by
	// Engine.mu).
	pinned bool
}

// image returns the JIT-compiled image for (module, target, options),
// building it at most once per key. The first boolean reports whether the
// image came from the cache (joining an in-flight compilation counts as a
// hit); the second whether it was materialized from the persistent layer.
func (e *Engine) image(ctx context.Context, m *Module, tgt *target.Desc, jopts jit.Options, lazy bool) (*core.Image, bool, bool, error) {
	key := cacheKey{
		hash:           m.hash,
		regAlloc:       jopts.RegAlloc,
		forceScalarize: jopts.ForceScalarize,
		minAnnoVersion: jopts.MinAnnotationVersion,
		lazy:           lazy,
	}

	e.mu.Lock()
	d := e.descs[*tgt]
	if d == nil { // no entry uses the descriptor yet: intern a copy
		d = &internedDesc{desc: *tgt}
		e.descs[d.desc] = d
	}
	key.desc = &d.desc
	if ent, ok := e.cache[key]; ok {
		if ent.elem != nil {
			e.lru.MoveToFront(ent.elem)
		}
		e.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, false, false, ctx.Err()
		}
		if ent.err != nil {
			return nil, false, false, ent.err
		}
		// Count the hit only once the deployment is actually served from
		// the shared image; cancelled or failed waits are neither hits nor
		// misses.
		e.mu.Lock()
		e.hits++
		e.mu.Unlock()
		return ent.img, true, false, nil
	}
	d.refs++
	// Build from the engine's copy of the descriptor, never the caller's
	// pointer, so later mutation of a WithTargetDesc argument cannot
	// corrupt cached deployments.
	tgt = key.desc
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	e.cache[key] = ent
	e.mu.Unlock()
	if e.disk != nil {
		ent.diskName = diskName(key)
	}

	// Memory missed; the persistent layer gets the next word. A disk hit is
	// a cache hit for the caller (same image the original compilation
	// produced, no JIT work) — just a slower one — and is promoted into the
	// LRU like any completed entry. Anything wrong with the disk copy
	// (absent, truncated, bit-flipped, stale schema) falls through to a
	// plain recompilation: the disk is advisory, never authoritative. Lazy
	// images skip the whole-image layer entirely: they persist method by
	// method through the method store instead.
	diskHit := false
	if e.disk != nil && !lazy {
		if img, ok := e.loadFromDisk(ent.diskName, tgt, jopts, m); ok {
			ent.img = img
			ent.persisted = true
			diskHit = true
		}
	}
	if !diskHit {
		ent.img, ent.err = e.buildImage(m, tgt, jopts, lazy, ent.diskName)
	}
	close(ent.ready)
	if ent.err == nil && !diskHit {
		if lazy {
			// A lazy image is never persisted whole (it may be partial at
			// any moment); marking it persisted lets an LRU eviction drop it
			// without a pointless demotion write.
			ent.persisted = true
		} else if e.disk != nil {
			// Write-through, outside the engine lock: restarts are warm and
			// replicas sharing the volume skip this compilation entirely.
			ent.persisted = e.persistImage(ent.diskName, ent.img)
		}
	}
	// demoted collects evicted entries whose write-through never landed;
	// they are persisted after the lock is released (disk I/O under the
	// engine mutex would stall every concurrent deployment).
	var demoted []*cacheEntry
	e.mu.Lock()
	switch {
	case ent.err != nil:
		// Do not cache failures: a later attempt (e.g. after Register
		// replaced a target) should retry. Delete only our own entry — a
		// concurrent ClearCache may already have installed a new one.
		if e.cache[key] == ent {
			e.dropLocked(ent)
		}
		e.misses++
	case e.cache[key] == ent:
		if diskHit {
			e.hits++
			e.diskHits++
		} else {
			e.misses++
		}
		// Publish to the LRU list and enforce the size bound. Only completed
		// entries are evictable; an in-flight compilation is pinned by its
		// waiters.
		ent.elem = e.lru.PushFront(ent)
		e.pinLocked(ent, m)
		for e.maxEntries > 0 && e.lru.Len() > e.maxEntries {
			old := e.lru.Remove(e.lru.Back()).(*cacheEntry)
			old.elem = nil
			if e.cache[old.key] == old {
				e.dropLocked(old)
			}
			e.evictions++
			if e.disk != nil && !old.persisted {
				demoted = append(demoted, old)
			}
		}
	default:
		// A concurrent ClearCache superseded the entry; the caller still
		// gets the image it built or loaded.
		if !diskHit {
			e.misses++
		}
	}
	e.mu.Unlock()
	for _, old := range demoted {
		old.persisted = e.persistImage(old.diskName, old.img)
	}
	if ent.err != nil {
		return nil, false, false, ent.err
	}
	return ent.img, diskHit, diskHit, nil
}

// countCompilation records one completed JIT compilation and its
// annotation-negotiation outcome in the engine counters.
func (e *Engine) countCompilation(img *core.Image) {
	e.mu.Lock()
	e.compilations++
	e.compileNanos += img.CompileNanos
	if img.AnnotationFallbacks > 0 {
		e.annoFallbacks++
	}
	e.mu.Unlock()
}

// CompileStats reports JIT compilation outcomes over the engine's lifetime.
type CompileStats struct {
	// Compilations counts completed JIT compilations (deployments served
	// from the code cache are not re-counted).
	Compilations int64 `json:"compilations"`
	// FallbackCompilations counts compilations in which at least one
	// annotation section could not be consumed — malformed, from the
	// future, or below WithMinAnnotationVersion — and degraded to
	// online-only compilation. Note the unit: compilations, not sections —
	// CompileReport.AnnotationFallbacks counts the individual sections of
	// one compilation, so the two are not expected to add up.
	FallbackCompilations int64 `json:"fallback_compilations"`
	// CompileNanosTotal is the cumulative wall-clock time of whole-module
	// compilations plus first-call method compilations: divided by
	// Compilations it gives the average online compile cost a cache miss
	// pays on an eager engine.
	CompileNanosTotal int64 `json:"compile_nanos_total"`
	// LazyCompiles counts methods JIT-compiled on first call by lazy
	// deployments. Methods materialized from the fleet-wide per-method disk
	// store are excluded (they cost no JIT work here) — they show up in
	// CacheStats.DiskHits instead. A lazy deployment itself never increments
	// Compilations: it performs zero up-front compilations by construction.
	LazyCompiles int64 `json:"lazy_compiles"`
}

// CompileStats returns a snapshot of the engine's compilation counters.
func (e *Engine) CompileStats() CompileStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CompileStats{
		Compilations:         e.compilations,
		FallbackCompilations: e.annoFallbacks,
		CompileNanosTotal:    e.compileNanos,
		LazyCompiles:         e.lazyCompiles,
	}
}

// CacheStats reports code cache effectiveness.
type CacheStats struct {
	// Hits counts deployments served from a cached (or in-flight) image.
	Hits int64 `json:"hits"`
	// Misses counts deployments that had to JIT-compile.
	Misses int64 `json:"misses"`
	// Evictions counts completed images dropped by the LRU size bound
	// (WithCacheSize); always zero on an unbounded engine.
	Evictions int64 `json:"evictions"`
	// Entries is the number of native images currently cached.
	Entries int `json:"entries"`
	// MaxEntries is the configured size bound (0 = unbounded).
	MaxEntries int `json:"max_entries"`
	// LoadHits counts Loads answered without a decode, by the module of a
	// cached image; VerifiedModules is the number of such modules.
	LoadHits        int64 `json:"load_hits"`
	VerifiedModules int   `json:"verified_modules"`
	// DiskHits counts deployments served from the persistent layer after a
	// memory miss (each is also counted in Hits); always zero without
	// WithDiskCache.
	DiskHits int64 `json:"disk_hits,omitempty"`
	// Disk reports the persistent store's own traffic (entries, bytes,
	// corrupt files degraded to recompilation); nil without WithDiskCache.
	Disk *DiskCacheStats `json:"disk,omitempty"`
}

// CacheStats returns a snapshot of the engine's code cache counters.
// Entries counts completed images only; in-flight compilations are excluded.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	st := CacheStats{
		Hits:            e.hits,
		Misses:          e.misses,
		Evictions:       e.evictions,
		Entries:         e.lru.Len(),
		MaxEntries:      e.maxEntries,
		DiskHits:        e.diskHits,
		LoadHits:        e.loadHits,
		VerifiedModules: len(e.verified),
	}
	e.mu.Unlock()
	if e.disk != nil {
		ds := e.disk.Stats()
		st.Disk = &ds
	}
	return st
}

// ClearCache drops every cached native image and the verified modules Load
// shares from them (counters are kept; a clear is not counted as eviction).
// In-flight compilations finish and are delivered to their waiters but are
// not re-cached.
func (e *Engine) ClearCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for elem := e.lru.Front(); elem != nil; elem = elem.Next() {
		elem.Value.(*cacheEntry).elem = nil
	}
	e.cache = make(map[cacheKey]*cacheEntry)
	e.descs = make(map[target.Desc]*internedDesc)
	e.verified = make(map[[sha256.Size]byte]*verifiedModule)
	e.lru.Init()
}
