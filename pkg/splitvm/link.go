package splitvm

import (
	"context"
	"fmt"

	"repro/internal/cil"
	"repro/internal/core"
)

// Multi-module linking on the public surface. A program can be authored as
// several modules (CompileModules) whose cross-module calls are recorded as
// content-hash imports in the byte streams; Link validates a set of such
// modules into a LinkedModule and DeployLinked instantiates one machine
// spanning them. The contract mirrors the paper's distribution model: the
// byte stream crossing the boundary carries everything the device needs to
// verify and JIT in isolation, and cross-module references resolve
// module-by-content-hash at link time — a missing or mismatched dependency
// is a Link/Deploy error, never a first-call panic.

// ModuleSource names one source of a multi-module compilation.
type ModuleSource struct {
	// Name is the produced module's name (must be non-empty and unique in
	// the set).
	Name string
	// Source is the MiniC source text whose top-level functions the module
	// owns.
	Source string
}

// CompileModules compiles several MiniC sources as one program split into
// one module per source. The set is checked, optimized and lowered exactly
// like the concatenated single-module compilation — splitting never changes
// the generated code — and call sites that cross a source boundary become
// hash-qualified imports in the caller's byte stream. The results are
// ordered like the input and deploy together through Link + DeployLinked;
// each module is also individually loadable and hashable. Function names
// must be unique across the set, and cross-source call cycles between
// modules are an error (a module's content hash cannot include itself).
//
// WithProfile's compile-time half is not applied here: embedding a profile
// re-encodes a module, which would invalidate the content hashes its
// importers already carry. Deploy-time warm-up still works as usual.
func (e *Engine) CompileModules(sources []ModuleSource, opts ...CompileOption) ([]*Module, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("splitvm: CompileModules needs at least one source")
	}
	cfg := e.compileConfig(opts)
	srcs := make([]string, len(sources))
	names := make([]string, len(sources))
	for i, s := range sources {
		if s.Name == "" {
			return nil, fmt.Errorf("splitvm: module %d has no name", i)
		}
		srcs[i], names[i] = s.Source, s.Name
	}
	ocfg := cfg.offlineOptions()
	ocfg.ModuleName = "" // per-part names come from the sources
	results, err := core.CompileOfflineModules(srcs, names, ocfg)
	if err != nil {
		return nil, err
	}
	out := make([]*Module, len(results))
	for i, res := range results {
		if out[i], err = newCompiledModule(res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LinkedModule is a validated set of modules whose cross-module imports all
// resolve inside the set: every import hash names a member, every imported
// method exists with the declared signature, and method names are globally
// unique. A LinkedModule is immutable and safe to deploy from many
// goroutines; the first module is the set's root (its name labels the
// deployment).
type LinkedModule struct {
	mods []*Module
}

// Link validates a set of compiled (or loaded) modules into a deployable
// LinkedModule. All structural link errors — a dependency missing from the
// set, an imported method the dependency does not define, a signature
// mismatch, duplicate method names — surface here, so DeployLinked can only
// fail for deploy-side reasons (target resolution, JIT errors).
func (e *Engine) Link(mods ...*Module) (*LinkedModule, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("splitvm: Link needs at least one module")
	}
	byHash := make(map[[cil.HashSize]byte]*Module, len(mods))
	owner := make(map[string]*Module)
	for _, m := range mods {
		if m == nil {
			return nil, fmt.Errorf("splitvm: Link got a nil module (did Compile fail?)")
		}
		if _, dup := byHash[m.hash]; dup {
			return nil, fmt.Errorf("splitvm: module %q appears in the link set twice", m.mod.Name)
		}
		byHash[m.hash] = m
		for _, meth := range m.mod.Methods {
			if prev, dup := owner[meth.Name]; dup {
				return nil, fmt.Errorf("splitvm: method %q defined by both %q and %q; method names must be unique across a link set",
					meth.Name, prev.mod.Name, m.mod.Name)
			}
			owner[meth.Name] = m
		}
	}
	for _, m := range mods {
		for i := range m.mod.Imports {
			im := &m.mod.Imports[i]
			dep, ok := byHash[im.Hash]
			if !ok {
				return nil, fmt.Errorf("splitvm: module %q imports %q (hash %x) which is not in the link set",
					m.mod.Name, im.Module, im.Hash[:8])
			}
			for _, want := range im.Methods {
				got := dep.mod.Method(want.Name)
				if got == nil {
					return nil, fmt.Errorf("splitvm: module %q imports method %q from %q, which does not define it",
						m.mod.Name, want.Name, dep.mod.Name)
				}
				if !sameLinkSignature(got, want) {
					return nil, fmt.Errorf("splitvm: module %q imports %q.%s with a signature that does not match the linked module",
						m.mod.Name, dep.mod.Name, want.Name)
				}
			}
		}
	}
	return &LinkedModule{mods: append([]*Module(nil), mods...)}, nil
}

func sameLinkSignature(got *cil.Method, want cil.ImportedMethod) bool {
	if len(got.Params) != len(want.Params) || got.Ret != want.Ret {
		return false
	}
	for i := range got.Params {
		if got.Params[i] != want.Params[i] {
			return false
		}
	}
	return true
}

// Modules returns the link set's members in link order.
func (lm *LinkedModule) Modules() []*Module { return append([]*Module(nil), lm.mods...) }

// Methods lists every method name of the set, module by module in link
// order (names are unique across the set by the Link contract).
func (lm *LinkedModule) Methods() []string {
	var out []string
	for _, m := range lm.mods {
		out = append(out, m.Methods()...)
	}
	return out
}

// DeployLinked deploys a linked set of modules as one machine: every module
// is JIT-compiled for the configured target through the engine's code cache
// — eagerly, or per method on first call with WithLazyCompile — and
// cross-module calls dispatch directly to the resolved native code. The
// returned Deployment runs any method of the set by its plain name and its
// per-method state queries (CompileState, MethodCounts) span all units.
func (e *Engine) DeployLinked(lm *LinkedModule, opts ...DeployOption) (*Deployment, error) {
	return e.DeployLinkedContext(context.Background(), lm, opts...)
}

// DeployLinkedContext is DeployLinked with cancellation, with the same
// semantics as DeployContext (per-unit image compilations are shared and
// survive the caller's cancellation; a cancelled lazy run never leaves a
// half-patched dispatch table).
func (e *Engine) DeployLinkedContext(ctx context.Context, lm *LinkedModule, opts ...DeployOption) (*Deployment, error) {
	if lm == nil || len(lm.mods) == 0 {
		return nil, fmt.Errorf("splitvm: DeployLinked needs a linked module (did Link fail?)")
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
	units := make([]core.LinkUnit, len(lm.mods))
	allHit, allDisk := true, true
	for i, m := range lm.mods {
		var img *core.Image
		if cfg.noCache {
			priv := *tgt
			img, err = e.buildImage(m, &priv, jopts, cfg.lazyCompile, "")
			allHit, allDisk = false, false
		} else {
			var hit, diskHit bool
			img, hit, diskHit, err = e.image(ctx, m, tgt, jopts, cfg.lazyCompile)
			allHit = allHit && hit
			allDisk = allDisk && diskHit
		}
		if err != nil {
			return nil, err
		}
		units[i] = core.LinkUnit{Hash: m.hash, Image: img}
	}
	linked, err := core.NewLinked(units)
	if err != nil {
		return nil, err
	}
	d := linked.Instantiate()
	cfg.applyTiering(d)
	cfg.applyGovernor(d)
	return &Deployment{d: d, fromCache: allHit, fromDisk: allDisk, linked: linked}, nil
}
