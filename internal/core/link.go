package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"

	"repro/internal/cil"
	"repro/internal/minic"
	"repro/internal/nisa"
	"repro/internal/sim"
)

// LinkUnit is one module of a link set: its image (eager or lazy) plus the
// content hash of its encoded bytes — the identity its dependents' import
// tables name it by.
type LinkUnit struct {
	Hash  [cil.HashSize]byte
	Image *Image
}

// Linked is a validated set of images whose cross-module calls all resolve
// at link time. NewLinked proves that every import names a unit of the set
// and an existing method with a matching signature, so instantiated
// deployments can never hit an unresolvable callee at run time — a missing
// dependency is a link error, not a first-call panic.
//
// Method names are globally unique across the set (enforced by NewLinked):
// entry points are called by their plain name, and hash-qualified import
// symbols dispatch to the owning unit.
type Linked struct {
	Units []LinkUnit

	byQual map[string]int // hex-qualifier of cil.ImportSym → unit index
	byName map[string]int // plain method name → owning unit index
	// code is the decoded code every machine spanning the set shares.
	code *sim.Code
}

// NewLinked validates a link set. All units must target the same processor
// with the same JIT options (they share one machine), every import hash must
// name a unit of the set whose module has the imported methods with matching
// signatures, and method names must be unique across the set.
func NewLinked(units []LinkUnit) (*Linked, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("core: link set is empty")
	}
	first := units[0].Image
	l := &Linked{
		Units:  units,
		byQual: make(map[string]int, len(units)),
		byName: make(map[string]int),
		code:   sim.NewCode(first.Target),
	}
	byHash := make(map[[cil.HashSize]byte]int, len(units))
	for i, u := range units {
		img := u.Image
		// Compare descriptors by value: cached images each hold a private
		// copy of the descriptor they were keyed under, so pointer identity
		// would spuriously reject identical targets.
		if *img.Target != *first.Target {
			return nil, fmt.Errorf("core: link set mixes targets %q and %q", first.Target.Name, img.Target.Name)
		}
		if img.JITOpts != first.JITOpts {
			return nil, fmt.Errorf("core: link set mixes JIT options across modules %q and %q", first.Module.Name, img.Module.Name)
		}
		if _, dup := byHash[u.Hash]; dup {
			return nil, fmt.Errorf("core: link set contains module %q twice (hash %x)", img.Module.Name, u.Hash[:8])
		}
		byHash[u.Hash] = i
		qual := cil.HashQualifier(u.Hash)
		if prev, dup := l.byQual[qual]; dup {
			return nil, fmt.Errorf("core: modules %q and %q collide on hash qualifier %s",
				units[prev].Image.Module.Name, img.Module.Name, qual)
		}
		l.byQual[qual] = i
		for _, m := range img.Module.Methods {
			if prev, dup := l.byName[m.Name]; dup {
				return nil, fmt.Errorf("core: method %q defined by both %q and %q; method names must be unique across a link set",
					m.Name, units[prev].Image.Module.Name, img.Module.Name)
			}
			l.byName[m.Name] = i
		}
	}
	// Every import of every unit must resolve inside the set, method by
	// method, signature by signature.
	for _, u := range units {
		mod := u.Image.Module
		for i := range mod.Imports {
			im := &mod.Imports[i]
			j, ok := byHash[im.Hash]
			if !ok {
				return nil, fmt.Errorf("core: module %q imports %q (hash %x) which is not in the link set",
					mod.Name, im.Module, im.Hash[:8])
			}
			dep := units[j].Image.Module
			for _, want := range im.Methods {
				got := dep.Method(want.Name)
				if got == nil {
					return nil, fmt.Errorf("core: module %q imports method %q from %q, which does not define it",
						mod.Name, want.Name, dep.Name)
				}
				if !sameSignature(got.Params, got.Ret, want.Params, want.Ret) {
					return nil, fmt.Errorf("core: module %q imports %q.%s with a signature that does not match the linked module",
						mod.Name, dep.Name, want.Name)
				}
			}
		}
	}
	return l, nil
}

func sameSignature(params []cil.Type, ret cil.Type, wantParams []cil.Type, wantRet cil.Type) bool {
	if len(params) != len(wantParams) || ret != wantRet {
		return false
	}
	for i := range params {
		if params[i] != wantParams[i] {
			return false
		}
	}
	return true
}

// Lazy reports whether any unit of the set compiles methods on first call.
func (l *Linked) Lazy() bool {
	for _, u := range l.Units {
		if u.Image.Lazy() {
			return true
		}
	}
	return false
}

// unitFor maps a call symbol — a plain method name or a hash-qualified
// import symbol — to the owning unit and the method's plain name.
func (l *Linked) unitFor(sym string) (*Image, string, error) {
	name := sym
	if cil.IsImportSym(sym) {
		var qual string
		name, qual = cil.SplitImportSym(sym)
		if i, ok := l.byQual[qual]; ok {
			return l.Units[i].Image, name, nil
		}
		return nil, "", fmt.Errorf("core: link set has no module with qualifier %q (symbol %q)", qual, sym)
	}
	if i, ok := l.byName[sym]; ok {
		return l.Units[i].Image, name, nil
	}
	return nil, "", fmt.Errorf("core: unknown method %q in link set", sym)
}

// ResolveMethod resolves a call symbol through the link set: the owning
// unit's image compiles the method on first use if it is lazy. Resolution is
// singleflight per (image, method) regardless of how many deployments —
// across the set's symbols — need it.
func (l *Linked) ResolveMethod(ctx context.Context, sym string) (*nisa.Func, error) {
	img, name, err := l.unitFor(sym)
	if err != nil {
		return nil, err
	}
	return img.ResolveMethod(ctx, name)
}

// CompileState reports the per-method state of every unit, keyed by the
// plain (globally unique) method name.
func (l *Linked) CompileState() map[string]MethodCompileState {
	out := make(map[string]MethodCompileState)
	for _, u := range l.Units {
		for name, st := range u.Image.CompileState() {
			out[name] = st
		}
	}
	return out
}

// MethodCounts sums Image.MethodCounts over the set.
func (l *Linked) MethodCounts() (compiled, total int) {
	for _, u := range l.Units {
		c, t := u.Image.MethodCounts()
		compiled += c
		total += t
	}
	return compiled, total
}

// LazyCompileNanos sums the first-call compile time spent so far across the
// set's lazy units (zero for all-eager sets).
func (l *Linked) LazyCompileNanos() int64 {
	var total int64
	for _, u := range l.Units {
		total += u.Image.LazyCompileNanos()
	}
	return total
}

// ensureCompiled resolves every method of every unit and patches prog with
// the results, plain names and import-symbol aliases alike — the bulk
// counterpart of the machine resolver's one-symbol-at-a-time patching.
func (l *Linked) ensureCompiled(ctx context.Context, prog *nisa.Program) error {
	for _, u := range l.Units {
		for _, m := range u.Image.Module.Methods {
			f, err := u.Image.ResolveMethod(ctx, m.Name)
			if err != nil {
				return err
			}
			prog.Funcs[m.Name] = f
		}
	}
	for _, u := range l.Units {
		mod := u.Image.Module
		for i := range mod.Imports {
			im := &mod.Imports[i]
			for _, want := range im.Methods {
				sym := cil.ImportSym(im.Hash, want.Name)
				if f := prog.Funcs[want.Name]; f != nil {
					prog.Funcs[sym] = f
				}
			}
		}
	}
	return nil
}

// Instantiate creates a machine spanning the whole link set: one program
// holding every resolved method under its plain name plus alias entries for
// the hash-qualified symbols cross-module call sites use, executing the
// decoded code every machine of the set shares. Eager sets start fully
// populated; lazy sets start with whatever is ready and resolve the rest on
// first call.
func (l *Linked) Instantiate() *Deployment {
	root := l.Units[0].Image
	prog := nisa.NewProgram(root.Target.Name)
	for _, u := range l.Units {
		if u.Image.lazy != nil {
			u.Image.lazy.snapshot(prog)
		} else {
			for name, f := range u.Image.Program.Funcs {
				prog.Funcs[name] = f
			}
		}
	}
	// Alias every import symbol that already has resolved code; the rest
	// resolve through the machine's resolver.
	for _, u := range l.Units {
		mod := u.Image.Module
		for i := range mod.Imports {
			im := &mod.Imports[i]
			for _, want := range im.Methods {
				sym := cil.ImportSym(im.Hash, want.Name)
				if f := prog.Funcs[want.Name]; f != nil {
					prog.Funcs[sym] = f
				}
			}
		}
	}
	machine := sim.NewWithCode(prog, l.code)
	machine.SetResolver(func(ctx context.Context, sym string) (*nisa.Func, error) {
		return l.ResolveMethod(ctx, sym)
	})
	d := &Deployment{
		Target:  root.Target,
		Module:  root.Module,
		Program: prog,
		JITOpts: root.JITOpts,
		Machine: machine,
		Image:   root,
		linked:  l,
	}
	for _, u := range l.Units {
		d.JITSteps += u.Image.JITSteps
		d.CompileNanos += u.Image.CompileNanos
		d.AnnotationOutcomes = append(d.AnnotationOutcomes, u.Image.AnnotationOutcomes...)
		d.AnnotationFallbacks += u.Image.AnnotationFallbacks
	}
	if envTier() {
		d.EnableTiering(TierOptions{})
	}
	if ml := EnvMemLimit(); ml > 0 {
		d.SetMemLimit(ml)
	}
	return d
}

// HashModule returns the content hash link sets identify a module by: the
// sha256 of its encoded bytes.
func HashModule(encoded []byte) [cil.HashSize]byte {
	return sha256.Sum256(encoded)
}

// CompileOfflineModules compiles several MiniC sources as one program split
// into one module per source. The sources are parsed separately — each owns
// the functions it declares — then checked, optimized and lowered together,
// so cross-source calls type-check exactly like same-source ones. Call sites
// that cross a source boundary are rewritten to hash-qualified import
// symbols and recorded in the caller's import table; the returned results
// are ordered dependencies-first (a module's hash must exist before an
// importer can name it), and dependency cycles between sources are an error.
// The per-module byte streams deploy as a link set.
func CompileOfflineModules(sources []string, names []string, opts OfflineOptions) ([]*OfflineResult, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	if len(names) != len(sources) {
		return nil, fmt.Errorf("core: %d sources but %d module names", len(sources), len(names))
	}
	// Ownership: which source declares which function.
	owner := make(map[string]int)
	for i, src := range sources {
		prog, err := minic.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("core: module %q: %w", names[i], err)
		}
		for _, fn := range prog.Funcs {
			if prev, dup := owner[fn.Name]; dup {
				return nil, fmt.Errorf("core: function %q declared by both %q and %q; names must be unique across a link set",
					fn.Name, names[prev], names[i])
			}
			owner[fn.Name] = i
		}
	}
	// Compile the concatenation as one unit: shared front end, optimizer,
	// codegen and offline analyses, so splitting never changes the code.
	merged := ""
	for _, src := range sources {
		merged += src + "\n"
	}
	res, err := CompileOffline(merged, opts)
	if err != nil {
		return nil, err
	}
	// Partition the merged module's methods back to their owning sources.
	parts := make([]*cil.Module, len(sources))
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("core: module %d has no name", i)
		}
		parts[i] = cil.NewModule(name)
		for k, v := range res.Module.Annotations {
			parts[i].SetAnnotation(k, v)
		}
	}
	for _, m := range res.Module.Methods {
		i, ok := owner[m.Name]
		if !ok {
			return nil, fmt.Errorf("core: method %q has no owning source", m.Name)
		}
		parts[i].Methods = append(parts[i].Methods, m)
	}
	// Cross-part call graph for the dependencies-first hash ordering.
	deps := make([]map[int]bool, len(parts))
	for i := range deps {
		deps[i] = make(map[int]bool)
	}
	for i, part := range parts {
		for _, m := range part.Methods {
			for _, in := range m.Code {
				if in.Op != cil.Call {
					continue
				}
				j, ok := owner[in.Str]
				if !ok {
					continue // intrinsic or local helper resolved later by Verify
				}
				if j != i {
					deps[i][j] = true
				}
			}
		}
	}
	order, err := topoOrder(deps, names)
	if err != nil {
		return nil, err
	}
	// Encode dependencies-first, rewriting cross-part calls to import
	// symbols as each dependency's hash becomes known.
	hashes := make([][cil.HashSize]byte, len(parts))
	encoded := make(map[int][]byte, len(parts))
	for _, i := range order {
		part := parts[i]
		for _, m := range part.Methods {
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != cil.Call {
					continue
				}
				j, ok := owner[in.Str]
				if !ok || j == i {
					continue
				}
				dep := parts[j]
				callee := dep.Method(in.Str)
				part.AddImport(cil.Import{
					Hash:   hashes[j],
					Module: dep.Name,
					Methods: []cil.ImportedMethod{{
						Name:   callee.Name,
						Params: append([]cil.Type(nil), callee.Params...),
						Ret:    callee.Ret,
					}},
				})
				in.Str = cil.ImportSym(hashes[j], in.Str)
			}
		}
		if err := cil.Verify(part); err != nil {
			return nil, fmt.Errorf("core: module %q after split: %w", part.Name, err)
		}
		enc := cil.Encode(part)
		encoded[i] = enc
		hashes[i] = HashModule(enc)
	}
	out := make([]*OfflineResult, len(parts))
	for i, part := range parts {
		out[i] = &OfflineResult{Module: part, Encoded: encoded[i]}
	}
	return out, nil
}

// topoOrder orders part indices dependencies-first; a dependency cycle
// between parts is an error (a module's content hash cannot include itself).
func topoOrder(deps []map[int]bool, names []string) ([]int, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]int, len(deps))
	order := make([]int, 0, len(deps))
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("core: dependency cycle through module %q; cyclic imports cannot be content-hashed", names[i])
		}
		state[i] = visiting
		targets := make([]int, 0, len(deps[i]))
		for j := range deps[i] {
			targets = append(targets, j)
		}
		sort.Ints(targets)
		for _, j := range targets {
			if err := visit(j); err != nil {
				return err
			}
		}
		state[i] = done
		order = append(order, i)
		return nil
	}
	for i := range deps {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}
