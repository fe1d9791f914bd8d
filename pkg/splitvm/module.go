package splitvm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/vm"
)

// Module is a compiled (or loaded), verified, deployable module: the byte
// stream that crosses the distribution boundary plus its decoded form. A
// Module is immutable after construction and safe to deploy from many
// goroutines.
type Module struct {
	mod     *cil.Module
	encoded []byte
	hash    [sha256.Size]byte

	// annoInfo is the declared version and support status of every
	// annotation in the module, worked out when AnnotationInfo is first
	// asked for it: deployments never read it.
	annoOnce sync.Once
	annoInfo []AnnotationSectionInfo

	// stats carries offline-compilation accounting; zero for modules that
	// were Load-ed rather than compiled.
	stats ModuleStats

	// interp is the lazily-created reference interpreter (over a private
	// clone, so the shared module stays untouched). The interpreter is not
	// reentrant; the mutex serializes Interpret calls.
	interpMu sync.Mutex
	interp   *vm.Runtime
}

// ModuleStats is the offline-side accounting of a compiled module.
type ModuleStats struct {
	// EncodedBytes is the size of the deployable byte stream.
	EncodedBytes int
	// AnnotationBytes is the total size of the split-compilation
	// annotations carried inside it.
	AnnotationBytes int
	// FoldedConstants counts offline constant-folding rewrites.
	FoldedConstants int
	// VectorizedLoops counts loops the offline vectorizer strip-mined.
	VectorizedLoops int
	// OfflineSteps approximates the analysis work spent offline (the
	// Figure 1 quantity).
	OfflineSteps int64
}

// newCompiledModule wraps a module the offline compiler verified: its
// methods carry the proofs deployments JIT from, and nothing writes to it.
func newCompiledModule(res *core.OfflineResult) (*Module, error) {
	m := &Module{
		mod:     res.Module,
		encoded: res.Encoded,
		hash:    sha256.Sum256(res.Encoded),
		stats: ModuleStats{
			EncodedBytes:    len(res.Encoded),
			AnnotationBytes: res.AnnotationBytes,
			FoldedConstants: res.FoldedConstants,
			OfflineSteps:    res.OfflineSteps,
		},
	}
	for _, vr := range res.VectorizeResults {
		m.stats.VectorizedLoops += len(vr.Plans)
	}
	return m, nil
}

func loadModule(encoded []byte) (*Module, error) {
	buf := append([]byte(nil), encoded...)
	mod, err := cil.Decode(buf)
	if err != nil {
		return nil, err
	}
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	return &Module{
		mod:     mod,
		encoded: buf,
		hash:    sha256.Sum256(buf),
		stats: ModuleStats{
			EncodedBytes:    len(buf),
			AnnotationBytes: anno.TotalAnnotationBytes(mod),
		},
	}, nil
}

// Name returns the module name.
func (m *Module) Name() string { return m.mod.Name }

// Hash returns the hex-encoded SHA-256 of the encoded byte stream — the
// content identity the engine's code cache keys on, usable as a stable
// module identifier by services built on the engine.
func (m *Module) Hash() string { return hex.EncodeToString(m.hash[:]) }

// Encoded returns a copy of the deployable byte stream.
func (m *Module) Encoded() []byte { return append([]byte(nil), m.encoded...) }

// Stats returns the offline-compilation accounting.
func (m *Module) Stats() ModuleStats { return m.stats }

// AnnotationSectionInfo describes one annotation value of a loaded module:
// its declared schema version (0 for grandfathered legacy streams), whether
// this build can consume it, and — for enveloped values — the section table.
type AnnotationSectionInfo = anno.SectionInfo

// AnnotationInfo reports the per-method annotation versions of the module
// as loaded (or compiled): what each annotation declares and whether this
// reader supports it. Unsupported annotations are not errors — deployments
// degrade to online-only compilation for those sections (see
// Deployment.CompileReport).
func (m *Module) AnnotationInfo() []AnnotationSectionInfo {
	m.annoOnce.Do(func() { m.annoInfo = anno.InspectModule(m.mod) })
	return append([]AnnotationSectionInfo(nil), m.annoInfo...)
}

// Methods lists the module's method names in definition order.
func (m *Module) Methods() []string {
	out := make([]string, 0, len(m.mod.Methods))
	for _, meth := range m.mod.Methods {
		out = append(out, meth.Name)
	}
	return out
}

// Disassemble renders the bytecode: signatures, locals, annotations and the
// instruction stream.
func (m *Module) Disassemble() string { return cil.Disassemble(m.mod) }

// Signature describes one method's interface at the level the public API
// needs for argument marshalling: parameter shapes, not raw bytecode types.
type Signature struct {
	Name string
	// Params describes each parameter in order.
	Params []Param
	// ReturnsFloat reports whether the result is floating point.
	ReturnsFloat bool
}

// Param is one parameter shape.
type Param struct {
	// Float marks floating-point scalars.
	Float bool
	// Array marks array references (marshalled as addresses).
	Array bool
}

func signatureOf(meth *cil.Method) Signature {
	sig := Signature{Name: meth.Name, ReturnsFloat: meth.Ret.Kind.IsFloat()}
	for _, p := range meth.Params {
		sig.Params = append(sig.Params, Param{Float: p.Kind.IsFloat(), Array: p.IsArray()})
	}
	return sig
}

// Signature returns the signature of a named method.
func (m *Module) Signature(entry string) (Signature, error) {
	meth := m.mod.Method(entry)
	if meth == nil {
		return Signature{}, fmt.Errorf("splitvm: no method %q in module %s", entry, m.mod.Name)
	}
	return signatureOf(meth), nil
}

// ParseArgs converts command-line style textual arguments into machine
// values following the signature: float parameters parse as floating point,
// integer parameters as integers (a float literal for an integer parameter
// is an error, not a silent truncation). Array parameters cannot be
// expressed textually.
func (s Signature) ParseArgs(raw []string) ([]Value, error) {
	if len(raw) != len(s.Params) {
		return nil, fmt.Errorf("%s expects %d arguments, got %d", s.Name, len(s.Params), len(raw))
	}
	out := make([]Value, len(raw))
	for i, text := range raw {
		p := s.Params[i]
		if p.Array {
			return nil, fmt.Errorf("argument %d of %s is an array; array arguments are only supported programmatically", i+1, s.Name)
		}
		if p.Float {
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("argument %d of %s: %v", i+1, s.Name, err)
			}
			out[i] = FloatArg(v)
			continue
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("argument %d of %s: %v", i+1, s.Name, err)
		}
		out[i] = IntArg(v)
	}
	return out, nil
}

// InterpResult is the outcome of running an entry point on the reference
// interpreter.
type InterpResult struct {
	// Value holds the result (I for integers, F for floats).
	Value Value
	// Float reports which half of Value is meaningful.
	Float bool
	// Steps counts executed bytecode instructions.
	Steps int64
}

// Interpret runs an entry point on the reference interpreter (the managed
// runtime) — the functional oracle the JIT outputs are tested against. Only
// scalar arguments are supported.
func (m *Module) Interpret(entry string, args ...Value) (*InterpResult, error) {
	meth := m.mod.Method(entry)
	if meth == nil {
		return nil, fmt.Errorf("splitvm: no method %q in module %s", entry, m.mod.Name)
	}
	if len(args) != len(meth.Params) {
		return nil, fmt.Errorf("%s expects %d arguments, got %d", entry, len(meth.Params), len(args))
	}
	vmArgs := make([]vm.Value, len(args))
	for i, a := range args {
		p := meth.Params[i]
		if p.IsArray() {
			return nil, fmt.Errorf("argument %d of %s is an array; Interpret supports scalars only", i+1, entry)
		}
		if p.Kind.IsFloat() {
			vmArgs[i] = vm.FloatValue(p.Kind, a.F)
		} else {
			vmArgs[i] = vm.IntValue(p.Kind, a.I)
		}
	}
	m.interpMu.Lock()
	defer m.interpMu.Unlock()
	if m.interp == nil {
		rt, err := vm.NewRuntime(m.mod.Clone())
		if err != nil {
			return nil, err
		}
		m.interp = rt
	}
	before := m.interp.Steps
	res, err := m.interp.Call(entry, vmArgs...)
	if err != nil {
		return nil, err
	}
	return &InterpResult{
		Value: Value{I: res.Int(), F: res.Float()},
		Float: meth.Ret.Kind.IsFloat(),
		Steps: m.interp.Steps - before,
	}, nil
}
