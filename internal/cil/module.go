package cil

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/anno/envelope"
)

// Method is a single bytecode method: typed signature, typed locals, a flat
// instruction stream with instruction-index branch targets, and metadata
// annotations produced by the offline compiler.
type Method struct {
	Name        string
	Params      []Type
	Ret         Type
	Locals      []Type
	Code        []Instr
	Annotations map[string][]byte

	// MaxStack is the maximum evaluation-stack depth; it is computed by
	// Verify and stored so that deployment-side compilers do not need to
	// recompute it.
	MaxStack int

	// proof is Verify's other result (see StackProof); nil until verified.
	proof *StackProof
	// memo is the readers' cache of what Annotations decode to (see Memo).
	memo atomic.Pointer[any]
}

// NewMethod returns an empty method with the given signature.
func NewMethod(name string, params []Type, ret Type) *Method {
	return &Method{
		Name:        name,
		Params:      append([]Type(nil), params...),
		Ret:         ret,
		Annotations: make(map[string][]byte),
	}
}

// AddLocal appends a local of the given type and returns its index.
func (m *Method) AddLocal(t Type) int {
	m.Locals = append(m.Locals, t)
	return len(m.Locals) - 1
}

// SetAnnotation attaches (or replaces) an annotation on the method.
func (m *Method) SetAnnotation(key string, value []byte) {
	if m.Annotations == nil {
		m.Annotations = make(map[string][]byte)
	}
	m.Annotations[key] = append([]byte(nil), value...)
	m.memo.Store(nil)
}

// Memo returns what SetMemo last stored, or nil. It is a slot for the
// readers of the method's annotations (internal/anno) to keep what they
// decoded, so a module deployed on many targets is parsed once; cil never
// looks inside. SetAnnotation empties it and Clone does not copy it. Safe for
// concurrent use; what is stored must be read-only from then on.
func (m *Method) Memo() any {
	if p := m.memo.Load(); p != nil {
		return *p
	}
	return nil
}

// SetMemo publishes v in the method's memo slot.
func (m *Method) SetMemo(v any) { m.memo.Store(&v) }

// Annotation returns the annotation payload for key and whether it exists.
func (m *Method) Annotation(key string) ([]byte, bool) {
	v, ok := m.Annotations[key]
	return v, ok
}

// AnnotationKeys returns the method's annotation keys in sorted order.
func (m *Method) AnnotationKeys() []string {
	keys := make([]string, 0, len(m.Annotations))
	for k := range m.Annotations {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AnnotationVersions reports the declared container version of every
// annotation on the method: 0 for grandfathered legacy streams (anything
// without the envelope magic), otherwise the highest schema version the
// value's envelope declares. It is computed from the stored bytes, so a
// loaded module reports versions without any consumer-side decoding and the
// map never goes stale across SetAnnotation.
func (m *Method) AnnotationVersions() map[string]uint32 {
	return annotationVersions(m.Annotations)
}

func annotationVersions(a map[string][]byte) map[string]uint32 {
	out := make(map[string]uint32, len(a))
	for k, v := range a {
		ver, _ := envelope.DeclaredVersion(v)
		out[k] = ver
	}
	return out
}

// Clone returns a deep copy of the method, without the verifier's proof and
// the annotation memo: a copy is there to be edited, and whatever compiles it
// verifies and negotiates it again.
func (m *Method) Clone() *Method {
	c := &Method{
		Name:     m.Name,
		Params:   append([]Type(nil), m.Params...),
		Ret:      m.Ret,
		Locals:   append([]Type(nil), m.Locals...),
		Code:     append([]Instr(nil), m.Code...),
		MaxStack: m.MaxStack,
	}
	if m.Annotations != nil {
		c.Annotations = make(map[string][]byte, len(m.Annotations))
		for k, v := range m.Annotations {
			c.Annotations[k] = append([]byte(nil), v...)
		}
	}
	return c
}

// Module is a deployable unit: a named collection of methods plus
// module-level annotations (for example hardware-requirement summaries used
// by the heterogeneous runtime).
type Module struct {
	Name        string
	Methods     []*Method
	Annotations map[string][]byte

	// Imports declares the other modules this one calls into, keyed by
	// content hash (see imports.go). A module without imports encodes in
	// the original v1 format, byte-identical to pre-linking toolchains.
	Imports []Import
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{Name: name, Annotations: make(map[string][]byte)}
}

// AddMethod appends a method to the module. It returns an error if a method
// with the same name already exists.
func (mod *Module) AddMethod(m *Method) error {
	if mod.Method(m.Name) != nil {
		return fmt.Errorf("cil: duplicate method %q in module %q", m.Name, mod.Name)
	}
	mod.Methods = append(mod.Methods, m)
	return nil
}

// Method returns the method with the given name, or nil if absent.
func (mod *Module) Method(name string) *Method {
	for _, m := range mod.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// MethodNames returns the names of all methods in declaration order.
func (mod *Module) MethodNames() []string {
	names := make([]string, len(mod.Methods))
	for i, m := range mod.Methods {
		names[i] = m.Name
	}
	return names
}

// SetAnnotation attaches (or replaces) a module-level annotation.
func (mod *Module) SetAnnotation(key string, value []byte) {
	if mod.Annotations == nil {
		mod.Annotations = make(map[string][]byte)
	}
	mod.Annotations[key] = append([]byte(nil), value...)
}

// Annotation returns the module-level annotation for key.
func (mod *Module) Annotation(key string) ([]byte, bool) {
	v, ok := mod.Annotations[key]
	return v, ok
}

// AnnotationVersions reports the declared container version of every
// module-level annotation (see Method.AnnotationVersions).
func (mod *Module) AnnotationVersions() map[string]uint32 {
	return annotationVersions(mod.Annotations)
}

// Clone returns a deep copy of the module.
func (mod *Module) Clone() *Module {
	c := NewModule(mod.Name)
	for _, m := range mod.Methods {
		c.Methods = append(c.Methods, m.Clone())
	}
	for i := range mod.Imports {
		c.Imports = append(c.Imports, mod.Imports[i].Clone())
	}
	for k, v := range mod.Annotations {
		c.Annotations[k] = append([]byte(nil), v...)
	}
	return c
}

// StripAnnotations returns a deep copy of the module with every method-level
// and module-level annotation removed. It is used by ablation experiments
// that measure the cost of re-deriving information online.
func (mod *Module) StripAnnotations() *Module {
	c := mod.Clone()
	c.Annotations = make(map[string][]byte)
	for _, m := range c.Methods {
		m.Annotations = make(map[string][]byte)
	}
	return c
}
