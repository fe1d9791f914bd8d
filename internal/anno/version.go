package anno

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/anno/envelope"
	"repro/internal/cil"
)

// Schema versions of the annotation payloads.
//
// V0 is the grandfathered pre-envelope encoding: the bare byte streams the
// toolchain has emitted since the beginning, with no container around them.
// Every such stream already in the wild keeps loading forever — a value that
// does not start with the envelope magic is a v0 stream by definition.
//
// V1 wraps the payloads in the self-describing container of
// internal/anno/envelope and extends the regalloc schema with the
// spill-class metadata the online allocator otherwise re-derives from the
// bytecode types.
const (
	V0 uint32 = 0
	V1 uint32 = 1
	// CurrentVersion is the newest schema the writers can emit and the
	// readers understand.
	CurrentVersion = V1
)

// Section names used inside the envelopes. The primary section of an
// annotation key carries the payload the legacy (v0) stream used to be;
// auxiliary sections (spill classes) extend it and degrade independently.
const (
	secVector     = "vec"
	secRegAlloc   = "regalloc"
	secHWReq      = "hwreq"
	secSpillClass = "spillclass"
	secProfile    = "profile"
)

// primarySection maps an annotation key to the envelope section holding its
// main payload.
var primarySection = map[string]string{
	KeyVector:   secVector,
	KeyRegAlloc: secRegAlloc,
	KeyHWReq:    secHWReq,
	KeyProfile:  secProfile,
}

// MaxSupported returns the newest schema version this reader understands for
// one of the known annotation keys (zero for keys it does not consume).
func MaxSupported(key string) uint32 {
	if _, ok := primarySection[key]; ok {
		return CurrentVersion
	}
	return 0
}

// Outcome reports how one annotation was negotiated at load/compile time.
// Negotiation never fails hard: an annotation the reader cannot understand —
// from the future, malformed, or below a configured minimum — comes back as
// a Fallback outcome and the JIT compiles that aspect online-only, exactly
// as if the annotation were absent.
type Outcome struct {
	Key string `json:"key"`
	// Version is the declared schema version of the primary section (0 for
	// grandfathered legacy streams).
	Version uint32 `json:"version"`
	// Enveloped reports whether the value uses the versioned container.
	Enveloped bool `json:"enveloped"`
	// Fallback is true when the annotation is present but unusable; the
	// compiler degraded to online-only for this aspect.
	Fallback bool `json:"fallback"`
	// Reason explains a fallback.
	Reason string `json:"reason,omitempty"`
}

// negotiate resolves one annotation value to the payload bytes of its
// primary section. For legacy values the payload is the value itself; for
// enveloped values it is the primary section's payload, and the returned
// envelope gives access to auxiliary sections. A nil payload means the
// annotation fell back (see Outcome.Reason); negotiation itself never
// returns an error.
func negotiate(key string, data []byte, minVersion uint32) ([]byte, *envelope.Envelope, Outcome) {
	env, err := envelope.Parse(data)
	return negotiateParsed(key, data, env, err, minVersion)
}

// negotiateParsed is negotiate for a caller that already holds the result
// of envelope.Parse(data), so one value is parsed (and checksummed) once.
func negotiateParsed(key string, data []byte, env *envelope.Envelope, err error, minVersion uint32) ([]byte, *envelope.Envelope, Outcome) {
	out := Outcome{Key: key}
	if errors.Is(err, envelope.ErrNotEnvelope) {
		if minVersion > V0 {
			out.Fallback = true
			out.Reason = fmt.Sprintf("legacy v0 stream below configured minimum version %d", minVersion)
			return nil, nil, out
		}
		return data, nil, out
	}
	out.Enveloped = true
	if err != nil {
		out.Fallback = true
		if errors.Is(err, envelope.ErrTooNew) {
			out.Version = uint32(env.Container)
			out.Reason = fmt.Sprintf("envelope container version %d newer than supported %d",
				env.Container, envelope.ContainerVersion)
		} else {
			out.Reason = "malformed envelope: " + err.Error()
		}
		return nil, nil, out
	}
	name := primarySection[key]
	sec := env.Section(name)
	if sec == nil {
		out.Fallback = true
		out.Reason = fmt.Sprintf("envelope carries no %q section", name)
		return nil, nil, out
	}
	out.Version = sec.Version
	if max := MaxSupported(key); sec.Version > max {
		out.Fallback = true
		out.Reason = fmt.Sprintf("section %q version %d newer than supported %d", name, sec.Version, max)
		return nil, nil, out
	}
	if sec.Version < minVersion {
		out.Fallback = true
		out.Reason = fmt.Sprintf("section %q version %d below configured minimum %d", name, sec.Version, minVersion)
		return nil, nil, out
	}
	return sec.Payload, env, out
}

// ReadVectorInfo negotiates and decodes the method's vectorization
// annotation. present reports whether the annotation exists at all; a nil
// info with present == true means the outcome fell back.
func ReadVectorInfo(m *cil.Method, minVersion uint32) (v *VectorInfo, out Outcome, present bool) {
	data, ok := m.Annotation(KeyVector)
	if !ok {
		return nil, Outcome{Key: KeyVector}, false
	}
	payload, _, out := negotiate(KeyVector, data, minVersion)
	if out.Fallback {
		return nil, out, true
	}
	// Versions V0 and V1 share the payload encoding; a future version would
	// dispatch to its own decoder here.
	v, err := DecodeVectorInfo(payload)
	if err != nil {
		out.Fallback = true
		out.Reason = err.Error()
		return nil, out, true
	}
	return v, out, true
}

// ReadRegAllocInfo negotiates and decodes the method's register-allocation
// annotation, including the v1 spill-class section when present. A
// malformed or too-new spill-class section only loses that metadata; the
// base intervals stay usable.
func ReadRegAllocInfo(m *cil.Method, minVersion uint32) (v *RegAllocInfo, out Outcome, present bool) {
	data, ok := m.Annotation(KeyRegAlloc)
	if !ok {
		return nil, Outcome{Key: KeyRegAlloc}, false
	}
	payload, env, out := negotiate(KeyRegAlloc, data, minVersion)
	if out.Fallback {
		return nil, out, true
	}
	v, err := DecodeRegAllocInfo(payload)
	if err != nil {
		out.Fallback = true
		out.Reason = err.Error()
		return nil, out, true
	}
	if env != nil {
		if sc := env.Section(secSpillClass); sc != nil && sc.Version <= CurrentVersion {
			if classes, err := decodeSpillClasses(sc.Payload, v.NumSlots); err == nil {
				v.Classes = classes
			}
		}
	}
	return v, out, true
}

// ReadHWReq negotiates and decodes the method's hardware-requirement
// annotation.
func ReadHWReq(m *cil.Method, minVersion uint32) (v *HWReq, out Outcome, present bool) {
	data, ok := m.Annotation(KeyHWReq)
	if !ok {
		return nil, Outcome{Key: KeyHWReq}, false
	}
	payload, _, out := negotiate(KeyHWReq, data, minVersion)
	if out.Fallback {
		return nil, out, true
	}
	v, err := DecodeHWReq(payload)
	if err != nil {
		out.Fallback = true
		out.Reason = err.Error()
		return nil, out, true
	}
	return v, out, true
}

// Negotiated is everything load-time negotiation derives from one method's
// annotations under one minimum version. It is shared by every compilation
// of the method: read only.
type Negotiated struct {
	minVersion uint32
	// RegAlloc is the split register-allocation plan, nil when the method
	// carries none or it fell back.
	RegAlloc *RegAllocInfo
	// Outcomes lists the annotations that were present, in the order
	// regalloc, vector, hardware requirements.
	Outcomes []Outcome
}

// NegotiateMethod runs load-time negotiation for every method-level
// annotation the deployment side knows about — each value parsed, checksummed
// and decoded in full, the vector and hardware-requirement sections only to
// validate them (vector facts travel in the bytecode itself, hardware
// requirements feed the heterogeneous runtime) — and remembers the result on
// the method, so that however many targets deploy one loaded module, and
// however often, each value is read once. The memo holds the minimum version
// last asked for; a process that alternates between two negotiates again.
func NegotiateMethod(m *cil.Method, minVersion uint32) *Negotiated {
	if n, _ := m.Memo().(*Negotiated); n != nil && n.minVersion == minVersion {
		return n
	}
	n := &Negotiated{minVersion: minVersion}
	ra, out, present := ReadRegAllocInfo(m, minVersion)
	n.RegAlloc = ra
	if present {
		n.Outcomes = append(n.Outcomes, out)
	}
	if _, out, present := ReadVectorInfo(m, minVersion); present {
		n.Outcomes = append(n.Outcomes, out)
	}
	if _, out, present := ReadHWReq(m, minVersion); present {
		n.Outcomes = append(n.Outcomes, out)
	}
	// Goroutines negotiating at once each publish an equal result.
	m.SetMemo(n)
	return n
}

// ---- versioned writers -----------------------------------------------------

func wrap(sections ...envelope.Section) []byte {
	return envelope.Encode(&envelope.Envelope{Container: envelope.ContainerVersion, Sections: sections})
}

func errVersion(version uint32) error {
	return fmt.Errorf("anno: writer cannot emit version %d (newest is %d)", version, CurrentVersion)
}

// EncodeVectorInfoV encodes at the given schema version: V0 produces the
// bare legacy stream, V1 the enveloped form.
func EncodeVectorInfoV(v *VectorInfo, version uint32) ([]byte, error) {
	switch version {
	case V0:
		return EncodeVectorInfo(v), nil
	case V1:
		return wrap(envelope.Section{Name: secVector, Version: V1, Payload: EncodeVectorInfo(v)}), nil
	}
	return nil, errVersion(version)
}

// EncodeRegAllocInfoV encodes at the given schema version. V1 adds a
// spill-class section when the info carries per-slot classes; V0 silently
// drops them (the legacy stream has no room for the metadata).
func EncodeRegAllocInfoV(v *RegAllocInfo, version uint32) ([]byte, error) {
	switch version {
	case V0:
		return EncodeRegAllocInfo(v), nil
	case V1:
		sections := []envelope.Section{{Name: secRegAlloc, Version: V1, Payload: EncodeRegAllocInfo(v)}}
		if len(v.Classes) > 0 {
			sections = append(sections, envelope.Section{Name: secSpillClass, Version: V1, Payload: encodeSpillClasses(v.Classes)})
		}
		return wrap(sections...), nil
	}
	return nil, errVersion(version)
}

// EncodeHWReqV encodes at the given schema version.
func EncodeHWReqV(v *HWReq, version uint32) ([]byte, error) {
	switch version {
	case V0:
		return EncodeHWReq(v), nil
	case V1:
		return wrap(envelope.Section{Name: secHWReq, Version: V1, Payload: EncodeHWReq(v)}), nil
	}
	return nil, errVersion(version)
}

// AttachVectorInfoV stores the vectorization annotation at the given schema
// version.
func AttachVectorInfoV(m *cil.Method, v *VectorInfo, version uint32) error {
	data, err := EncodeVectorInfoV(v, version)
	if err != nil {
		return err
	}
	m.SetAnnotation(KeyVector, data)
	return nil
}

// AttachRegAllocInfoV stores the register-allocation annotation at the given
// schema version.
func AttachRegAllocInfoV(m *cil.Method, v *RegAllocInfo, version uint32) error {
	data, err := EncodeRegAllocInfoV(v, version)
	if err != nil {
		return err
	}
	m.SetAnnotation(KeyRegAlloc, data)
	return nil
}

// AttachHWReqV stores the hardware-requirement annotation at the given
// schema version.
func AttachHWReqV(m *cil.Method, v *HWReq, version uint32) error {
	data, err := EncodeHWReqV(v, version)
	if err != nil {
		return err
	}
	m.SetAnnotation(KeyHWReq, data)
	return nil
}

// ---- spill classes (v1 regalloc metadata) ----------------------------------

// SpillClass is the register class of one variable slot, recorded offline so
// the online allocator can partition the annotation intervals per class
// without consulting the bytecode types.
type SpillClass uint8

// Spill classes. Unknown marks slots of v0 streams (no metadata) and slots
// the offline analysis could not classify.
const (
	SpillClassUnknown SpillClass = iota
	SpillClassInt
	SpillClassFloat
	SpillClassVec
)

func (c SpillClass) String() string {
	switch c {
	case SpillClassUnknown:
		return "unknown"
	case SpillClassInt:
		return "int"
	case SpillClassFloat:
		return "float"
	case SpillClassVec:
		return "vec"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// SpillClassOf classifies a slot type: floats to the FPU file, portable
// vectors to the SIMD file, everything else (integers, array references) to
// the integer file.
func SpillClassOf(t cil.Type) SpillClass {
	switch {
	case t.Kind == cil.Vec:
		return SpillClassVec
	case t.Kind.IsFloat():
		return SpillClassFloat
	default:
		return SpillClassInt
	}
}

func encodeSpillClasses(classes []SpillClass) []byte {
	w := newWriter(2 + len(classes))
	w.uvarint(uint64(len(classes)))
	for _, c := range classes {
		w.u8(uint8(c))
	}
	return w.buf
}

func decodeSpillClasses(data []byte, numSlots int) ([]SpillClass, error) {
	r := &reader{data: data}
	n := int(r.uvarint())
	if r.err == nil && (n < 0 || n != numSlots) {
		return nil, fmt.Errorf("anno: spill-class section covers %d slots, method has %d", n, numSlots)
	}
	out := make([]SpillClass, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, SpillClass(r.u8()))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- module-level negotiation and inspection -------------------------------

// MethodOutcome pairs a method name with one annotation outcome.
type MethodOutcome struct {
	Method string `json:"method"`
	Outcome
}

// NegotiateModule runs load-time negotiation for every known annotation of
// the module — its execution profile first (Method "" marks the module
// owner; the profile is consumed by tiering at deploy time, but a stream
// carrying one the reader cannot negotiate must surface as a fallback), then
// each method's (see NegotiateMethod) — and returns the outcomes plus the
// number of sections that fell back to online-only compilation. Unknown
// annotation keys are skipped: nothing consumes them, so nothing can fall
// back.
func NegotiateModule(mod *cil.Module, minVersion uint32) ([]MethodOutcome, int) {
	var outcomes []MethodOutcome
	fallbacks := 0
	record := func(method string, outs ...Outcome) {
		for _, out := range outs {
			outcomes = append(outcomes, MethodOutcome{Method: method, Outcome: out})
			if out.Fallback {
				fallbacks++
			}
		}
	}
	if _, out, present := ReadProfile(mod, minVersion); present {
		record("", out)
	}
	for _, m := range mod.Methods {
		record(m.Name, NegotiateMethod(m, minVersion).Outcomes...)
	}
	return outcomes, fallbacks
}

// SectionHeader is one row of an envelope's section table, for inspection
// and disassembly.
type SectionHeader struct {
	Name    string `json:"name"`
	Version uint32 `json:"version"`
	Bytes   int    `json:"bytes"`
}

// SectionInfo describes one annotation value as recorded at module load
// time: its declared version, whether this reader supports it, and the
// envelope's section table when there is one.
type SectionInfo struct {
	// Method is the owning method's name; empty for module-level annotations.
	Method string `json:"method,omitempty"`
	Key    string `json:"key"`
	// Version is the declared schema version (0 for legacy streams).
	Version   uint32 `json:"version"`
	Enveloped bool   `json:"enveloped"`
	// Supported reports whether the current reader can consume the value
	// (true for unknown keys, which no reader consumes).
	Supported bool            `json:"supported"`
	Reason    string          `json:"reason,omitempty"`
	Bytes     int             `json:"bytes"`
	Sections  []SectionHeader `json:"sections,omitempty"`
}

func inspectValue(method, key string, data []byte) SectionInfo {
	info := SectionInfo{Method: method, Key: key, Supported: true, Bytes: len(data)}
	env, err := envelope.Parse(data)
	switch {
	case errors.Is(err, envelope.ErrNotEnvelope):
		// Grandfathered v0 stream: Version 0, not enveloped.
	case errors.Is(err, envelope.ErrTooNew):
		info.Enveloped = true
		info.Version = uint32(env.Container)
	case err != nil:
		info.Enveloped = true
	default:
		info.Enveloped = true
		for _, s := range env.Sections {
			info.Sections = append(info.Sections, SectionHeader{Name: s.Name, Version: s.Version, Bytes: len(s.Payload)})
			if s.Version > info.Version {
				info.Version = s.Version
			}
		}
	}
	if _, known := primarySection[key]; known {
		_, _, out := negotiateParsed(key, data, env, err, 0)
		info.Supported = !out.Fallback
		info.Reason = out.Reason
		info.Version = out.Version
	}
	return info
}

// InspectModule records the declared version and support status of every
// annotation in the module, module-level annotations first, then per method
// in declaration order (keys sorted within each owner).
func InspectModule(mod *cil.Module) []SectionInfo {
	var out []SectionInfo
	for _, k := range sortedAnnoKeys(mod.Annotations) {
		out = append(out, inspectValue("", k, mod.Annotations[k]))
	}
	for _, m := range mod.Methods {
		for _, k := range m.AnnotationKeys() {
			out = append(out, inspectValue(m.Name, k, m.Annotations[k]))
		}
	}
	return out
}

func sortedAnnoKeys(a map[string][]byte) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
