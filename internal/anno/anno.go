// Package anno defines the typed annotation schemas that the offline
// compiler embeds in bytecode metadata and the online (JIT) compiler
// consumes. These annotations are the concrete realization of split
// compilation in the paper: expensive offline analyses distill their results
// into compact, portable payloads so that the online step can apply
// straightforward transformations in linear time.
//
// Three schemas are defined:
//
//   - VectorInfo (KeyVector): which loops were auto-vectorized offline, with
//     element kinds and reduction patterns, certifying that the dependence
//     analysis was already performed.
//   - RegAllocInfo (KeyRegAlloc): the portable register-allocation plan of
//     the split register allocator (Diouf et al.): live intervals and spill
//     priorities for every variable slot, independent of the target's
//     register count.
//   - HWReq (KeyHWReq): hardware requirement/affinity hints used by the
//     heterogeneous runtime to map methods onto cores (Section 3's Cell-like
//     offload scenario).
//
// Annotations are advisory. A JIT that ignores them must still generate
// correct code; it merely loses compile-time or code quality.
//
// Annotation values are versioned (see version.go and
// internal/anno/envelope): v0 is the original bare encoding below,
// grandfathered forever; newer schemas travel in a self-describing envelope
// and are negotiated per section at load time. A reader that meets bytes
// from the future falls back to online-only compilation for that aspect —
// never a hard error, because the installed base must keep deploying.
package anno

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cil"
)

// Annotation keys used in cil method/module metadata.
const (
	KeyVector   = "split.vec"
	KeyRegAlloc = "split.regalloc"
	KeyHWReq    = "split.hwreq"
	// KeyProfile is the module-level runtime execution profile (see
	// internal/profile and profile.go): the one annotation produced by the
	// runtime rather than the offline compiler.
	KeyProfile = "split.profile"
)

// VecPattern classifies a vectorized loop.
type VecPattern uint8

// Vectorized loop patterns.
const (
	PatternMap       VecPattern = iota // element-wise computation, no cross-iteration dependence
	PatternReduceAdd                   // sum reduction
	PatternReduceMax                   // max reduction
	PatternReduceMin                   // min reduction
)

func (p VecPattern) String() string {
	switch p {
	case PatternMap:
		return "map"
	case PatternReduceAdd:
		return "reduce-add"
	case PatternReduceMax:
		return "reduce-max"
	case PatternReduceMin:
		return "reduce-min"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// VectorLoop describes one loop vectorized by the offline compiler.
type VectorLoop struct {
	// LoopID is the ordinal of the loop within the function (source order).
	LoopID int
	// Elem is the element kind processed by the loop.
	Elem cil.Kind
	// Lanes is the number of elements per portable vector operation.
	Lanes int
	// Pattern classifies the loop body.
	Pattern VecPattern
	// NoAliasProven records that the offline dependence analysis proved the
	// absence of loop-carried dependences, so the online compiler can use
	// the builtins without re-analysis.
	NoAliasProven bool
}

// VectorInfo is the per-method vectorization annotation payload.
type VectorInfo struct {
	Loops []VectorLoop
}

// SlotInterval is the live interval and spill priority of one variable slot
// (arguments first, then locals), expressed in bytecode instruction indices.
// The interval representation is target independent: the online allocator
// intersects it with the actual register file in a single linear pass.
type SlotInterval struct {
	// Slot is the variable index: 0..NumParams-1 are arguments,
	// NumParams..NumParams+NumLocals-1 are locals.
	Slot int
	// Start and End delimit the half-open live range [Start, End).
	Start int
	End   int
	// Weight is the estimated dynamic access count (spill cost); higher
	// weights are allocated to registers first.
	Weight uint32
}

// RegAllocInfo is the per-method split register-allocation annotation: the
// offline half has already ordered the slots by decreasing weight, so the
// online half assigns registers in one linear scan of this list.
type RegAllocInfo struct {
	// NumSlots is the total number of variable slots (args + locals).
	NumSlots int
	// Intervals is sorted by decreasing Weight (ties by Slot).
	Intervals []SlotInterval
	// Classes records the register class of every slot (indexed by slot
	// number, length NumSlots). It is the v1 schema extension: with it the
	// online allocator partitions the intervals per register class directly
	// instead of re-deriving each slot's class from the bytecode types. Nil
	// for v0 streams; always advisory.
	Classes []SpillClass
}

// HWReq is the hardware requirement/affinity annotation used by the
// heterogeneous runtime scheduler.
type HWReq struct {
	// UsesVector indicates the method contains portable vector builtins and
	// therefore benefits from a SIMD-capable core.
	UsesVector bool
	// UsesFloat indicates the method performs floating-point arithmetic and
	// benefits from a hardware FPU.
	UsesFloat bool
	// VectorKinds lists the element kinds of the vector operations used.
	VectorKinds []cil.Kind
	// EstimatedWork is a rough per-invocation operation count used to decide
	// whether offloading is worth the transfer latency.
	EstimatedWork int64
}

// ---- binary encoding -------------------------------------------------------
//
// All payloads use unsigned/zig-zag varints with a one-byte schema version so
// the annotations stay compact (the paper stresses "compact, portable
// annotations"); sizes are reported by the Figure-1 experiment.

const schemaVersion = 1

// writer appends into a buffer each encoder sizes up front for the payload
// it writes (newWriter), so encoding an annotation seldom grows it.
type writer struct{ buf []byte }

func newWriter(size int) *writer { return &writer{buf: make([]byte, 0, size)} }

func (w *writer) u8(v uint8)       { w.buf = append(w.buf, v) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) svarint(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("anno: decode at %d: %s", r.pos, msg)
	}
}
func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("truncated")
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}
func (r *reader) svarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}
func (r *reader) bool() bool { return r.u8() != 0 }
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("anno: %d trailing bytes", len(r.data)-r.pos)
	}
	return nil
}
func (r *reader) version(what string) {
	if v := r.u8(); r.err == nil && v != schemaVersion {
		r.fail(fmt.Sprintf("unsupported %s schema version %d", what, v))
	}
}

// EncodeVectorInfo serializes a VectorInfo payload.
func EncodeVectorInfo(v *VectorInfo) []byte {
	w := newWriter(2 + 6*len(v.Loops))
	w.u8(schemaVersion)
	w.uvarint(uint64(len(v.Loops)))
	for _, l := range v.Loops {
		w.uvarint(uint64(l.LoopID))
		w.u8(uint8(l.Elem))
		w.uvarint(uint64(l.Lanes))
		w.u8(uint8(l.Pattern))
		w.bool(l.NoAliasProven)
	}
	return w.buf
}

// DecodeVectorInfo parses a VectorInfo payload.
func DecodeVectorInfo(data []byte) (*VectorInfo, error) {
	r := &reader{data: data}
	r.version("vector")
	n := int(r.uvarint())
	v := &VectorInfo{}
	for i := 0; i < n && r.err == nil; i++ {
		l := VectorLoop{
			LoopID:  int(r.uvarint()),
			Elem:    cil.Kind(r.u8()),
			Lanes:   int(r.uvarint()),
			Pattern: VecPattern(r.u8()),
		}
		l.NoAliasProven = r.bool()
		v.Loops = append(v.Loops, l)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return v, nil
}

// EncodeRegAllocInfo serializes a RegAllocInfo payload.
func EncodeRegAllocInfo(v *RegAllocInfo) []byte {
	w := newWriter(3 + 8*len(v.Intervals))
	w.u8(schemaVersion)
	w.uvarint(uint64(v.NumSlots))
	w.uvarint(uint64(len(v.Intervals)))
	for _, iv := range v.Intervals {
		w.uvarint(uint64(iv.Slot))
		w.svarint(int64(iv.Start))
		w.svarint(int64(iv.End))
		w.uvarint(uint64(iv.Weight))
	}
	return w.buf
}

// DecodeRegAllocInfo parses a RegAllocInfo payload.
func DecodeRegAllocInfo(data []byte) (*RegAllocInfo, error) {
	r := &reader{data: data}
	r.version("regalloc")
	v := &RegAllocInfo{NumSlots: int(r.uvarint())}
	n := int(r.uvarint())
	for i := 0; i < n && r.err == nil; i++ {
		v.Intervals = append(v.Intervals, SlotInterval{
			Slot:   int(r.uvarint()),
			Start:  int(r.svarint()),
			End:    int(r.svarint()),
			Weight: uint32(r.uvarint()),
		})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return v, nil
}

// EncodeHWReq serializes a HWReq payload.
func EncodeHWReq(v *HWReq) []byte {
	w := newWriter(8 + len(v.VectorKinds))
	w.u8(schemaVersion)
	w.bool(v.UsesVector)
	w.bool(v.UsesFloat)
	w.uvarint(uint64(len(v.VectorKinds)))
	for _, k := range v.VectorKinds {
		w.u8(uint8(k))
	}
	w.svarint(v.EstimatedWork)
	return w.buf
}

// DecodeHWReq parses a HWReq payload.
func DecodeHWReq(data []byte) (*HWReq, error) {
	r := &reader{data: data}
	r.version("hwreq")
	v := &HWReq{UsesVector: r.bool(), UsesFloat: r.bool()}
	n := int(r.uvarint())
	for i := 0; i < n && r.err == nil; i++ {
		v.VectorKinds = append(v.VectorKinds, cil.Kind(r.u8()))
	}
	v.EstimatedWork = r.svarint()
	if err := r.done(); err != nil {
		return nil, err
	}
	return v, nil
}

// ---- convenience accessors on methods --------------------------------------

// VectorInfoOf returns the method's vectorization annotation, or nil if the
// method carries none (or it cannot be negotiated — malformed, or from the
// future — in which case the annotation is treated as absent: annotations
// are advisory). Both legacy v0 streams and enveloped values are understood.
func VectorInfoOf(m *cil.Method) *VectorInfo {
	v, _, _ := ReadVectorInfo(m, 0)
	return v
}

// RegAllocInfoOf returns the method's register-allocation annotation, or nil.
func RegAllocInfoOf(m *cil.Method) *RegAllocInfo {
	v, _, _ := ReadRegAllocInfo(m, 0)
	return v
}

// HWReqOf returns the method's hardware-requirement annotation, or nil.
func HWReqOf(m *cil.Method) *HWReq {
	v, _, _ := ReadHWReq(m, 0)
	return v
}

// AttachVectorInfo stores the vectorization annotation on the method in the
// legacy v0 encoding (see AttachVectorInfoV for versioned streams).
func AttachVectorInfo(m *cil.Method, v *VectorInfo) { m.SetAnnotation(KeyVector, EncodeVectorInfo(v)) }

// AttachRegAllocInfo stores the register-allocation annotation on the method
// in the legacy v0 encoding, which has no room for the spill-class metadata
// (see AttachRegAllocInfoV).
func AttachRegAllocInfo(m *cil.Method, v *RegAllocInfo) {
	m.SetAnnotation(KeyRegAlloc, EncodeRegAllocInfo(v))
}

// AttachHWReq stores the hardware-requirement annotation on the method in
// the legacy v0 encoding (see AttachHWReqV).
func AttachHWReq(m *cil.Method, v *HWReq) { m.SetAnnotation(KeyHWReq, EncodeHWReq(v)) }

// TotalAnnotationBytes returns the number of annotation payload bytes in the
// module (method- plus module-level), used by the Figure-1 experiment to
// report the space overhead of split compilation.
func TotalAnnotationBytes(mod *cil.Module) int {
	total := 0
	for _, v := range mod.Annotations {
		total += len(v)
	}
	for _, m := range mod.Methods {
		for _, v := range m.Annotations {
			total += len(v)
		}
	}
	return total
}
