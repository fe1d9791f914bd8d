package splitvm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jit"
	"repro/internal/nisa"
	"repro/internal/target"
	"repro/internal/wire"
)

// The persistent half of the code cache. With WithDiskCache(dir) an engine
// spills every completed JIT compilation to a content-addressed on-disk
// store (internal/diskcache) keyed by the same (module sha256, target
// descriptor, JIT options) identity as the in-memory LRU. A later engine —
// after a restart, or a replica sharing the cache volume — resolves a miss
// against the disk first and only compiles when both layers miss, so warm
// restarts deploy with FromCache == true and zero compilations.
//
// The disk layer is strictly behind the LRU: a disk hit is promoted into
// memory and shared exactly like a freshly compiled image, and an LRU
// eviction demotes to disk (entries whose write-through already landed are
// simply dropped from memory — the disk copy is the durable one). Disk
// contents are advisory by the same "degrade, don't fail" policy as
// annotations: corrupt, truncated or schema-incompatible entries fall back
// to recompilation, never surface as deployment errors — and an entry that
// passes the store's checksum but fails decoding or the sanity checks here
// is removed from the store, so the recompilation's write-through replaces
// it instead of being skipped as a duplicate.
//
// Both entry kinds carry native code in the one binary codec of
// internal/nisa (canonical, structurally validated on decode):
//
//	image   "svdc-img-v2", varint JITSteps, varint CompileNanos,
//	        program (nisa.AppendProgram; carries the target name),
//	        uvarint AnnotationFallbacks, uvarint n, n × outcome
//	outcome string Method, string Key, uvarint Version,
//	        byte flags (1 = Enveloped, 2 = Fallback), string Reason
//	method  "svdc-mth-v2", varint CompileNanos, function (nisa.AppendFunc)
//
// Nothing may follow the last field. There is no reader for older formats:
// their entries live under differently salted names and age out as misses.

// diskFormat and diskMethodFormat version the two payloads (whole image;
// one lazily compiled method). Each both opens its payload and salts the
// entry names, so a schema bump starts a fresh namespace: old entries are
// never read, let alone misread.
const (
	diskFormat       = "svdc-img-v2"
	diskMethodFormat = "svdc-mth-v2"
)

// minOutcomeBytes is the shortest encoded outcome (three empty strings, a
// version and the flags); it bounds the outcome count a payload may declare.
const minOutcomeBytes = 5

var errDiskEntry = errors.New("splitvm: malformed disk cache entry")

// DiskCacheStats reports the persistent cache layer's traffic (see
// CacheStats.Disk).
type DiskCacheStats = diskcache.Stats

// diskName derives the content address of one cache key: a hex SHA-256 over
// the module hash, the full target descriptor (every machine parameter —
// resized register files never share entries, mirroring the in-memory key)
// and the JIT options, salted with the payload format version. The
// descriptor is spelled field by field as %#v prints it, so names stay those
// already on disk; TestDiskNameCoversEveryDescField fails on a field added
// to target.Desc or target.CostModel and not here.
func diskName(key cacheKey) string {
	d, c := &key.desc, &key.desc.Cost
	b := make([]byte, 0, 640)
	b = append(b, diskFormat+"|"...)
	b = hex.AppendEncode(b, key.hash[:])
	b = strconv.AppendQuote(append(b, "|target.Desc{Arch:"...), string(d.Arch))
	b = strconv.AppendQuote(append(b, ", Name:"...), d.Name)
	b = appendFields(b, intField{", ClockMHz:", d.ClockMHz}, intField{", BytesPerInstr:", d.BytesPerInstr})
	b = strconv.AppendBool(append(b, ", HasSIMD:"...), d.HasSIMD)
	b = appendFields(b, intField{", VecBits:", d.VecBits}, intField{", IntRegs:", d.IntRegs},
		intField{", FloatRegs:", d.FloatRegs}, intField{", VecRegs:", d.VecRegs},
		intField{", Cost:target.CostModel{Move:", c.Move}, intField{", IntALU:", c.IntALU},
		intField{", IntMul:", c.IntMul}, intField{", IntDiv:", c.IntDiv},
		intField{", FloatALU:", c.FloatALU}, intField{", FloatMul:", c.FloatMul},
		intField{", FloatDiv:", c.FloatDiv}, intField{", Convert:", c.Convert}, intField{", Load:", c.Load},
		intField{", Store:", c.Store}, intField{", AddrCalcPenalty:", c.AddrCalcPenalty},
		intField{", SubWordPenalty:", c.SubWordPenalty}, intField{", Call:", c.Call},
		intField{", BranchTaken:", c.BranchTaken}, intField{", BranchNotTaken:", c.BranchNotTaken},
		intField{", VecLoad:", c.VecLoad}, intField{", VecStore:", c.VecStore},
		intField{", VecALU:", c.VecALU}, intField{", VecMul:", c.VecMul},
		intField{", VecSplat:", c.VecSplat}, intField{", VecReduce:", c.VecReduce})
	b = strconv.AppendInt(append(b, "}}|"...), int64(key.regAlloc), 10)
	b = strconv.AppendBool(append(b, '|'), key.forceScalarize)
	b = strconv.AppendUint(append(b, '|'), uint64(key.minAnnoVersion), 10)
	b = strconv.AppendBool(append(b, '|'), key.lazy)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// intField is one int field of the descriptor as diskName spells it.
type intField struct {
	prefix string
	v      int
}

func appendFields(b []byte, fs ...intField) []byte {
	for _, f := range fs {
		b = strconv.AppendInt(append(b, f.prefix...), int64(f.v), 10)
	}
	return b
}

// sameSignature reports whether compiled function f is an implementation of
// module method m. A stale or colliding entry fails here, at deploy time,
// instead of as an argument-marshalling error at run time.
func sameSignature(f *nisa.Func, m *cil.Method) bool {
	return f.Name == m.Name && f.Ret == m.Ret && slices.Equal(f.Params, m.Params)
}

// methodStore adapts the engine's disk store to the core.MethodStore
// interface for one cache key: every replica mounting the same volume and
// deploying the same (module, target, options) resolves its first calls
// against the same per-method entries, so each method JIT-compiles at most
// once fleet-wide. Same durability contract as whole images: writes are
// best-effort, unusable entries are removed and degrade to recompilation.
type methodStore struct {
	disk *diskcache.Store
	// base is the cache key's content address; method entries are addressed
	// under it so two modules sharing a method name never collide.
	base string
	// mod is the module being deployed; entries must match its signatures.
	mod *cil.Module
}

func (s *methodStore) entryName(method string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s", diskMethodFormat, s.base, method)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *methodStore) GetMethod(name string) (*core.CompiledMethod, bool) {
	entry := s.entryName(name)
	payload, ok := s.disk.Get(entry)
	if !ok {
		return nil, false
	}
	cm, err := decodeMethod(payload)
	if m := s.mod.Method(name); err != nil || m == nil || !sameSignature(cm.Func, m) {
		s.disk.Remove(entry)
		return nil, false
	}
	return cm, true
}

func (s *methodStore) PutMethod(name string, cm *core.CompiledMethod) {
	buf := append(make([]byte, 0, 256), diskMethodFormat...)
	buf = binary.AppendVarint(buf, cm.CompileNanos)
	s.disk.Put(s.entryName(name), nisa.AppendFunc(buf, cm.Func))
}

func decodeMethod(payload []byte) (*core.CompiledMethod, error) {
	r := wire.NewReader(payload)
	r.Expect(diskMethodFormat)
	cm := &core.CompiledMethod{CompileNanos: r.Varint(), Func: nisa.DecodeFunc(&r)}
	if r.Len() != 0 {
		r.Fail(errDiskEntry)
	}
	return cm, r.Err()
}

// encodeImage serializes everything an Image carries except the module (the
// caller always has the decoded, verified module — it is the thing being
// deployed), the target descriptor and the JIT options (parts of the cache
// key).
func encodeImage(img *core.Image) []byte {
	buf := append(make([]byte, 0, 1024), diskFormat...)
	buf = binary.AppendVarint(buf, img.JITSteps)
	buf = binary.AppendVarint(buf, img.CompileNanos)
	buf = nisa.AppendProgram(buf, img.Program)
	buf = binary.AppendUvarint(buf, uint64(img.AnnotationFallbacks))
	buf = binary.AppendUvarint(buf, uint64(len(img.AnnotationOutcomes)))
	for i := range img.AnnotationOutcomes {
		o := &img.AnnotationOutcomes[i]
		buf = wire.AppendString(buf, o.Method)
		buf = wire.AppendString(buf, o.Key)
		buf = binary.AppendUvarint(buf, uint64(o.Version))
		var flags byte
		if o.Enveloped {
			flags |= 1
		}
		if o.Fallback {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = wire.AppendString(buf, o.Reason)
	}
	return buf
}

// decodeImage is the inverse of encodeImage; the caller fills in the module,
// target and JIT options.
func decodeImage(payload []byte) (*core.Image, error) {
	r := wire.NewReader(payload)
	r.Expect(diskFormat)
	img := &core.Image{
		JITSteps:            r.Varint(),
		CompileNanos:        r.Varint(),
		Program:             nisa.DecodeProgram(&r),
		AnnotationFallbacks: int(r.Uint32()),
	}
	if n := r.Count(minOutcomeBytes); n > 0 {
		img.AnnotationOutcomes = make([]anno.MethodOutcome, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			o := &img.AnnotationOutcomes[i]
			o.Method, o.Key, o.Version = r.String(), r.String(), r.Uint32()
			flags := r.Byte()
			if flags > 3 {
				r.Fail(errDiskEntry)
			}
			o.Enveloped, o.Fallback = flags&1 != 0, flags&2 != 0
			o.Reason = r.String()
		}
	}
	if r.Len() != 0 {
		r.Fail(errDiskEntry)
	}
	return img, r.Err()
}

// implements reports whether prog is a compilation of mod for tgt: right
// target, and every method present under its own signature. The content
// address makes a collision cryptographically improbable, but a stale or
// foreign file under the right name is not, and would otherwise surface at
// Run time.
func implements(prog *nisa.Program, tgt *target.Desc, mod *cil.Module) bool {
	if prog.TargetName != tgt.Name {
		return false
	}
	for _, meth := range mod.Methods {
		if f := prog.Func(meth.Name); f == nil || !sameSignature(f, meth) {
			return false
		}
	}
	return true
}

// loadFromDisk resolves a cache key (name is its diskName) against the disk
// store and reconstitutes the image around the caller's decoded module (tgt
// is the stable descriptor pointer the image must reference; jopts is
// recorded on it so tiering can re-run the same pipeline). A miss returns
// false — the caller compiles; so does an entry that does not decode or is
// not a compilation of this module for this target, and that entry is
// removed so the caller's write-through can replace it.
func (e *Engine) loadFromDisk(name string, tgt *target.Desc, jopts jit.Options, m *Module) (*core.Image, bool) {
	payload, ok := e.disk.Get(name)
	if !ok {
		return nil, false
	}
	img, err := decodeImage(payload)
	if err != nil || !implements(img.Program, tgt, m.mod) {
		e.disk.Remove(name)
		return nil, false
	}
	img.Target, img.Module, img.JITOpts = tgt, m.mod, jopts
	return img, true
}

// persistImage spills one completed compilation to the disk store under
// name (best-effort: filesystem failures degrade to memory-only caching)
// and reports whether the entry is durably present afterwards.
func (e *Engine) persistImage(name string, img *core.Image) bool {
	e.disk.Put(name, encodeImage(img))
	return e.disk.Has(name)
}
