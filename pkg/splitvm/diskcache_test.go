package splitvm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/diskcache"
	"repro/internal/jit"
	"repro/internal/target"
)

const diskTestSource = `
i64 sumsq(i32 n) {
    i64 s = 0;
    for (i32 i = 1; i <= n; i++) { s = s + (i64) (i * i); }
    return s;
}
`

// cacheFiles lists the completed entry files in a cache dir.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".svdc") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// plantGarbage replaces the entry file at path with a well-framed entry
// (valid SVDC header and checksum) whose payload opens with the given format
// tag and continues as garbage: the store accepts it, only the payload
// decoder can tell.
func plantGarbage(t *testing.T, path, format string) {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	st, err := diskcache.Open(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	st.Put(strings.TrimSuffix(filepath.Base(path), ".svdc"), []byte(format+"\x02\x04\x03x86\xff\xff\xff\xff\x0f not an image"))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("garbage entry was not written: %v", err)
	}
}

// TestDiskCacheWarmRestart is the acceptance walk: compile+deploy on one
// engine, then deploy the same module on a fresh engine over the same cache
// dir — the second engine must serve from disk (FromCache true, zero
// compilations) and the deployed machine must behave bit-identically.
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()

	cold := New(WithDiskCache(dir))
	if err := cold.DiskCacheErr(); err != nil {
		t.Fatal(err)
	}
	mod, err := cold.Compile(diskTestSource)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cold.Deploy(mod)
	if err != nil {
		t.Fatal(err)
	}
	if dep.FromCache() {
		t.Fatal("cold deploy claims a cache hit")
	}
	want, err := dep.Run("sumsq", IntArg(1000))
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := dep.Cycles()
	if n := len(cacheFiles(t, dir)); n != 1 {
		t.Fatalf("cache dir holds %d entries after cold deploy, want 1", n)
	}

	// The restart: a new engine, a module re-loaded from its byte stream
	// (as svd would after an upload), the same cache volume.
	warm := New(WithDiskCache(dir))
	mod2, err := warm.Load(mod.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := warm.Deploy(mod2)
	if err != nil {
		t.Fatal(err)
	}
	if !dep2.FromCache() {
		t.Error("warm deploy FromCache = false, want true")
	}
	if cs := warm.CompileStats(); cs.Compilations != 0 {
		t.Errorf("warm engine counted %d compilations, want 0", cs.Compilations)
	}
	st := warm.CacheStats()
	if st.DiskHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("warm cache stats = %+v, want 1 disk hit / 1 hit / 0 misses", st)
	}

	// Bit-identity: same result, same simulated cycles, same native code.
	got, err := dep2.Run("sumsq", IntArg(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("warm result = %v, want %v", got, want)
	}
	if dep2.Cycles() != wantCycles {
		t.Errorf("warm cycles = %d, want %d", dep2.Cycles(), wantCycles)
	}
	if dep.DisassembleNative() != dep2.DisassembleNative() {
		t.Error("disk round trip changed the native code")
	}
	if dep.JITSteps() != dep2.JITSteps() || dep.CompileNanos() != dep2.CompileNanos() {
		t.Error("disk round trip changed the compile accounting")
	}
	if !reflect.DeepEqual(dep.CompileReport().AnnotationOutcomes, dep2.CompileReport().AnnotationOutcomes) {
		t.Error("disk round trip changed the annotation outcomes")
	}
}

// TestDiskCacheKeyedByOptions checks that deployments differing in target
// or JIT options never share disk entries, mirroring the in-memory key.
func TestDiskCacheKeyedByOptions(t *testing.T) {
	dir := t.TempDir()
	eng := New(WithDiskCache(dir))
	mod, err := eng.Compile(diskTestSource)
	if err != nil {
		t.Fatal(err)
	}
	deploys := [][]DeployOption{
		{WithTarget(target.X86SSE)},
		{WithTarget(target.MCU)},
		{WithTarget(target.X86SSE), WithRegAllocMode(RegAllocOnline)},
		{WithTarget(target.X86SSE), WithForceScalarize(true)},
	}
	for _, opts := range deploys {
		if _, err := eng.Deploy(mod, opts...); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cacheFiles(t, dir)); n != len(deploys) {
		t.Fatalf("cache dir holds %d entries, want %d (one per distinct key)", n, len(deploys))
	}

	// Every variant resolves warm on a fresh engine.
	warm := New(WithDiskCache(dir))
	for _, opts := range deploys {
		dep, err := warm.Deploy(mod, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !dep.FromCache() {
			t.Errorf("deploy %v not served from disk", opts)
		}
	}
	if cs := warm.CompileStats(); cs.Compilations != 0 {
		t.Errorf("warm engine compiled %d times, want 0", cs.Compilations)
	}
}

// TestDiskCacheCorruptionFallsBackToCompile covers the degrade-don't-fail
// contract: truncated and bit-flipped entries must recompile silently, and
// so must an entry the store itself cannot fault — intact framing around a
// payload that does not decode — which must also be replaced, not kept.
func TestDiskCacheCorruptionFallsBackToCompile(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"emptied", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"valid frame, garbage payload", func(t *testing.T, path string) {
			plantGarbage(t, path, diskFormat)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cold := New(WithDiskCache(dir))
			mod, err := cold.Compile(diskTestSource)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := cold.Deploy(mod)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dep.Run("sumsq", IntArg(100))
			if err != nil {
				t.Fatal(err)
			}

			files := cacheFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("%d cache files, want 1", len(files))
			}
			tc.mut(t, files[0])

			warm := New(WithDiskCache(dir))
			dep2, err := warm.Deploy(mod)
			if err != nil {
				t.Fatalf("deploy over a %s entry errored: %v (must recompile instead)", tc.name, err)
			}
			if dep2.FromCache() {
				t.Errorf("%s entry was served as a cache hit", tc.name)
			}
			if cs := warm.CompileStats(); cs.Compilations != 1 {
				t.Errorf("compilations = %d, want 1 (fallback recompile)", cs.Compilations)
			}
			if ds := warm.CacheStats().Disk; ds.Corrupt != 1 || ds.Hits != 0 || ds.Writes != 1 {
				t.Errorf("disk stats = %+v, want 1 corrupt entry, no hit, 1 replacement write", *ds)
			}
			got, err := dep2.Run("sumsq", IntArg(100))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("recompiled result = %v, want %v", got, want)
			}
			// The recompile re-persists a valid entry, so the next restart
			// is warm again.
			next := New(WithDiskCache(dir))
			dep3, err := next.Deploy(mod)
			if err != nil {
				t.Fatal(err)
			}
			if !dep3.FromCache() {
				t.Error("entry was not re-persisted after the fallback recompile")
			}
		})
	}
}

// TestDiskCacheMismatchedEntryIsAMiss: an entry that decodes cleanly but
// was compiled from something else — a method of the same name with another
// signature, or the same module for another target — must be a miss at
// deploy time (and be replaced), not a marshalling error at run time.
func TestDiskCacheMismatchedEntryIsAMiss(t *testing.T) {
	otherSignature := strings.Replace(diskTestSource, "sumsq(i32 n)", "sumsq(i64 n)", 1)
	cases := []struct {
		name, source string
		arch         target.Arch
	}{
		{"other signature", otherSignature, target.X86SSE},
		{"other target", diskTestSource, target.MCU},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The entry under test, and a valid entry of the other compilation.
			dir, donorDir := t.TempDir(), t.TempDir()
			cold := New(WithDiskCache(dir))
			mod, err := cold.Compile(diskTestSource)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cold.Deploy(mod, WithTarget(target.X86SSE)); err != nil {
				t.Fatal(err)
			}
			donor := New(WithDiskCache(donorDir))
			donorMod, err := donor.Compile(tc.source)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := donor.Deploy(donorMod, WithTarget(tc.arch)); err != nil {
				t.Fatal(err)
			}
			files, donorFiles := cacheFiles(t, dir), cacheFiles(t, donorDir)
			if len(files) != 1 || len(donorFiles) != 1 {
				t.Fatalf("%d and %d cache files, want 1 and 1", len(files), len(donorFiles))
			}
			data, err := os.ReadFile(donorFiles[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], data, 0o644); err != nil {
				t.Fatal(err)
			}

			warm := New(WithDiskCache(dir))
			dep, err := warm.Deploy(mod, WithTarget(target.X86SSE))
			if err != nil {
				t.Fatal(err)
			}
			if dep.FromCache() {
				t.Fatal("mismatched entry was served as a cache hit")
			}
			if ds := warm.CacheStats().Disk; ds.Corrupt != 1 || ds.Hits != 0 {
				t.Errorf("disk stats = %+v, want the entry rejected as corrupt", *ds)
			}
			if res, err := dep.Run("sumsq", IntArg(50)); err != nil || res.I != 42925 {
				t.Errorf("run = %v, %v", res, err)
			}
			next := New(WithDiskCache(dir))
			if dep, err := next.Deploy(mod, WithTarget(target.X86SSE)); err != nil || !dep.FromCache() {
				t.Errorf("entry was not replaced after the mismatch (err %v)", err)
			}
		})
	}
}

// TestDiskCacheConcurrentWarmDeploys exercises the disk-hit path under the
// race detector: many goroutines resolving the same and different keys
// against a warm volume.
func TestDiskCacheConcurrentWarmDeploys(t *testing.T) {
	dir := t.TempDir()
	cold := New(WithDiskCache(dir))
	mod, err := cold.Compile(diskTestSource)
	if err != nil {
		t.Fatal(err)
	}
	archs := []target.Arch{target.X86SSE, target.Sparc, target.MCU}
	for _, a := range archs {
		if _, err := cold.Deploy(mod, WithTarget(a)); err != nil {
			t.Fatal(err)
		}
	}

	warm := New(WithDiskCache(dir))
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dep, err := warm.Deploy(mod, WithTarget(archs[g%len(archs)]))
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if res, err := dep.Run("sumsq", IntArg(50)); err != nil || res.I != 42925 {
				t.Errorf("goroutine %d: run = %v, %v", g, res, err)
			}
		}(g)
	}
	wg.Wait()
	if cs := warm.CompileStats(); cs.Compilations != 0 {
		t.Errorf("warm engine compiled %d times, want 0", cs.Compilations)
	}
	st := warm.CacheStats()
	if st.DiskHits != int64(len(archs)) {
		t.Errorf("disk hits = %d, want %d (one per key; the rest join in memory)", st.DiskHits, len(archs))
	}
}

// TestDiskCacheEvictionDemotesToDisk pins the demotion contract: with a
// size-1 LRU, the evicted image must stay reachable through the disk.
func TestDiskCacheEvictionDemotesToDisk(t *testing.T) {
	dir := t.TempDir()
	eng := New(WithDiskCache(dir), WithCacheSize(1))
	mod, err := eng.Compile(diskTestSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Deploy(mod, WithTarget(target.X86SSE)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Deploy(mod, WithTarget(target.MCU)); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 eviction leaving 1 entry", st)
	}
	if n := len(cacheFiles(t, dir)); n != 2 {
		t.Fatalf("cache dir holds %d entries, want 2 (evicted image demoted, not dropped)", n)
	}
	// Re-deploying the evicted key is a disk hit, not a recompilation.
	dep, err := eng.Deploy(mod, WithTarget(target.X86SSE))
	if err != nil {
		t.Fatal(err)
	}
	if !dep.FromCache() {
		t.Error("evicted key did not resolve from disk")
	}
	if cs := eng.CompileStats(); cs.Compilations != 2 {
		t.Errorf("compilations = %d, want 2 (x86 once, mcu once)", cs.Compilations)
	}
}

// TestDiskCacheErrSurfaced: an unusable cache dir degrades to memory-only
// caching with the reason reported, never a broken engine.
func TestDiskCacheErrSurfaced(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(WithDiskCache(file))
	if eng.DiskCacheErr() == nil {
		t.Error("DiskCacheErr = nil for a file path")
	}
	mod, err := eng.Compile(diskTestSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Deploy(mod); err != nil {
		t.Errorf("memory-only fallback deploy failed: %v", err)
	}
}

// TestDiskNameCoversEveryDescField: every leaf field of the target
// descriptor and its cost model takes part in the disk name, so a field
// added later fails here instead of silently sharing entries; and the
// names are the ones the reflective %#v spelling produced, so entries
// written before stay readable.
func TestDiskNameCoversEveryDescField(t *testing.T) {
	reflective := func(key cacheKey) string {
		h := sha256.New()
		fmt.Fprintf(h, "%s|%x|%#v|%d|%t|%d|%t", diskFormat,
			key.hash, key.desc, key.regAlloc, key.forceScalarize, key.minAnnoVersion, key.lazy)
		return hex.EncodeToString(h.Sum(nil))
	}
	base := cacheKey{hash: sha256.Sum256([]byte("module")), regAlloc: jit.RegAllocSplit, minAnnoVersion: 1}
	for _, tgt := range target.All() {
		key := base
		key.desc = *tgt
		key.desc.Name += ` "quoted" \ name`
		if got, want := diskName(key), reflective(key); got != want {
			t.Errorf("%s: disk name %s, the %%#v spelling gives %s", tgt.Arch, got, want)
		}
	}

	base.desc = *target.MustLookup(target.X86SSE)
	seen := map[string]string{diskName(base): "the base key"}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		}
		old := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "'")
		default:
			t.Fatalf("%s: field of kind %s: teach diskName and this test about it", path, v.Kind())
		}
		name := diskName(base)
		if prev, dup := seen[name]; dup {
			t.Errorf("changing %s gives the same disk name as %s", path, prev)
		}
		seen[name] = path
		v.Set(old)
	}
	walk(reflect.ValueOf(&base.desc).Elem(), "Desc")
	if n := reflect.TypeOf(target.Desc{}).NumField() + reflect.TypeOf(target.CostModel{}).NumField() - 1; len(seen) != n+1 {
		t.Errorf("%d names for %d leaf fields", len(seen)-1, n)
	}
}

// BenchmarkDiskName times the disk-cache key of one deployment.
func BenchmarkDiskName(b *testing.B) {
	key := cacheKey{hash: sha256.Sum256([]byte("module")), desc: *target.MustLookup(target.X86SSE)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		diskName(key)
	}
}
