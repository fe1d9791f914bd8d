package splitvm

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cil"
	"repro/internal/corpus"
	"repro/internal/kernels"
	"repro/internal/target"
)

// indexSubject is one byte stream the verified-module index tests cover,
// with the module the offline compiler produced it as (nil for corpus
// streams) and how to run a deployment of it.
type indexSubject struct {
	name     string
	encoded  []byte
	compiled *Module
	run      func(*Deployment) (any, error)
}

// indexSubjects returns every Table 1 kernel, compiled here, and every
// stream of the golden annotation corpus.
func indexSubjects(t *testing.T) []indexSubject {
	t.Helper()
	runKernel := func(name string) func(*Deployment) (any, error) {
		return func(dp *Deployment) (any, error) {
			in, err := NewInputs(name, 64, 7)
			if err != nil {
				return nil, err
			}
			return dp.RunKernel(kernels.MustGet(name), in)
		}
	}
	runScalar := func(dp *Deployment) (any, error) {
		v, err := dp.Run(corpus.SyntheticEntryPoint, IntArg(37))
		return [2]int64{v.I, dp.Stats().Cycles}, err
	}
	var out []indexSubject
	for _, name := range kernels.Table1Names {
		m, _, err := New().CompileKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, indexSubject{name: name, encoded: m.Encoded(), compiled: m, run: runKernel(name)})
	}
	dir := filepath.Join("..", "..", "internal", "anno", "testdata", "annocorpus")
	man, err := corpus.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range man.Entries {
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		s := indexSubject{name: e.File, encoded: data, run: runScalar}
		if _, err := kernels.Get(e.Kernel); err == nil {
			s.run = runKernel(e.Kernel)
		}
		out = append(out, s)
	}
	return out
}

// sameModule fails unless got is indistinguishable from want through the
// public surface, and their decoded forms are deeply equal.
func sameModule(t *testing.T, got, want *Module) {
	t.Helper()
	if got.Hash() != want.Hash() || string(got.Encoded()) != string(want.Encoded()) {
		t.Error("hash or bytes differ")
	}
	if got.Stats() != want.Stats() {
		t.Errorf("stats %+v, want %+v", got.Stats(), want.Stats())
	}
	if !reflect.DeepEqual(got.Methods(), want.Methods()) || got.Disassemble() != want.Disassemble() {
		t.Error("methods or disassembly differ")
	}
	if !reflect.DeepEqual(got.AnnotationInfo(), want.AnnotationInfo()) {
		t.Errorf("annotation info %+v, want %+v", got.AnnotationInfo(), want.AnnotationInfo())
	}
	for _, name := range want.Methods() {
		gs, gerr := got.Signature(name)
		ws, werr := want.Signature(name)
		if !reflect.DeepEqual(gs, ws) || (gerr == nil) != (werr == nil) {
			t.Errorf("signature of %s: %+v, want %+v", name, gs, ws)
		}
	}
	// Clones drop what deployments memoize in a module; the proofs are
	// compared through what the JIT reads of them.
	if !reflect.DeepEqual(got.mod.Clone(), want.mod.Clone()) {
		t.Error("decoded modules are not deeply equal")
	}
	for i, wm := range want.mod.Methods {
		gm := got.mod.Methods[i]
		gp, gerr := cil.MethodProof(got.mod, gm)
		wp, werr := cil.MethodProof(want.mod, wm)
		if gerr != nil || werr != nil || gp.NumJoins() != wp.NumJoins() {
			t.Fatalf("%s: proofs differ (%v, %v)", wm.Name, gerr, werr)
		}
		for j := 0; j < wp.NumJoins(); j++ {
			gpc, gentry := gp.Join(j)
			wpc, wentry := wp.Join(j)
			if gpc != wpc || !reflect.DeepEqual(gentry, wentry) {
				t.Errorf("%s: join %d differs", wm.Name, j)
			}
		}
		for pc := range wm.Code {
			if gp.Reachable(pc) != wp.Reachable(pc) {
				t.Errorf("%s: reachability of pc %d differs", wm.Name, pc)
			}
		}
	}
}

// TestLoadHitMatchesDecode: a Load the index answers cannot be told apart
// from a fresh decode, whether the cached image was first built from the
// compiled module or from a loaded one, and its deployments run exactly
// like those of the fresh decode on every target.
func TestLoadHitMatchesDecode(t *testing.T) {
	for _, s := range indexSubjects(t) {
		t.Run(s.name, func(t *testing.T) {
			fresh, err := loadModule(s.encoded, sha256.Sum256(s.encoded))
			if err != nil {
				t.Fatal(err)
			}
			builders := map[string]func(*Engine) (*Module, error){
				"loaded": func(e *Engine) (*Module, error) { return e.Load(s.encoded) },
			}
			if s.compiled != nil {
				builders["compiled"] = func(*Engine) (*Module, error) { return s.compiled, nil }
			}
			for how, build := range builders {
				eng := New()
				first, err := build(eng)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Deploy(first, WithTarget(target.X86SSE)); err != nil {
					t.Fatal(err)
				}
				hit, err := eng.Load(s.encoded)
				if err != nil {
					t.Fatal(err)
				}
				if st := eng.CacheStats(); st.LoadHits != 1 || hit.mod != first.mod {
					t.Fatalf("image built from the %s module: %d load hits, shared module %t; want 1, true", how, st.LoadHits, hit.mod == first.mod)
				}
				sameModule(t, hit, fresh)
				for _, tgt := range target.All() {
					dh, err := eng.Deploy(hit, WithTarget(tgt.Arch))
					if err != nil {
						t.Fatal(err)
					}
					df, err := New().Deploy(fresh, WithTarget(tgt.Arch))
					if err != nil {
						t.Fatal(err)
					}
					got, gerr := s.run(dh)
					want, werr := s.run(df)
					if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("%s, image from the %s module: ran %+v (%v), fresh decode %+v (%v)", tgt.Arch, how, got, gerr, want, werr)
					}
				}
			}
		})
	}
}

// TestLoadIndexMissesOtherStreams: a stream one byte away from a cached
// one never hits, and fails or loads exactly as a fresh decode does. Some
// of those streams decode but fail verification; none of them is indexed.
func TestLoadIndexMissesOtherStreams(t *testing.T) {
	eng := New()
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Deploy(m); err != nil {
		t.Fatal(err)
	}
	enc := m.Encoded()
	unverified := 0
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		got, gerr := eng.Load(mut)
		want, werr := loadModule(mut, sha256.Sum256(mut))
		switch {
		case gerr != nil || werr != nil:
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("byte %d: Load failed with %v, a fresh decode with %v", i, gerr, werr)
			}
			if dm, err := cil.Decode(mut); err == nil && cil.Verify(dm) != nil {
				unverified++
			}
		default:
			sameModule(t, got, want)
		}
	}
	if unverified == 0 {
		t.Error("no mutation decoded and then failed verification; the test covers less than it claims")
	}
	if st := eng.CacheStats(); st.LoadHits != 0 || st.VerifiedModules != 1 {
		t.Errorf("%d load hits, %d verified modules; want 0, 1", st.LoadHits, st.VerifiedModules)
	}
}

// TestLoadIndexBound: a hash stays in the index exactly as long as a
// cached image of it, so with the cache bounded a Load after the last such
// image is evicted decodes again, and ClearCache empties the index.
func TestLoadIndexBound(t *testing.T) {
	eng := New(WithCacheSize(2))
	encoded := func(src string) []byte {
		m, err := New().Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		return m.Encoded()
	}
	a, b := encoded(genSource(2)), encoded(genSource(3))
	loadHits := eng.CacheStats().LoadHits
	load := func(enc []byte, hit bool) *Module {
		t.Helper()
		m, err := eng.Load(enc)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.CacheStats()
		if got := st.LoadHits > loadHits; got != hit {
			t.Fatalf("Load hit the index: %t, want %t (%d verified modules)", got, hit, st.VerifiedModules)
		}
		loadHits = st.LoadHits
		return m
	}
	deploy := func(m *Module, arch target.Arch) {
		t.Helper()
		if _, err := eng.Deploy(m, WithTarget(arch)); err != nil {
			t.Fatal(err)
		}
	}

	ma := load(a, false)
	deploy(ma, target.X86SSE)
	deploy(ma, target.MCU)
	load(a, true)
	mb := load(b, false)
	deploy(mb, target.X86SSE) // evicts a on x86-sse; a on mcu stays
	load(a, true)
	deploy(mb, target.MCU) // evicts a's last image
	if n := eng.CacheStats().VerifiedModules; n != 1 {
		t.Errorf("%d verified modules with only b's images cached, want 1", n)
	}
	load(a, false)
	load(b, true)
	eng.ClearCache()
	if n := eng.CacheStats().VerifiedModules; n != 0 {
		t.Errorf("%d verified modules after ClearCache, want 0", n)
	}
	load(b, false)
}

// TestLoadIndexHoldsOnlyPinnedModules: images built from another decode of
// the same bytes do not keep the indexed module, so once the images of the
// indexed module are evicted the index holds nothing that no image pins.
func TestLoadIndexHoldsOnlyPinnedModules(t *testing.T) {
	eng := New(WithCacheSize(2))
	compiled, err := New().Compile(genSource(2))
	if err != nil {
		t.Fatal(err)
	}
	enc := compiled.Encoded()
	other, err := loadModule(enc, sha256.Sum256(enc))
	if err != nil {
		t.Fatal(err)
	}
	evictor, err := New().Compile(genSource(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		m    *Module
		arch target.Arch
	}{{compiled, target.X86SSE}, {other, target.MCU}, {evictor, target.X86SSE}} {
		if _, err := eng.Deploy(step.m, WithTarget(step.arch)); err != nil {
			t.Fatal(err)
		}
	}
	// The cache now holds other's image on mcu and evictor's on x86-sse.
	if st := eng.CacheStats(); st.Entries != 2 || st.VerifiedModules != 1 {
		t.Errorf("%d images, %d verified modules; want 2, 1 (the evictor's)", st.Entries, st.VerifiedModules)
	}
	if _, err := eng.Load(enc); err != nil {
		t.Fatal(err)
	}
	if n := eng.CacheStats().LoadHits; n != 0 {
		t.Errorf("Load answered from a module no cached image pins (%d hits)", n)
	}
}

// TestWarmLoadDeployAllocsFlat: a warm Load + Deploy allocates the same at
// every module size; what the decode allocated grew with the methods.
func TestWarmLoadDeployAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{2, 16, 64} {
		compiled, err := New().Compile(genSource(n))
		if err != nil {
			t.Fatal(err)
		}
		enc := compiled.Encoded()
		eng := New(WithTarget(target.X86SSE))
		warm := func() {
			m, err := eng.Load(enc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Deploy(m); err != nil {
				t.Fatal(err)
			}
		}
		warm()
		allocs[n] = testing.AllocsPerRun(20, warm)
	}
	if allocs[2] != allocs[16] || allocs[2] != allocs[64] {
		t.Errorf("warm Load + Deploy allocations by method count: %v; want one figure", allocs)
	}
}

// TestLoadIndexConcurrent runs Loads and Deploys of one stream beside LRU
// evictions and ClearCache, under -race in CI: every Load answers the same
// module and every deployment the same result.
func TestLoadIndexConcurrent(t *testing.T) {
	eng := New(WithCacheSize(2))
	compiled, err := New().Compile(genSource(4))
	if err != nil {
		t.Fatal(err)
	}
	enc := compiled.Encoded()
	other, err := New().Compile(genSource(5))
	if err != nil {
		t.Fatal(err)
	}
	want := compiled.Disassemble()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m, err := eng.Load(enc)
				if err != nil {
					t.Error(err)
					return
				}
				if m.Disassemble() != want {
					t.Error("Load answered another module")
					return
				}
				dp, err := eng.Deploy(m, WithTarget(onlineTargets[(g+i)%len(onlineTargets)]))
				if err != nil {
					t.Error(err)
					return
				}
				if v, err := dp.Run("fn0", IntArg(0), IntArg(0)); err != nil || v.I != 1 {
					t.Errorf("fn0 answered %d (%v), want 1", v.I, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := eng.Deploy(other, WithTarget(onlineTargets[i%len(onlineTargets)])); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 0 {
				eng.ClearCache()
			}
		}
	}()
	wg.Wait()
	if st := eng.CacheStats(); st.VerifiedModules > st.Entries {
		t.Errorf("%d verified modules for %d cached images", st.VerifiedModules, st.Entries)
	}
}
