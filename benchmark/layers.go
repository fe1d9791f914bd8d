package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jit"
	"repro/internal/minic"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/pkg/splitvm"
)

// The per-layer probe of the traced pass. It takes a workload's own
// programs through the stack one exported function at a time — the same
// sequence core.CompileOffline and Engine.Deploy run — and times each call.
// Nothing in the product is instrumented; a layer's number here is what
// that layer costs when called from outside with this workload's inputs.

// subject is one program the probe stages.
type subject struct {
	name  string
	class string
	src   string
	archs []target.Arch
	// prepare marshals the run's arguments into a freshly instantiated
	// machine and names the entry point.
	prepare func(d *core.Deployment) (entry string, args []sim.Value)
}

// layerReport is what the probes add to a traced result.
type layerReport struct {
	metrics map[string]metric
	detail  map[string]metric
	exact   map[string]float64
	// split says how a request span's time divides among the share groups,
	// as the serving ladder measured it (ladder.go).
	split map[string]map[string]float64
}

func newLayerReport() *layerReport {
	return &layerReport{metrics: map[string]metric{}, detail: map[string]metric{}, exact: map[string]float64{},
		split: map[string]map[string]float64{}}
}

// stage names, in pipeline order: the offline compiler, then the device side.
var offlineStages = []string{"minic.parse", "minic.check", "opt.fold", "opt.vectorize", "codegen.compile", "regalloc.annotate", "cil.encode"}
var onlineStages = []string{"cil.decode", "cil.verify", "jit.compile", "core.instantiate"}
var pipelineStages = append(append([]string{}, offlineStages...), onlineStages...)

// moduleStages is what pkg/splitvm does to a module on both sides, besides
// verifying it, before it hands out a *splitvm.Module: the annotation
// inventory and the content hash. They are timed so the stage sums can be
// held against the public calls; BENCHMARK.json does not list them.
var moduleStages = []string{"anno.inspect", "splitvm.hash"}

// jitOptions is the online compiler configuration pkg/splitvm deploys with
// by default.
var jitOptions = jit.Options{RegAlloc: jit.RegAllocSplit}

// samples holds, per stage, one slice of nanosecond samples per item.
type samples map[string][][]float64

func (s samples) add(stage string, item int, d time.Duration) {
	s[stage] = grown(s[stage], item)
	s[stage][item] = append(s[stage][item], float64(d.Nanoseconds()))
}

// lapper returns a function that records, as the named stage of item, the
// time since it was last called (or since lapper was).
func (s samples) lapper(item int) func(stage string) {
	t := time.Now()
	return func(stage string) {
		now := time.Now()
		s.add(stage, item, now.Sub(t))
		t = now
	}
}

// gmeanUS is the geometric mean of each item's median, in µs, over the
// given items (nil: all of them), with the number of samples behind it.
func (s samples) gmeanUS(stage string, items []int) (float64, int) {
	if items == nil {
		for i := range s[stage] {
			items = append(items, i)
		}
	}
	var per []float64
	n := 0
	for _, i := range items {
		if xs := s[stage][i]; len(xs) > 0 {
			per = append(per, median(xs))
			n += len(xs)
		}
	}
	return gmean(per) / 1e3, n
}

// stageOffline runs the offline compiler stage by stage, timing each.
func stageOffline(sub *subject, item int, s samples) (*cil.Module, []byte, []opt.VectorizeResult, error) {
	lap := s.lapper(item)
	prog, err := minic.Parse(sub.src)
	if err != nil {
		return nil, nil, nil, err
	}
	lap("minic.parse")
	chk, err := minic.Check(prog)
	if err != nil {
		return nil, nil, nil, err
	}
	lap("minic.check")
	opt.FoldConstants(chk)
	lap("opt.fold")
	vec := opt.Vectorize(chk)
	lap("opt.vectorize")
	mod, err := codegen.Compile(chk, sub.name, codegen.Options{AnnotationVersion: anno.CurrentVersion})
	if err != nil {
		return nil, nil, nil, err
	}
	lap("codegen.compile")
	if _, err := regalloc.AnnotateModuleV(mod, anno.CurrentVersion); err != nil {
		return nil, nil, nil, err
	}
	lap("regalloc.annotate")
	enc := cil.Encode(mod)
	lap("cil.encode")
	anno.InspectModule(mod)
	lap("anno.inspect")
	sha256.Sum256(enc)
	lap("splitvm.hash")
	return mod, enc, vec, nil
}

// stageOnline runs the device side for one target stage by stage.
func stageOnline(enc []byte, tgt *target.Desc, item int, s samples) (*core.Deployment, error) {
	lap := s.lapper(item)
	mod, err := cil.Decode(enc)
	if err != nil {
		return nil, err
	}
	lap("cil.decode")
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	lap("cil.verify")
	anno.InspectModule(mod)
	lap("anno.inspect.online")
	sha256.Sum256(enc)
	lap("splitvm.hash.online")
	img, err := core.ImageFromVerifiedModule(mod, tgt, jitOptions)
	if err != nil {
		return nil, err
	}
	lap("jit.compile")
	d := img.Instantiate()
	lap("core.instantiate")
	return d, nil
}

// probeLayers stages every subject reps times and adds the per-layer
// metrics every workload shares to rep. Beside each staged replica it times
// the public call the replica stands for — Engine.Compile, Load + cold
// Deploy — so the report can say how well the stages add up.
func probeLayers(e *env, rep *layerReport, subs []*subject, reps int) error {
	// The collector runs between repetitions and never inside one: a timed
	// call that a collection lands in takes up to twice as long (1.1 or
	// 1.9 ms for the same 64-method compile), and a staged replica and the
	// public call it is held against would differ by which of the two it hit.
	// Each collection is followed by an untimed replica that warms the caches
	// the collection emptied. What the probe reports is the layers' own time,
	// without the collector's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := samples{}
	var methods, vectorLoops, annoBytes, cilBytes, jitSteps, nativeBytes, instr, cycles float64
	// Items of the offline stages are subjects, of the online ones cells
	// (subject x target); both by class for the per-class sums.
	subjectsOf, cellsOf := map[string][]int{}, map[string][]int{}

	cell := 0
	for si, sub := range subs {
		subjectsOf[sub.class] = append(subjectsOf[sub.class], si)
		var enc []byte
		for r := 0; r < reps; r++ {
			runtime.GC()
			if _, _, _, err := stageOffline(sub, si, samples{}); err != nil {
				return fmt.Errorf("%s: %w", sub.name, err)
			}
			mod, e2, vec, err := stageOffline(sub, si, s)
			if err != nil {
				return fmt.Errorf("%s: %w", sub.name, err)
			}
			enc = e2
			if r == 0 {
				methods += float64(len(mod.Methods))
				for _, v := range vec {
					vectorLoops += float64(len(v.Plans))
				}
				annoBytes += float64(anno.TotalAnnotationBytes(mod))
				cilBytes += float64(len(enc))
			}
			t0 := time.Now()
			_, err = splitvm.New().Compile(sub.src, splitvm.WithModuleName(sub.name))
			s.add("engine.compile", si, time.Since(t0))
			if err != nil {
				return err
			}
		}
		dir, err := e.dir("probe-cache")
		if err != nil {
			return err
		}
		eng := splitvm.New(splitvm.WithDiskCache(dir))
		loaded, err := eng.Load(enc)
		if err != nil {
			return err
		}
		for _, arch := range sub.archs {
			cellsOf[sub.class] = append(cellsOf[sub.class], cell)
			tgt, err := target.Lookup(arch)
			if err != nil {
				return err
			}
			var d *core.Deployment
			for r := 0; r < reps; r++ {
				runtime.GC()
				if _, err := stageOnline(enc, tgt, cell, samples{}); err != nil {
					return fmt.Errorf("%s on %s: %w", sub.name, arch, err)
				}
				if d, err = stageOnline(enc, tgt, cell, s); err != nil {
					return fmt.Errorf("%s on %s: %w", sub.name, arch, err)
				}
				entry, args := sub.prepare(d)
				// The first call pre-decodes the functions; time the second.
				if _, err := d.Machine.Call(entry, args...); err != nil {
					return fmt.Errorf("%s on %s: %w", sub.name, arch, err)
				}
				before := d.Machine.Stats
				t0 := time.Now()
				_, err = d.Machine.Call(entry, args...)
				call := time.Since(t0)
				if err != nil {
					return err
				}
				s.add("sim.call", cell, call)
				if r == 0 {
					instr += float64(d.Machine.Stats.Instructions - before.Instructions)
					cycles += float64(d.Machine.Stats.Cycles - before.Cycles)
					jitSteps += float64(d.JITSteps)
					nativeBytes += float64(d.NativeCodeBytes())
				}
				t0 = time.Now()
				_, err = d.Run(entry, args...)
				s.add("core.run_overhead", cell, time.Since(t0)-call)
				if err != nil {
					return err
				}
				// The same device-side work through the public API, on an
				// engine with nothing cached and no disk behind it.
				cold := splitvm.New()
				t0 = time.Now()
				m, err := cold.Load(enc)
				if err == nil {
					_, err = cold.Deploy(m, splitvm.WithTarget(arch))
				}
				s.add("engine.online", cell, time.Since(t0))
				if err != nil {
					return err
				}
			}
			// The engine's cache in front of the same image: one miss, then
			// hits, each paired with a bare Instantiate.
			if _, err := eng.Deploy(loaded, splitvm.WithTarget(arch)); err != nil {
				return err
			}
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				_, err := eng.Deploy(loaded, splitvm.WithTarget(arch))
				t1 := time.Now()
				d.Image.Instantiate()
				s.add("splitvm.cache_probe", cell, t1.Sub(t0)-time.Since(t1))
				if err != nil {
					return err
				}
			}
			cell++
		}
		// The disk layer, driven directly with the entries the engine wrote.
		if err := probeDiskcache(e, dir, si, reps, s); err != nil {
			return err
		}
	}

	for _, stage := range pipelineStages {
		v, n := s.gmeanUS(stage, nil)
		rep.metrics[stage+"_us"] = metric{v, "us", n}
	}
	v, n := s.gmeanUS("sim.call", nil)
	rep.metrics["sim.call_us"] = metric{v, "us", n}
	// Pooled medians: the disk operations do not depend on the item, and the
	// cache probe is a difference of two timings that noise can push below
	// zero, which a geometric mean cannot take.
	for _, m := range []struct{ stage, name string }{
		{"splitvm.cache_probe", "splitvm.cache_probe_us"},
		{"diskcache.put", "diskcache.put_us_p50"},
		{"diskcache.get", "diskcache.get_us_p50"},
	} {
		var all []float64
		for _, xs := range s[m.stage] {
			all = append(all, xs...)
		}
		rep.metrics[m.name] = metric{median(all) / 1e3, "us", len(all)}
	}
	// Deployment.Run minus Machine.Call, on the cell where the call is
	// shortest and the difference therefore least buried in noise.
	cheapest := 0
	for c := range s["sim.call"] {
		if median(s["sim.call"][c]) < median(s["sim.call"][cheapest]) {
			cheapest = c
		}
	}
	rep.detail["core.run_overhead_ns"] = metric{median(s["core.run_overhead"][cheapest]), "ns", reps}

	cells, modules := float64(cell), float64(len(subs))
	rep.exact["opt.vector_loops"] = vectorLoops
	rep.exact["anno.bytes_per_method"] = annoBytes / methods
	rep.exact["cil.bytes_per_module"] = cilBytes / modules
	rep.exact["jit.steps_per_method"] = jitSteps / cells / (methods / modules)
	rep.exact["jit.native_bytes_per_method"] = nativeBytes / cells / (methods / modules)
	rep.exact["sim.instr_per_run"] = instr / cells
	rep.exact["sim.cycles_per_run"] = cycles / cells

	// How well the staged replicas add up to the calls they stand for, per
	// program class. Engine.Compile also verifies the module it returns.
	for class := range subjectsOf {
		suffix := ""
		if len(subjectsOf) > 1 {
			suffix = "." + class
		}
		var off, on float64
		for _, stage := range append(append([]string{}, offlineStages...), moduleStages...) {
			v, _ := s.gmeanUS(stage, subjectsOf[class])
			rep.detail[stage+"_us"+suffix] = metric{v, "us", 0}
			off += v
		}
		for _, stage := range onlineStages {
			v, _ := s.gmeanUS(stage, cellsOf[class])
			rep.detail[stage+"_us"+suffix] = metric{v, "us", 0}
			on += v
		}
		for _, stage := range moduleStages {
			v, _ := s.gmeanUS(stage+".online", cellsOf[class])
			on += v
		}
		verify, _ := s.gmeanUS("cil.verify", cellsOf[class])
		compile, n := s.gmeanUS("engine.compile", subjectsOf[class])
		online, m := s.gmeanUS("engine.online", cellsOf[class])
		rep.detail["offline_stage_sum_us"+suffix] = metric{off + verify, "us", 0}
		rep.detail["offline_engine_us"+suffix] = metric{compile, "us", n}
		rep.detail["online_stage_sum_us"+suffix] = metric{on, "us", 0}
		rep.detail["online_engine_us"+suffix] = metric{online, "us", m}
	}
	return nil
}

// probeDiskcache replays the entries an engine wrote into dir through a
// scratch store: a Put and a Get per entry and repetition.
func probeDiskcache(e *env, dir string, item, reps int, s samples) error {
	entries, err := filepath.Glob(filepath.Join(dir, "*.svdc"))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("engine wrote no cache entry into %s", dir)
	}
	scratch, err := e.dir("probe-store")
	if err != nil {
		return err
	}
	store, err := diskcache.Open(scratch)
	if err != nil {
		return err
	}
	for i, path := range entries {
		payload, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for r := 0; r < reps; r++ {
			key := fmt.Sprintf("probe-%d-%d", i, r)
			t0 := time.Now()
			store.Put(key, payload)
			s.add("diskcache.put", item, time.Since(t0))
			t0 = time.Now()
			_, ok := store.Get(key)
			s.add("diskcache.get", item, time.Since(t0))
			if !ok {
				return fmt.Errorf("diskcache lost entry %s", key)
			}
		}
	}
	return nil
}

// scalarSubject stages a generated program whose entry takes n.
func scalarSubject(p *program, n int64, archs []target.Arch) *subject {
	return &subject{name: p.name, class: p.class, src: p.src, archs: archs,
		prepare: func(*core.Deployment) (string, []sim.Value) { return p.entry, []sim.Value{sim.IntArg(n)} }}
}

// layerMetricNames lists the per-layer metrics every traced run prints, in
// the order of BENCHMARK.json.
func layerMetricNames() []string {
	var names []string
	for _, stage := range pipelineStages {
		names = append(names, stage+"_us")
	}
	names = append(names, "sim.call_us", "splitvm.cache_probe_us", "diskcache.put_us_p50", "diskcache.get_us_p50")
	for _, g := range shareGroups {
		names = append(names, "share."+g.group+"_pct")
	}
	names = append(names, "bench.generator_cpu_share", "bench.trace_overhead_pct")
	names = append(names, exactCountNames...)
	names = append(names, looseCountNames...)
	return names
}

// exactCountNames must repeat exactly for a given seed and scale;
// looseCountNames depend on timing (the TTL sweeper) and are only reported.
var exactCountNames = []string{
	"opt.vector_loops", "anno.bytes_per_method", "cil.bytes_per_module",
	"jit.steps_per_method", "jit.native_bytes_per_method",
	"sim.instr_per_run", "sim.cycles_per_run",
	"sim.instr_total", "sim.cycles_total",
	"splitvm.cache_hits", "splitvm.cache_misses", "splitvm.compilations", "diskcache.hit_ratio",
	"server.requests", "server.sheds", "router.failovers",
}
var looseCountNames = []string{"server.evictions", "server.live_deployments_end"}

func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "B"
	default:
		return "count"
	}
}
