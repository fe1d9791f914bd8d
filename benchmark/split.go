package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/target"
	"repro/pkg/splitvm"
)

// split_compile: Figure 1's offline/online split in host time. One
// operation takes one generated program from source to a checked run on
// four targets: Engine.Compile, a cold Load+Deploy per target, a warm
// re-deploy per target, for every eighth program the same deploys on a second
// engine that shares only the disk cache, and two short runs per target.

var splitCompile = &workload{
	name:    "split_compile",
	why:     "96 generated modules of 1 to 64 methods from source to checked runs on four targets: front end, optimizer, encoder, verifier and JIT do the work, the simulator almost none",
	workers: 1,
	build:   buildSplit,
	layers:  splitLayers,
}

var splitArchs = []target.Arch{target.X86SSE, target.Sparc, target.PPC, target.MCU}

const (
	// splitRunN keeps the checked run short: the workload is about compiling.
	splitRunN = 32
	// splitDiskEvery: every eighth program of the set also goes through the
	// disk cache. Their images are files set-up creates and the next set-up
	// deletes, and the fewer of those a run makes the less it disturbs the
	// next one (README.md, "file creation").
	splitDiskEvery = 8
)

type splitState struct {
	e     *env
	set   []*program
	want  []int64
	order []int
	next  int
	// sim holds the simulated cost of each (program, target) run as first
	// seen; every later run must repeat it.
	sim    [][2]int64
	totals map[string]float64
	// diskDir is the disk cache of the programs that take the disk legs;
	// onDisk says which of them have their images there already.
	diskDir string
	onDisk  map[int]bool
}

func buildSplit(e *env, rec *recorder) (state, error) {
	st := &splitState{e: e, set: genCompileSet(e.seed, e.scale), totals: map[string]float64{}, onDisk: map[int]bool{}}
	var err error
	if st.diskDir, err = e.dir("split-cache"); err != nil {
		return nil, err
	}
	for _, p := range st.set {
		st.want = append(st.want, p.eval(splitRunN))
	}
	st.sim = make([][2]int64, len(st.set)*len(splitArchs))
	st.order = rand.New(rand.NewSource(e.seed)).Perm(len(st.set))
	// Priming: every program once, untimed.
	warm := &recorder{}
	for range st.set {
		if err := st.op(0, warm, nil); err != nil {
			return nil, err
		}
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("priming pass failed: %s", warm.failMsg)
	}
	return st, nil
}

func (st *splitState) op(_ int, rec *recorder, tr *tracer) error {
	pi := st.order[st.next%len(st.order)]
	st.next++
	p := st.set[pi]
	op := tr.newOp()
	root := tr.begin("bench.program", 0, op)
	defer tr.end(root)

	// No disk behind the engine whose deploys are timed: see README.md,
	// "file creation", for why no end-to-end timing may contain one.
	eng := splitvm.New()
	engines := []*splitvm.Engine{eng}

	sp := tr.begin("splitvm.compile", root, op)
	t0 := time.Now()
	compiled, err := eng.Compile(p.src, splitvm.WithModuleName(p.name))
	rec.observe(kOffline, pi, time.Since(t0))
	tr.end(sp)
	if err != nil {
		rec.fail("%s: compile: %v", p.name, err)
		return nil
	}
	enc := compiled.Encoded()

	// deploy loads the byte stream and deploys it on every target: what
	// each device does on receipt. Timed deploys are recorded as kind k.
	deploy := func(eng *splitvm.Engine, name string, timed bool, k kind) ([]*splitvm.Deployment, bool) {
		deps := make([]*splitvm.Deployment, len(splitArchs))
		for ai, arch := range splitArchs {
			sp := tr.begin(name, root, op)
			_, dp, d, err := loadDeploy(eng, enc, arch)
			tr.end(sp)
			deps[ai] = dp
			if timed {
				rec.observe(k, pi*len(splitArchs)+ai, d)
			}
			if err != nil {
				rec.fail("%s on %s: %s: %v", p.name, arch, name, err)
				return nil, false
			}
		}
		return deps, true
	}

	deps, ok := deploy(eng, "splitvm.deploy_cold", true, kOnline)
	if !ok {
		return nil
	}
	for ai, arch := range splitArchs {
		if deps[ai].FromCache() {
			rec.fail("%s on %s: cold deploy came from a cache", p.name, arch)
		}
	}
	// The same bytes again: the online step of a device whose engine holds
	// the image in memory.
	warm, ok := deploy(eng, "splitvm.deploy_warm", true, kWarm)
	if !ok {
		return nil
	}
	for ai, arch := range splitArchs {
		if !warm[ai].FromCache() || warm[ai].FromDisk() {
			rec.fail("%s on %s: warm deploy was not a memory hit", p.name, arch)
		}
	}
	if pi%splitDiskEvery == 0 {
		// The disk legs. The first time the state meets the program (in
		// set-up's priming pass) an engine writes its images through to
		// the cache directory, untimed. Every time, an engine that shares
		// nothing but that directory deploys from it, and the checked runs
		// use the machines the disk images produced: they prove the
		// persisted code.
		if !st.onDisk[pi] {
			st.onDisk[pi] = true
			writer := splitvm.New(splitvm.WithDiskCache(st.diskDir))
			engines = append(engines, writer)
			if _, ok := deploy(writer, "splitvm.deploy_populate", false, 0); !ok {
				return nil
			}
		}
		reader := splitvm.New(splitvm.WithDiskCache(st.diskDir))
		engines = append(engines, reader)
		if deps, ok = deploy(reader, "splitvm.deploy_disk", true, kDisk); !ok {
			return nil
		}
		for ai, arch := range splitArchs {
			if !deps[ai].FromDisk() {
				rec.fail("%s on %s: fresh engine did not find the image on disk", p.name, arch)
			}
		}
	}
	for ai, arch := range splitArchs {
		dp := deps[ai]
		item := pi*len(splitArchs) + ai
		// Two runs of each deployment. The first pre-decodes the methods it
		// reaches and is as much allocation as simulation; the second is
		// timed, so that a run is the same thing here as on the other
		// workloads. Both are checked.
		for pass := 0; pass < 2; pass++ {
			dp.ResetCycles()
			sp := tr.begin("splitvm.run", root, op)
			t0 := time.Now()
			v, err := dp.Run(p.entry, splitvm.IntArg(splitRunN))
			d := time.Since(t0)
			tr.end(sp)
			stats := dp.Stats()
			switch seen := &st.sim[item]; {
			case err != nil:
				rec.fail("%s on %s: run: %v", p.name, arch, err)
			case v.I != st.want[pi]:
				rec.fail("%s on %s: run returned %d, native twin %d", p.name, arch, v.I, st.want[pi])
			case *seen == [2]int64{}:
				*seen = [2]int64{stats.Instructions, stats.Cycles}
			case *seen != [2]int64{stats.Instructions, stats.Cycles}:
				rec.fail("%s on %s: run simulated %d instructions / %d cycles, earlier %v", p.name, arch, stats.Instructions, stats.Cycles, *seen)
			}
			if pass == 1 {
				rec.ran(item, d, stats.Instructions, stats.Cycles)
			}
		}
	}
	for name, v := range engineCounts(engines...) {
		st.totals[name] += v
	}
	return nil
}

func (st *splitState) cycle() int { return len(st.order) }

// counts sums the per-operation engines' counters.
func (st *splitState) counts() map[string]float64 {
	out := map[string]float64{}
	for name, v := range st.totals {
		out[name] = v
	}
	return withHitRatio(out)
}

func (st *splitState) close() {}

// splitLayers stages a sample of the set: every large program and an even
// draw of the others, so the probe stays short while every class is in it.
func splitLayers(e *env, s state, _ *tracer) (*layerReport, error) {
	st := s.(*splitState)
	perClass := map[string]int{}
	var subs []*subject
	for _, p := range st.set {
		if perClass[p.class] < e.scaled(4, 1) {
			perClass[p.class]++
			subs = append(subs, scalarSubject(p, splitRunN, splitArchs))
		}
	}
	rep := newLayerReport()
	return rep, probeLayers(e, rep, subs, e.scaled(15, 2))
}
