package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/vm"
	"repro/pkg/splitvm"
)

// table1_exec: the paper's Table 1 matrix, executed. One operation is a
// session on one (kernel, target) cell — what a device does with a kernel
// it already holds: take a fresh machine from the cached image, load the
// arrays once, call the kernel many times, read the arrays back.

var table1Exec = &workload{
	name:    "table1_exec",
	why:     "six Table 1 kernels x three targets, 64 calls a session at n=4096: the simulator does >95% of the work, the JIT and server none",
	workers: 1,
	build:   buildTable1,
	layers:  table1Layers,
}

const (
	table1N     = 4096
	table1Calls = 64
	warmPerLap  = 4 // warm deploys timed per cell and lap
)

// t1cell is one (kernel, target) cell with everything a session checks
// against.
type t1cell struct {
	kernel kernels.Kernel
	tgt    *target.Desc
	enc    []byte
	mod    *splitvm.Module
	img    *core.Image
	in     *kernels.Inputs
	// once is the expected state after one call (the public RunKernel
	// path), final after a whole session of calls on the same arrays.
	once, final *kernels.Inputs
	want        float64 // reduction result
	// instr and cycles are the simulated cost of one call, fixed by the
	// first session and required of every later one.
	instr, cycles int64
}

type t1state struct {
	dir   string            // the disk cache set-up populated
	eng   *splitvm.Engine   // the sessions deploy from its memory cache
	disk  []*splitvm.Engine // the writer and the reader of set-up's disk cache
	cells []*t1cell
	calls int
	order []int
	next  int
}

// reference applies the Go reference implementation n times to a clone.
func reference(name string, in *kernels.Inputs, n int) (*kernels.Inputs, float64, error) {
	out := in.Clone()
	var res float64
	for i := 0; i < n; i++ {
		r, err := kernels.Reference(name, out)
		if err != nil {
			return nil, 0, err
		}
		res = r
	}
	return out, res, nil
}

// loadDeploy is the online step as a device sees it, timed: bytes in,
// runnable machine out.
func loadDeploy(eng *splitvm.Engine, enc []byte, arch target.Arch) (*splitvm.Module, *splitvm.Deployment, time.Duration, error) {
	t0 := time.Now()
	m, err := eng.Load(enc)
	if err != nil {
		return nil, nil, 0, err
	}
	dp, err := eng.Deploy(m, splitvm.WithTarget(arch))
	return m, dp, time.Since(t0), err
}

// compileCells takes the six kernels from source to a deployment on every
// Table 1 target the way devices meeting them for the first time would:
// Engine.Compile, then per target Load + Deploy on eng — once cold, a few
// times more with the image now cached — and on an engine that has nothing
// but the images in the disk cache directory dir. With populate, a further
// engine first writes those images through to dir (untimed: see README.md,
// "file creation"); set-up does that once and the laps only read. It
// records each timed step and returns eng and the disk-backed engines.
func compileCells(dir string, populate bool, rec *recorder) (eng *splitvm.Engine, disk []*splitvm.Engine, cells []*t1cell, err error) {
	eng = splitvm.New()
	reader := splitvm.New(splitvm.WithDiskCache(dir))
	disk = []*splitvm.Engine{reader}
	var writer *splitvm.Engine
	if populate {
		writer = splitvm.New(splitvm.WithDiskCache(dir))
		disk = append(disk, writer)
	}
	for ki, name := range kernels.Table1Names {
		k := kernels.MustGet(name)
		t0 := time.Now()
		compiled, err := eng.Compile(k.Source, splitvm.WithModuleName(name))
		rec.observe(kOffline, ki, time.Since(t0))
		if err != nil {
			return nil, nil, nil, err
		}
		enc := compiled.Encoded()
		for _, tgt := range target.Table1() {
			c := &t1cell{kernel: k, tgt: tgt, enc: enc}
			item := len(cells)
			mod, dp, d, err := loadDeploy(eng, enc, tgt.Arch)
			if err != nil {
				return nil, nil, nil, err
			}
			rec.observe(kOnline, item, d)
			if dp.FromCache() {
				return nil, nil, nil, fmt.Errorf("%s on %s: first deploy came from a cache", name, tgt.Arch)
			}
			c.mod = mod
			// The same bytes again, on the engine that now holds the image.
			// Timed here, back to back, and not where a session makes its
			// deploy: after 64 calls over four 16 KB arrays a cache hit reads
			// anything from 3.3 to 7 us depending on where the process's
			// heap happened to land.
			for i := 0; i < warmPerLap; i++ {
				if _, dp, d, err = loadDeploy(eng, enc, tgt.Arch); err != nil {
					return nil, nil, nil, err
				}
				rec.observe(kWarm, item, d)
				if !dp.FromCache() || dp.FromDisk() {
					return nil, nil, nil, fmt.Errorf("%s on %s: warm deploy was not a memory hit", name, tgt.Arch)
				}
			}
			if populate {
				if _, _, _, err = loadDeploy(writer, enc, tgt.Arch); err != nil {
					return nil, nil, nil, err
				}
			}
			if _, dp, d, err = loadDeploy(reader, enc, tgt.Arch); err != nil {
				return nil, nil, nil, err
			}
			rec.observe(kDisk, item, d)
			if !dp.FromDisk() {
				return nil, nil, nil, fmt.Errorf("%s on %s: fresh engine did not find the image on disk", name, tgt.Arch)
			}
			cells = append(cells, c)
		}
	}
	return eng, disk, cells, nil
}

// lap repeats compileCells for its samples alone. The harness runs laps
// after the window: a set-up that also computes 64-fold references and
// primes 18 sessions fits nine times in its two seconds, too few to steady
// the compile and cold-deploy timings.
func (st *t1state) lap(rec *recorder) error {
	_, _, _, err := compileCells(st.dir, false, rec)
	return err
}

func buildTable1(e *env, rec *recorder) (state, error) {
	st := &t1state{calls: e.scaled(table1Calls, 2)}
	var err error
	if st.dir, err = e.dir("table1-cache"); err != nil {
		return nil, err
	}
	if st.eng, st.disk, st.cells, err = compileCells(st.dir, true, rec); err != nil {
		return nil, err
	}
	n := e.scaled(table1N, 64)
	var in, once, final *kernels.Inputs
	var want float64
	for i, c := range st.cells {
		if name := c.kernel.Name; i == 0 || name != st.cells[i-1].kernel.Name {
			if in, err = kernels.NewInputs(name, n, e.seed); err != nil {
				return nil, err
			}
			if once, want, err = reference(name, in, 1); err != nil {
				return nil, err
			}
			if final, _, err = reference(name, in, st.calls); err != nil {
				return nil, err
			}
		}
		c.in, c.once, c.final, c.want = in, once, final, want
		if c.img, err = core.BuildImage(c.enc, c.tgt, jitOptions); err != nil {
			return nil, err
		}
	}
	st.order = rand.New(rand.NewSource(e.seed)).Perm(len(st.cells))
	// One untimed session per cell fixes its per-call instruction and cycle
	// counts and warms the pre-decoded core.
	warm := &recorder{}
	for range st.cells {
		if err := st.op(0, warm, nil); err != nil {
			return nil, err
		}
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up session failed: %s", warm.failMsg)
	}
	return st, nil
}

// marshal copies the kernel's arrays into the machine's heap and builds the
// argument list, returning the arrays' simulated addresses.
func marshal(m *sim.Machine, in *kernels.Inputs) ([]sim.Value, []sim.Addr) {
	args := make([]sim.Value, len(in.Args))
	var addrs []sim.Addr
	for i, a := range in.Args {
		switch {
		case a.Kind == cil.Ref:
			addr := m.CopyInArray(in.Arrays[len(addrs)])
			addrs = append(addrs, addr)
			args[i] = sim.IntArg(int64(addr))
		case a.Kind.IsFloat():
			args[i] = sim.FloatArg(a.Float())
		default:
			args[i] = sim.IntArg(a.Int())
		}
	}
	return args, addrs
}

func sameArrays(got []*vm.Array, want *kernels.Inputs) bool {
	for i, a := range got {
		if !bytes.Equal(a.Data, want.Arrays[i].Data) {
			return false
		}
	}
	return true
}

// resultOK compares a reduction's scalar result with the reference's.
func (c *t1cell) resultOK(v sim.Value) bool {
	return !c.kernel.Reduction || float64(v.I) == c.want
}

func (st *t1state) op(_ int, rec *recorder, tr *tracer) error {
	ci := st.order[st.next%len(st.order)]
	st.next++
	c := st.cells[ci]
	id := fmt.Sprintf("%s on %s", c.kernel.Name, c.tgt.Arch)
	op := tr.newOp()
	root := tr.begin("bench.session", 0, op)
	defer tr.end(root)

	// splitvm.Deployment keeps its machine to itself, so the session deploys
	// through the engine (the timed cache hit, then one checked RunKernel on
	// the public path) and takes a second machine from the same image for
	// the bare Machine.Call loop.
	sp := tr.begin("splitvm.deploy_warm", root, op)
	dp, err := st.eng.Deploy(c.mod, splitvm.WithTarget(c.tgt.Arch))
	tr.end(sp)
	if err != nil {
		return err
	}
	if !dp.FromCache() {
		rec.fail("%s: session deploy missed the engine cache", id)
	}
	sp = tr.begin("splitvm.run_kernel", root, op)
	kr, err := dp.RunKernel(c.kernel, c.in)
	tr.end(sp)
	switch {
	case err != nil:
		rec.fail("%s: RunKernel: %v", id, err)
	case !c.resultOK(kr.Result) || !sameArrays(kr.Outputs, c.once):
		rec.fail("%s: RunKernel output differs from kernels.Reference", id)
	case c.cycles != 0 && kr.Cycles != c.cycles:
		rec.fail("%s: RunKernel took %d cycles, earlier sessions %d", id, kr.Cycles, c.cycles)
	}

	sp = tr.begin("core.instantiate", root, op)
	m := c.img.Instantiate().Machine
	tr.end(sp)
	sp = tr.begin("sim.copyin", root, op)
	args, addrs := marshal(m, c.in)
	tr.end(sp)
	for i := 0; i < st.calls; i++ {
		sp = tr.begin("sim.call", root, op)
		t0 := time.Now()
		v, err := m.Call(c.kernel.Entry, args...)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			rec.fail("%s: call %d: %v", id, i, err)
			return nil
		}
		if !c.resultOK(v) {
			rec.fail("%s: call %d returned %d, reference %v", id, i, v.I, c.want)
		}
		rec.ran(ci, d, c.instr, c.cycles)
	}
	sp = tr.begin("sim.copyout", root, op)
	outs := make([]*vm.Array, len(addrs))
	for i, addr := range addrs {
		outs[i] = vm.NewArray(c.in.Arrays[i].Elem, c.in.Arrays[i].Len())
		if err := m.CopyOutArray(addr, outs[i]); err != nil {
			rec.fail("%s: copy out: %v", id, err)
		}
	}
	tr.end(sp)
	if !sameArrays(outs, c.final) {
		rec.fail("%s: arrays after %d calls differ from kernels.Reference", id, st.calls)
	}

	// Simulated work must be identical call for call, session for session.
	instr, cycles := m.Stats.Instructions/int64(st.calls), m.Stats.Cycles/int64(st.calls)
	if c.instr == 0 {
		c.instr, c.cycles = instr, cycles
	}
	if m.Stats.Instructions != c.instr*int64(st.calls) || m.Stats.Cycles != c.cycles*int64(st.calls) {
		rec.fail("%s: session simulated %d instructions / %d cycles, expected %d / %d", id,
			m.Stats.Instructions, m.Stats.Cycles, c.instr*int64(st.calls), c.cycles*int64(st.calls))
	}
	return nil
}

func (st *t1state) cycle() int { return len(st.order) }

func (st *t1state) counts() map[string]float64 {
	return engineCounts(append([]*splitvm.Engine{st.eng}, st.disk...)...)
}

func (st *t1state) close() {}

// runItems names the cells, in run-item order.
func (st *t1state) runItems() []string {
	names := make([]string, len(st.cells))
	for i, c := range st.cells {
		names[i] = c.kernel.Name + "." + string(c.tgt.Arch)
	}
	return names
}

// engineCounts sums the counters of any number of engines.
func engineCounts(engs ...*splitvm.Engine) map[string]float64 {
	out := map[string]float64{}
	for _, eng := range engs {
		cs := eng.CacheStats()
		out["splitvm.cache_hits"] += float64(cs.Hits)
		out["splitvm.cache_misses"] += float64(cs.Misses)
		out["splitvm.compilations"] += float64(eng.CompileStats().Compilations)
		if cs.Disk != nil {
			out[diskHits] += float64(cs.Disk.Hits)
			out[diskMisses] += float64(cs.Disk.Misses)
		}
	}
	return withHitRatio(out)
}

// diskHits and diskMisses carry the disk caches' raw counts through sums of
// counts; withHitRatio derives the reported ratio from them.
const diskHits, diskMisses = "diskcache.hits", "diskcache.misses"

func withHitRatio(counts map[string]float64) map[string]float64 {
	if n := counts[diskHits] + counts[diskMisses]; n > 0 {
		counts["diskcache.hit_ratio"] = counts[diskHits] / n
	}
	return counts
}

func table1Layers(e *env, s state, _ *tracer) (*layerReport, error) {
	st := s.(*t1state)
	var subs []*subject
	var archs []target.Arch
	for _, tgt := range target.Table1() {
		archs = append(archs, tgt.Arch)
	}
	for i := 0; i < len(st.cells); i += len(archs) {
		c := st.cells[i]
		subs = append(subs, &subject{name: c.kernel.Name, class: "kernel", src: c.kernel.Source, archs: archs,
			prepare: func(d *core.Deployment) (string, []sim.Value) {
				args, _ := marshal(d.Machine, c.in)
				return c.kernel.Entry, args
			}})
	}
	rep := newLayerReport()
	return rep, probeLayers(e, rep, subs, e.scaled(15, 2))
}
