package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/target"
	"repro/pkg/splitvm"
	"repro/pkg/splitvm/server"
)

// serve_mixed: the serving layer used for writes beside reads. A router
// fronts two backends that each keep a journal; two closed-loop clients run
// long loops and, on a fixed schedule, re-deploy known modules and admit new
// ones. Runs draw from a small rotating pool of the most recent deployments;
// what rotates out idles until the backends' TTL sweeper evicts it, so no
// machine lives long enough to meet sim.Machine.MaxSteps and live state
// stays bounded.
//
// The backends share no disk cache: every admission would create two files,
// and no timing that contains a file creation repeats (README.md, "file
// creation"). The disk cache is exercised by set-up's restart drill.
//
// The writes are paced by time, not by operation count: how often a fleet's
// operators deploy does not depend on how fast its devices' runs complete.
// It also keeps the state the window creates — idle machines awaiting the
// TTL, uploaded modules — the same however fast the system is, so that
// heap_end_mb does not punish a speed-up. At the commit this benchmark was
// sized on the schedule gives 88% runs, 11% warm deploys, 1% admissions.

var serveMixed = &workload{
	name:    "serve_mixed",
	why:     "router over two journaled backends, 2 connections: 88% runs at n=8192, 11% warm deploys, 1% new-module admissions; simulation dominates runs, deploys share locks, journal and code cache",
	workers: mixedWorkers,
	build:   buildMixed,
	layers:  mixedLayers,
}

const (
	mixedWorkers = 2
	mixedN       = 8192
	mixedKnown   = 16 // modules the fleet holds at the start of the window
	mixedPool    = 8  // deployments each client keeps running
	mixedTTL     = 5 * time.Second
	// Each client re-deploys a known module every 6 ms and admits a new one
	// every 100 ms; every other operation is a run.
	mixedRedeployEvery = 6 * time.Millisecond
	mixedAdmitEvery    = 100 * time.Millisecond
	// mixedNominalOp stands in for the clock when the census needs a
	// schedule that repeats exactly: one operation, one tick.
	mixedNominalOp = 740 * time.Microsecond
	// mixedCacheSize bounds each backend's code cache the way an operator
	// of a fleet that keeps admitting modules would (svd -cache-size).
	mixedCacheSize = 256
)

var mixedArchs = []target.Arch{target.X86SSE, target.MCU}

type mixedState struct {
	e        *env
	backends []*backend
	rt       *server.Router
	front    *listener
	dev      *splitvm.Engine
	workers  []*mixedWorker
	// drill holds the engines of set-up's disk drill, for their counters.
	drill []*splitvm.Engine
}

// mixedWorker is one closed-loop client: its connection, its seeded
// operation stream, the deployments it runs and the modules it re-deploys.
type mixedWorker struct {
	id     int
	cl     *client
	r      *rand.Rand
	pool   []*deployment
	known  []*served
	cursor int
	fresh  int
	// The schedule: when the worker started, how many operations it has
	// issued, and when its next paced writes are due.
	start               time.Time
	ops                 int
	redeployAt, admitAt time.Duration
}

// now is the worker's clock: time since its first operation, or — under
// the census — operations issued times a nominal operation time.
func (w *mixedWorker) now(virtual bool) time.Duration {
	if virtual {
		return time.Duration(w.ops) * mixedNominalOp
	}
	if w.start.IsZero() {
		w.start = time.Now()
	}
	return time.Since(w.start)
}

// due reports whether a paced write is due and schedules the next one a
// full interval from now: a pause in the loop is not made up with a burst.
func due(at *time.Duration, now, every time.Duration) bool {
	if now < *at {
		return false
	}
	*at = now + every
	return true
}

// keep adds a deployment to the pool, rotating the oldest out once full.
func (w *mixedWorker) keep(d *deployment) {
	if len(w.pool) < mixedPool {
		w.pool = append(w.pool, d)
		return
	}
	copy(w.pool, w.pool[1:])
	w.pool[len(w.pool)-1] = d
}

func buildMixed(e *env, rec *recorder) (state, error) {
	dir, err := e.dir("mixed")
	if err != nil {
		return nil, err
	}
	st := &mixedState{e: e, dev: splitvm.New(splitvm.WithCacheSize(mixedCacheSize))}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		b, err := startBackend("", journalPath(dir, i), mixedTTL, mixedCacheSize)
		if err != nil {
			return nil, err
		}
		st.backends = append(st.backends, b)
		urls = append(urls, b.url)
	}
	if st.rt, err = server.NewRouter(server.RouterConfig{Backends: urls}); err != nil {
		return nil, err
	}
	if st.front, err = listen(st.rt); err != nil {
		return nil, err
	}
	for i := 0; i < mixedWorkers; i++ {
		st.workers = append(st.workers, &mixedWorker{id: i, cl: newClient(), r: newRand(e.seed + int64(i) + 1)})
	}

	r := newRand(e.seed)
	cl := st.workers[0].cl
	for mi := 0; mi < e.scaled(mixedKnown, 4); mi++ {
		p := genServeProgram(r, fmt.Sprintf("known%d_s%d", mi, e.seed), mi)
		mod, err := newServed(st.dev, p, mixedN, mixedArchs, rec, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		infos, d, err := admit(cl, st.front.url, mod, mixedArchs...)
		if err != nil {
			return nil, err
		}
		rec.observe(kOnline, 0, d)
		w := st.workers[mi%len(st.workers)]
		w.known = append(w.known, mod)
		mod.home, _ = locate(infos[0].ID)
		for _, info := range infos {
			if info.FromCache {
				return nil, fmt.Errorf("%s: first deploy came from a cache", p.name)
			}
			w.keep(newDeployment(st.front.url, mod, info))
		}
		if mi == 0 {
			if st.drill, err = diskDrill(e, cl, mod, mixedArchs[0], rec); err != nil {
				return nil, err
			}
		}
	}
	ok = true
	return st, nil
}

func (st *mixedState) op(wi int, rec *recorder, tr *tracer) error {
	w := st.workers[wi]
	op := tr.newOp()
	root := tr.begin("bench.request", 0, op)
	defer tr.end(root)
	now := w.now(st.e.virtualClock)
	w.ops++
	switch {
	default:
		d := w.pool[w.cursor%len(w.pool)]
		w.cursor++
		item := 0
		if d.arch != mixedArchs[0] {
			item = 1
		}
		d.run(w.cl, item, rec, tr, root, op)

	case due(&w.redeployAt, now, mixedRedeployEvery):
		mod := w.known[w.r.Intn(len(w.known))]
		arch := mixedArchs[w.r.Intn(len(mixedArchs))]
		sp := tr.begin("request.deploy_warm", root, op)
		t0 := time.Now()
		infos, err := w.cl.deploy(st.front.url, mod.id, arch)
		rec.observe(kWarm, 0, time.Since(t0))
		tr.end(sp)
		// The router sends a module's deploys to its home replica unless
		// that replica is busier than its share (bounded load). Home must
		// answer from its cache; the replica a deploy spills to shares no
		// cache volume with it here and may compile.
		switch {
		case err != nil:
			rec.fail("warm deploy of %s: %v", mod.prog.name, err)
		case !infos[0].FromCache && mod.onHome(infos[0]):
			rec.fail("warm deploy of %s on %s compiled again on its home replica", mod.prog.name, arch)
		default:
			w.keep(newDeployment(st.front.url, mod, infos[0]))
		}

	case due(&w.admitAt, now, mixedAdmitEvery):
		w.fresh++
		p := genServeProgram(w.r, fmt.Sprintf("new%d_%d_s%d", w.id, w.fresh, st.e.seed), w.fresh)
		// The compile is the developer's side of an admission and is not
		// recorded here: timed beside a loaded fleet on the same two cores it
		// says nothing about the compiler (set-up's compiles are recorded).
		mod, err := newServed(st.dev, p, mixedN, mixedArchs, nil, tr, root, op)
		if err != nil {
			return err
		}
		sp := tr.begin("request.admit", root, op)
		infos, d, err := admit(w.cl, st.front.url, mod, mixedArchs...)
		tr.end(sp)
		if err != nil {
			rec.fail("admitting %s: %v", p.name, err)
			return nil
		}
		rec.observe(kOnline, 0, d)
		mod.home, _ = locate(infos[0].ID)
		for _, info := range infos {
			if info.FromCache {
				rec.fail("new module %s deployed from a cache", p.name)
			}
			w.keep(newDeployment(st.front.url, mod, info))
		}
		// The module replaces the oldest known one: the set a client
		// re-deploys from stays the size it started with.
		copy(w.known, w.known[1:])
		w.known[len(w.known)-1] = mod
	}
	return nil
}

func (st *mixedState) cycle() int { return 1 }

func (st *mixedState) counts() map[string]float64 {
	out, err := serverCounts(st.backends, st.drill...)
	if err != nil {
		return map[string]float64{}
	}
	out["router.failovers"] = float64(st.rt.Stats().Failovers)
	return out
}

// runItems names the run items: one per target.
func (st *mixedState) runItems() []string {
	return []string{string(mixedArchs[0]), string(mixedArchs[1])}
}

func (st *mixedState) close() {
	for _, w := range st.workers {
		w.cl.close()
	}
	if st.front != nil {
		st.front.stop()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, b := range st.backends {
		b.close()
	}
}

func mixedLayers(e *env, s state, tr *tracer) (*layerReport, error) {
	st := s.(*mixedState)
	w := st.workers[0]
	rep := newLayerReport()
	// The ladder first: the pool's machines idle through the slower probes
	// below, and the TTL sweeper takes idle machines.
	lad := &ladder{cl: w.cl, dev: st.dev, backends: st.backends, router: st.front.url, viaRouter: true}
	if err := lad.runs(rep, w.pool, e.scaled(400, 16)); err != nil {
		return nil, err
	}
	admitNs := 0.0
	if spans := tr.durations()["request.admit"]; len(spans) > 0 {
		admitNs = median(spans)
	}
	if err := lad.deploys(rep, w.known[0], mixedArchs[0], admitNs, e.scaled(200, 8)); err != nil {
		return nil, err
	}
	if err := probeJournal(e, rep, e.scaled(2000, 20)); err != nil {
		return nil, err
	}
	var subs []*subject
	for _, mod := range w.known[:min(len(w.known), 4)] {
		subs = append(subs, scalarSubject(mod.prog, mixedN, mixedArchs))
	}
	return rep, probeLayers(e, rep, subs, e.scaled(15, 2))
}
