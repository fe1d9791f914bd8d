package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/target"
	"repro/pkg/splitvm"
	"repro/pkg/splitvm/server"
)

// What the two serving workloads share: in-process svd replicas and routers
// on loopback listeners, a minimal client, and the native-twin bookkeeping
// for modules that are run through the HTTP API.

// listener serves one handler on a loopback port until stopped.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return l, nil
}

// stop closes the listener and its connections and waits for Serve to
// return.
func (l *listener) stop() {
	_ = l.hs.Close()
	<-l.done
}

// backend is one svd replica: an engine, the server around it, and its
// listener.
type backend struct {
	*listener
	eng *splitvm.Engine
	srv *server.Server
}

// startBackend starts a replica. cacheDir and journalPath may be empty: no
// disk cache behind the engine, no journal.
func startBackend(cacheDir, journalPath string, ttl time.Duration, cacheSize int) (*backend, error) {
	opts := []splitvm.Option{splitvm.WithCacheSize(cacheSize)}
	if cacheDir != "" {
		opts = append(opts, splitvm.WithDiskCache(cacheDir))
	}
	eng := splitvm.New(opts...)
	if err := eng.DiskCacheErr(); err != nil {
		return nil, err
	}
	srv := server.New(eng, server.Config{JournalPath: journalPath, DeployTTL: ttl})
	l, err := listen(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &backend{listener: l, eng: eng, srv: srv}, nil
}

func (b *backend) close() {
	b.stop()
	b.srv.Close()
}

// stats reads the backend's /v1/stats without a network hop.
func (b *backend) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	rec := httptest.NewRecorder()
	b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// serverCounts sums the serving-layer counters of the backends and the
// engine counters of their engines and of engs (a state's drill engines).
func serverCounts(backends []*backend, engs ...*splitvm.Engine) (map[string]float64, error) {
	out := map[string]float64{}
	engs = append([]*splitvm.Engine(nil), engs...) // not the caller's array
	for _, b := range backends {
		st, err := b.stats()
		if err != nil {
			return nil, err
		}
		engs = append(engs, b.eng)
		for _, l := range st.Latency {
			out["server.requests"] += float64(l.Count)
		}
		out["server.sheds"] += float64(st.RunsShed)
		out["server.evictions"] += float64(st.DeploymentsEvicted)
		out["server.live_deployments_end"] += float64(st.Deployments)
	}
	for name, v := range engineCounts(engs...) {
		out[name] = v
	}
	return out, nil
}

// client is one connection's worth of HTTP client: its own transport, so
// two workers never share a connection pool.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 2xx JSON answer into out.
func (c *client) post(url, contentType string, body []byte, out any) error {
	resp, err := c.hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (c *client) upload(base string, enc []byte) (string, error) {
	var info server.ModuleInfo
	err := c.post(base+"/v1/modules", "application/octet-stream", enc, &info)
	return info.ID, err
}

func (c *client) deploy(base, module string, archs ...target.Arch) ([]server.DeploymentInfo, error) {
	req := server.DeployRequest{Module: module}
	for _, a := range archs {
		req.Targets = append(req.Targets, string(a))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp server.DeployResponse
	if err := c.post(base+"/v1/deploy", "application/json", body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Deployments) != len(archs) {
		return nil, fmt.Errorf("deploy of %s returned %d deployments, want %d", module, len(resp.Deployments), len(archs))
	}
	return resp.Deployments, nil
}

// served is a generated module as the serving workloads know it: compiled
// bytes, the server's id for it, and what a run of it must return and cost.
type served struct {
	prog *program
	mod  *splitvm.Module
	enc  []byte
	id   string
	n    int64
	want int64
	// sim is the simulated cost (instructions, cycles) of one run at n per
	// target, measured on an in-process twin deployment.
	sim map[target.Arch][2]int64
	// home is the backend a router fleet admitted the module on: the one
	// that must hold its images from then on.
	home int
}

// onHome reports whether a deployment landed on the module's home backend.
func (s *served) onHome(info server.DeploymentInfo) bool {
	b, _ := locate(info.ID)
	return b == s.home
}

// newServed compiles p on the developer-side engine (the timed offline
// step) and predicts its runs at n: the value from the native twin, the
// simulated cost from in-process deployments. Loops cost a fixed amount
// per iteration, so the cost at a large n is extrapolated exactly from two
// short runs and new modules stay cheap to admit mid-window.
func newServed(dev *splitvm.Engine, p *program, n int64, archs []target.Arch, rec *recorder, tr *tracer, parent, op int) (*served, error) {
	sp := tr.begin("splitvm.compile", parent, op)
	t0 := time.Now()
	mod, err := dev.Compile(p.src, splitvm.WithModuleName(p.name))
	rec.observe(kOffline, 0, time.Since(t0))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	s := &served{prog: p, mod: mod, enc: mod.Encoded(), n: n, want: p.eval(n), sim: map[target.Arch][2]int64{}}
	const n1, n2 = 16, 48
	for _, arch := range archs {
		dp, err := dev.Deploy(mod, splitvm.WithTarget(arch))
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", p.name, arch, err)
		}
		var cost [2][2]int64
		for i, short := range []int64{n1, n2} {
			dp.ResetCycles()
			v, err := dp.Run(p.entry, splitvm.IntArg(short))
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", p.name, arch, err)
			}
			if want := p.eval(short); v.I != want {
				return nil, fmt.Errorf("%s on %s: run(%d) returned %d, native twin %d", p.name, arch, short, v.I, want)
			}
			st := dp.Stats()
			cost[i] = [2]int64{st.Instructions, st.Cycles}
		}
		var at [2]int64
		for j := range at {
			delta := cost[1][j] - cost[0][j]
			if delta%(n2-n1) != 0 {
				return nil, fmt.Errorf("%s on %s: simulated cost is not linear in n (%v)", p.name, arch, cost)
			}
			at[j] = cost[0][j] + delta/(n2-n1)*(n-n1)
		}
		s.sim[arch] = at
	}
	return s, nil
}

// deployment is one live machine on a server, with the request that runs it.
type deployment struct {
	mod  *served
	arch target.Arch
	id   string // as the front door it was deployed through names it
	url  string
	body []byte
}

func newDeployment(base string, mod *served, info server.DeploymentInfo) *deployment {
	body, _ := json.Marshal(server.RunRequest{Entry: mod.prog.entry, Args: []string{strconv.FormatInt(mod.n, 10)}})
	return &deployment{mod: mod, arch: target.Arch(info.Target), id: info.ID, url: runURL(base, info.ID), body: body}
}

func runURL(base, id string) string { return base + "/v1/deployments/" + id + "/run" }

// run posts one run and checks the answer against the module's prediction.
func (d *deployment) run(c *client, item int, rec *recorder, tr *tracer, parent, op int) {
	var resp server.RunResponse
	sp := tr.begin("request.run", parent, op)
	t0 := time.Now()
	err := c.post(d.url, "application/json", d.body, &resp)
	elapsed := time.Since(t0)
	tr.end(sp)
	cost := d.mod.sim[d.arch]
	switch {
	case err != nil:
		rec.fail("run %s: %v", d.id, err)
	case resp.Value != d.mod.want:
		rec.fail("run %s (%s on %s) returned %d, native twin %d", d.id, d.mod.prog.name, d.arch, resp.Value, d.mod.want)
	case resp.Cycles != cost[1]:
		rec.fail("run %s (%s on %s) took %d cycles, in-process twin %d", d.id, d.mod.prog.name, d.arch, resp.Cycles, cost[1])
	}
	rec.ran(item, elapsed, cost[0], cost[1])
}

// admit uploads a module and deploys it on archs: the served form of the
// online step. Returns the deployments and how long the two requests took.
func admit(c *client, base string, mod *served, archs ...target.Arch) ([]server.DeploymentInfo, time.Duration, error) {
	t0 := time.Now()
	id, err := c.upload(base, mod.enc)
	if err != nil {
		return nil, 0, err
	}
	mod.id = id
	infos, err := c.deploy(base, id, archs...)
	return infos, time.Since(t0), err
}

// diskDrill is a replica restart over a cache volume: one backend deploys
// mod and so writes its image through to a disk cache (untimed: see
// README.md, "file creation"); it stops, a second backend starts over the
// same directory and takes the same upload and deploy, which must come from
// disk and is recorded as kDisk. It returns the two engines for their
// counters. The serving workloads' own backends have no disk cache, so that
// none of their timed requests creates a file.
func diskDrill(e *env, cl *client, mod *served, arch target.Arch, rec *recorder) ([]*splitvm.Engine, error) {
	dir, err := e.dir("drill-cache")
	if err != nil {
		return nil, err
	}
	var engs []*splitvm.Engine
	for _, restarted := range []bool{false, true} {
		b, err := startBackend(dir, "", 0, 0)
		if err != nil {
			return nil, err
		}
		engs = append(engs, b.eng)
		infos, d, err := admit(cl, b.url, mod, arch)
		b.close()
		switch {
		case err != nil:
			return nil, err
		case infos[0].FromDisk != restarted:
			return nil, fmt.Errorf("%s: deploy after restart=%t came from disk=%t", mod.prog.name, restarted, infos[0].FromDisk)
		case restarted:
			rec.observe(kDisk, 0, d)
		}
	}
	return engs, nil
}

// serve_run: the run path of one backend, and nothing else.

var serveRun = &workload{
	name:    "serve_run",
	why:     "closed loop, one connection, POST run of a 64-iteration loop over 8 deployments: ~6 us of simulation in a ~48 us request, so admission, JSON, locks and HTTP own the latency",
	workers: 1,
	build:   buildServeRun,
	layers:  serveRunLayers,
}

const (
	serveRunN       = 64
	serveRunModules = 4
)

type serveRunState struct {
	be *backend
	// drill holds the engines of set-up's disk drill; the replicas
	// themselves are gone.
	drill []*splitvm.Engine
	cl    *client
	dev   *splitvm.Engine
	deps  []*deployment
	next  int
}

func buildServeRun(e *env, rec *recorder) (state, error) {
	st := &serveRunState{cl: newClient(), dev: splitvm.New()}
	var err error
	if st.be, err = startBackend("", "", 0, 0); err != nil {
		return nil, err
	}
	r := newRand(e.seed)
	archs := []target.Arch{target.X86SSE}
	var mods []*served
	for mi := 0; mi < serveRunModules; mi++ {
		p := genServeProgram(r, fmt.Sprintf("run%d_s%d", mi, e.seed), mi)
		mod, err := newServed(st.dev, p, serveRunN, archs, rec, nil, 0, 0)
		if err != nil {
			st.close()
			return nil, err
		}
		mods = append(mods, mod)
		// First deployment of the module: upload + cold deploy. Second: a
		// memory hit. Both machines join the round-robin.
		cold, d, err := admit(st.cl, st.be.url, mod, archs...)
		if err == nil && cold[0].FromCache {
			err = fmt.Errorf("%s: first deploy came from a cache", p.name)
		}
		if err != nil {
			st.close()
			return nil, err
		}
		rec.observe(kOnline, 0, d)
		t0 := time.Now()
		warm, err := st.cl.deploy(st.be.url, mod.id, archs...)
		rec.observe(kWarm, 0, time.Since(t0))
		if err == nil && (!warm[0].FromCache || warm[0].FromDisk) {
			err = fmt.Errorf("%s: second deploy was not a memory hit", p.name)
		}
		if err != nil {
			st.close()
			return nil, err
		}
		st.deps = append(st.deps, newDeployment(st.be.url, mod, cold[0]), newDeployment(st.be.url, mod, warm[0]))
	}
	if st.drill, err = diskDrill(e, st.cl, mods[0], archs[0], rec); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *serveRunState) op(_ int, rec *recorder, tr *tracer) error {
	item := st.next % len(st.deps)
	st.next++
	op := tr.newOp()
	root := tr.begin("bench.request", 0, op)
	st.deps[item].run(st.cl, item, rec, tr, root, op)
	tr.end(root)
	return nil
}

func (st *serveRunState) cycle() int { return len(st.deps) }

func (st *serveRunState) counts() map[string]float64 {
	out, err := serverCounts([]*backend{st.be}, st.drill...)
	if err != nil {
		return map[string]float64{}
	}
	return out
}

func (st *serveRunState) close() {
	st.cl.close()
	st.be.close()
}

func serveRunLayers(e *env, s state, _ *tracer) (*layerReport, error) {
	st := s.(*serveRunState)
	var subs []*subject
	for i := 0; i < len(st.deps); i += 2 {
		subs = append(subs, scalarSubject(st.deps[i].mod.prog, serveRunN, []target.Arch{target.X86SSE}))
	}
	rep := newLayerReport()
	if err := probeLayers(e, rep, subs, e.scaled(15, 2)); err != nil {
		return nil, err
	}
	// The router rung needs a router: a one-backend front door, for the
	// probe only.
	rt, err := server.NewRouter(server.RouterConfig{Backends: []string{st.be.url}, HealthInterval: -1})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	front, err := listen(rt)
	if err != nil {
		return nil, err
	}
	defer front.stop()
	lad := &ladder{cl: st.cl, dev: st.dev, backends: []*backend{st.be}, router: front.url, viaRouter: false}
	return rep, lad.runs(rep, st.deps, e.scaled(2000, 20))
}

// journalPath names backend i's journal under dir.
func journalPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("b%d.journal", i))
}
