package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Router shards the /v1/* API across a fleet of backend svd servers: one
// stateless front door, N replicas each holding their own engine (ideally
// over a shared disk-cache volume, so a module JIT-compiled by any replica
// is warm for all of them).
//
// Placement is consistent hashing on the module hash with bounded load (see
// hashRing): deployments of one module concentrate on one replica — maximum
// code-cache reuse — until that replica is saturated or down, then overflow
// clockwise. Module uploads are replicated to every healthy backend (they
// are idempotent by content and small next to compiled images), so any
// replica the ring picks can deploy any known module.
//
// Deployment IDs are namespaced by backend — "b2.d-000017" is backend 2's
// local "d-000017" — which is what lets the router stay stateless for
// routing: every deployment-addressed request carries its own routing key.
// HTTP-level errors (4xx/5xx) are the backend's answer and proxy through
// unchanged.
//
// Transport failures feed per-backend circuit breakers (see breaker):
// consecutive failures open the breaker and take the replica out of the
// ring, a cooldown later it is probed half-open, and consecutive successes
// readmit it. For runs the router additionally fails over: it remembers how
// every deployment it created can be re-created (module, target, options),
// and when a backend dies mid-run it re-deploys the machine on the next
// healthy replica and retries there, within the request deadline. A
// recipe lives about as long as its deployment: after each successful
// health probe the router reads the backend's deployment list and forgets
// the recipes (and failover aliases) of deployments the backend no longer
// has. An evicted deployment is re-created by a failover only if its
// backend dies before the next successful probe.
type Router struct {
	cfg    RouterConfig
	ring   *hashRing
	names  []string
	client *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
	mux    *http.ServeMux

	breakers []*breaker

	mu                sync.Mutex
	meta              map[string]deployMeta // namespaced id → re-create recipe
	alias             map[string]string     // failed-over id → replacement id
	seq               uint64                // last deployMeta.seq handed out
	inflight          []int64
	routed            []int64
	retries           int64
	fanouts           int64
	failovers         int64
	failoverRedeploys int64
	failoverFailed    int64
}

// deployMeta is the recipe for re-creating one deployment elsewhere: the
// original deploy request narrowed to this machine's target, plus where it
// currently lives and when it was recorded there.
type deployMeta struct {
	backend int
	module  string
	target  string
	req     DeployRequest
	// seq orders the recipe among the router's records (Router.seq, under
	// mu): reconcile drops only recipes recorded before the listing it read
	// was requested.
	seq uint64
}

// RouterConfig parameterizes a Router. Backends is required; everything
// else defaults.
type RouterConfig struct {
	// Backends are the base URLs of the svd replicas (http://host:port).
	// Order matters: it defines the b0, b1, … namespace baked into
	// deployment IDs, so keep it stable across router restarts.
	Backends []string
	// LoadFactor is the bounded-load headroom: a backend is skipped when its
	// in-flight requests exceed LoadFactor × the fair share (default 1.25).
	LoadFactor float64
	// HealthInterval is how often backends are probed (default 2s; negative
	// disables active probing — backends are then only marked down by
	// transport failures).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// MaxModuleBytes caps proxied module uploads (default 4 MiB, matching
	// Config.MaxModuleBytes).
	MaxModuleBytes int64
	// BreakerFailures is how many consecutive transport failures (probes or
	// real traffic) open a backend's circuit breaker (default 3).
	BreakerFailures int
	// BreakerSuccesses is how many consecutive half-open successes close an
	// open breaker again (default 2).
	BreakerSuccesses int
	// BreakerCooldown is how long an open breaker blocks a backend before
	// the first half-open probe (default 5s).
	BreakerCooldown time.Duration
	// RunDeadline bounds one run request end to end, including failover
	// re-deploys and retries (default 60s; negative disables).
	RunDeadline time.Duration
	// RunBackoff is the initial failover backoff, doubled (with ±50% jitter)
	// each time the router finds no usable replica (default 25ms).
	RunBackoff time.Duration
}

func (c *RouterConfig) defaults() {
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.MaxModuleBytes <= 0 {
		c.MaxModuleBytes = 4 << 20
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerSuccesses <= 0 {
		c.BreakerSuccesses = 2
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.RunDeadline == 0 {
		c.RunDeadline = 60 * time.Second
	}
	if c.RunBackoff <= 0 {
		c.RunBackoff = 25 * time.Millisecond
	}
}

// NewRouter builds the front door over the configured backends. Backends
// start healthy and are probed immediately and then periodically; Close
// stops the prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg.defaults()
	n := len(cfg.Backends)
	if n == 0 {
		return nil, errors.New("router needs at least one backend")
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		cfg:      cfg,
		ring:     newHashRing(n),
		names:    make([]string, n),
		client:   &http.Client{},
		cancel:   cancel,
		breakers: make([]*breaker, n),
		meta:     make(map[string]deployMeta),
		alias:    make(map[string]string),
		inflight: make([]int64, n),
		routed:   make([]int64, n),
	}
	bcfg := breakerConfig{
		failures:  cfg.BreakerFailures,
		successes: cfg.BreakerSuccesses,
		cooldown:  cfg.BreakerCooldown,
	}
	for i := range rt.names {
		rt.names[i] = fmt.Sprintf("b%d", i)
		rt.breakers[i] = newBreaker(bcfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/modules", rt.handleUpload)
	mux.HandleFunc("GET /v1/modules", rt.handleListModules)
	mux.HandleFunc("POST /v1/deploy", rt.handleDeploy)
	mux.HandleFunc("GET /v1/deployments", rt.handleListDeployments)
	mux.HandleFunc("POST /v1/deployments/{id}/run", rt.handleRun)
	mux.HandleFunc("POST /v1/run-batch", rt.handleRunBatch)
	mux.HandleFunc("GET /v1/deployments/{id}/profile", rt.handleProfile)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux = mux
	if cfg.HealthInterval > 0 {
		rt.probeAll()
		rt.wg.Add(1)
		go rt.healthLoop(ctx)
	}
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health prober.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
}

func (rt *Router) healthLoop(ctx context.Context) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll health-checks every backend concurrently. Probes feed the same
// breakers as real traffic: an ejected backend must answer
// BreakerSuccesses probes in a row before it is readmitted, and a flapping
// one must fail BreakerFailures times before it is ejected.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	now := time.Now()
	for i, base := range rt.cfg.Backends {
		if !rt.breakers[i].allow(now) {
			continue // open and still cooling down — not even probes get through
		}
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				rt.breakers[i].onSuccess()
				rt.reconcile(i, base)
			} else {
				rt.breakers[i].onFailure(time.Now())
			}
		}(i, base)
	}
	wg.Wait()
}

// reconcile forgets the recipes of deployments backend b no longer lists
// (its TTL sweeper evicted them, or it restarted without a journal), then
// the aliases whose chains led to them. A recipe recorded after the listing
// was requested survives whether or not the listing shows it: its seq is
// above the stamp taken first. Without a recipe on b there is nothing to
// reconcile, and no request is sent; a failed or malformed listing changes
// nothing.
func (rt *Router) reconcile(b int, base string) {
	rt.mu.Lock()
	stamp, tracked := rt.seq, false
	for _, m := range rt.meta {
		if m.backend == b {
			tracked = true
			break
		}
	}
	rt.mu.Unlock()
	if !tracked {
		return
	}
	live, err := rt.listDeployments(base)
	if err != nil {
		return
	}
	prefix := len(rt.names[b]) + 1 // "b2." of "b2.d-000017"
	rt.mu.Lock()
	defer rt.mu.Unlock()
	dropped := false
	for id, m := range rt.meta {
		if m.backend == b && m.seq <= stamp && !live[id[prefix:]] {
			delete(rt.meta, id)
			dropped = true
		}
	}
	if !dropped {
		return
	}
	// Only the end of a chain holds a recipe (recordFailover moves it), so
	// an alias goes exactly when its chain's end lost its recipe.
	for id := range rt.alias {
		if _, ok := rt.meta[rt.aliasEnd(id)]; !ok {
			delete(rt.alias, id)
		}
	}
}

// listDeployments returns the backend-local ids of the deployments one
// backend holds, bounded by HealthTimeout.
func (rt *Router) listDeployments(base string) (map[string]bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/deployments", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing deployments: status %d", resp.StatusCode)
	}
	return decodeDeploymentIDs(json.NewDecoder(resp.Body))
}

// decodeDeploymentIDs reads the ids of a GET /v1/deployments answer one
// entry at a time, so the decoder holds one entry, not the whole answer: a
// backend may list thousands of deployments, and the router asks after
// every health probe.
func decodeDeploymentIDs(dec *json.Decoder) (map[string]bool, error) {
	if err := expectDelim(dec, '{'); err != nil {
		return nil, err
	}
	var live map[string]bool
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if key != "deployments" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, err
			}
			continue
		}
		if err := expectDelim(dec, '['); err != nil {
			return nil, err
		}
		live = make(map[string]bool)
		for dec.More() {
			var d struct {
				ID string `json:"id"`
			}
			if err := dec.Decode(&d); err != nil {
				return nil, err
			}
			live[d.ID] = true
		}
		if err := expectDelim(dec, ']'); err != nil {
			return nil, err
		}
	}
	if live == nil {
		return nil, errors.New("listing deployments: no deployment list in the answer")
	}
	return live, nil
}

// expectDelim reads the next token and fails unless it is want.
func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != want {
		return fmt.Errorf("listing deployments: got %v where %v belongs", tok, want)
	}
	return nil
}

// snapshot derives the health vector from the breakers (open breakers past
// their cooldown admit the request as a half-open probe) and copies the
// load vector, for a placement decision.
func (rt *Router) snapshot() (healthy []bool, inflight []int64) {
	now := time.Now()
	healthy = make([]bool, len(rt.breakers))
	for i, bk := range rt.breakers {
		healthy[i] = bk.allow(now)
	}
	rt.mu.Lock()
	inflight = append([]int64(nil), rt.inflight...)
	rt.mu.Unlock()
	return
}

// healthyBackends returns the indexes of backends whose breakers currently
// admit traffic.
func (rt *Router) healthyBackends() []int {
	now := time.Now()
	var out []int
	for i, bk := range rt.breakers {
		if bk.allow(now) {
			out = append(out, i)
		}
	}
	return out
}

// forward sends one request to one backend, tracking in-flight load and
// feeding the backend's breaker with the outcome. A nil error means an HTTP
// response was received (whatever its status); the caller owns resp.Body.
func (rt *Router) forward(ctx context.Context, b int, method, path string, body []byte, contentType string) (*http.Response, error) {
	rt.mu.Lock()
	rt.inflight[b]++
	rt.routed[b]++
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		rt.inflight[b]--
		rt.mu.Unlock()
	}()
	req, err := http.NewRequestWithContext(ctx, method, rt.cfg.Backends[b]+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := rt.client.Do(req)
	if err == nil {
		if f := faultinject.At("router.forward"); f != nil {
			if ferr := f.Apply(); ferr != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				resp, err = nil, ferr
			}
		}
	}
	switch {
	case err == nil:
		rt.breakers[b].onSuccess()
	case ctx.Err() != nil:
		// The client went away (or the deadline fired); that says nothing
		// about the backend's health, so don't charge its breaker.
	default:
		rt.breakers[b].onFailure(time.Now())
	}
	return resp, err
}

// forwardByKey places a keyed request on the ring and retries clockwise
// across replicas on transport failures. A failed backend is excluded for
// the rest of this request even if its breaker has not tripped yet — the
// breaker decides fleet-wide ejection, the local exclusion keeps one
// request from hammering the same dying replica.
func (rt *Router) forwardByKey(ctx context.Context, key, method, path string, body []byte, contentType string) (*http.Response, int, error) {
	healthy, inflight := rt.snapshot()
	var lastErr error
	for attempt := 0; attempt < len(rt.cfg.Backends); attempt++ {
		b := rt.ring.pick(key, healthy, inflight, rt.cfg.LoadFactor)
		if b == -1 {
			break
		}
		resp, err := rt.forward(ctx, b, method, path, body, contentType)
		if err == nil {
			return resp, b, nil
		}
		lastErr = err
		healthy[b] = false
		rt.mu.Lock()
		rt.retries++
		rt.mu.Unlock()
	}
	if lastErr == nil {
		lastErr = errors.New("no healthy backend")
	}
	return nil, -1, lastErr
}

// copyResponse proxies a backend response through unchanged.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// splitDeployID resolves a namespaced deployment ID ("b2.d-000017") to its
// backend index and backend-local ID.
func (rt *Router) splitDeployID(id string) (int, string, bool) {
	name, local, ok := strings.Cut(id, ".")
	if !ok {
		return 0, "", false
	}
	for i, n := range rt.names {
		if n == name {
			return i, local, true
		}
	}
	return 0, "", false
}

func (rt *Router) prefixID(b int, local string) string {
	return rt.names[b] + "." + local
}

// handleUpload replicates a module to every healthy backend so the ring can
// later place its deployments on any of them. Uploads are idempotent by
// content, so replication is safe to repeat; the client sees success when
// at least one replica accepted (stragglers pick the module up from the
// shared cache volume or a re-upload).
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxModuleBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > rt.cfg.MaxModuleBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "module exceeds %d bytes", rt.cfg.MaxModuleBytes)
		return
	}
	targets := rt.healthyBackends()
	if len(targets) == 0 {
		writeError(w, http.StatusBadGateway, "no healthy backend")
		return
	}
	rt.mu.Lock()
	rt.fanouts++
	rt.mu.Unlock()
	type result struct {
		b    int
		resp *http.Response
		err  error
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	for i, b := range targets {
		wg.Add(1)
		go func(i, b int) {
			defer wg.Done()
			resp, err := rt.forward(r.Context(), b, http.MethodPost, "/v1/modules", body, "application/octet-stream")
			results[i] = result{b: b, resp: resp, err: err}
		}(i, b)
	}
	wg.Wait()
	var winner, fallback *http.Response
	for _, res := range results {
		switch {
		case res.err != nil:
			// forward already fed the breaker; nothing to merge.
		case res.resp.StatusCode == http.StatusCreated && winner == nil:
			winner = res.resp
		case fallback == nil:
			fallback = res.resp
		}
	}
	for _, res := range results {
		if res.resp != nil && res.resp != winner && res.resp != fallback {
			io.Copy(io.Discard, res.resp.Body)
			res.resp.Body.Close()
		}
	}
	resp := winner
	if resp == nil {
		resp = fallback
	}
	if resp == nil {
		writeError(w, http.StatusBadGateway, "every backend failed the upload")
		return
	}
	defer resp.Body.Close()
	if fallback != nil && fallback != resp {
		io.Copy(io.Discard, fallback.Body)
		fallback.Body.Close()
	}
	copyResponse(w, resp)
}

// handleDeploy routes a batch by its module hash: the ring concentrates one
// module's deployments on one replica so its JIT image is compiled once.
// The full request is decoded (not just the module) so the router can
// remember, per deployment, how to re-create it on another replica if its
// backend later dies mid-run.
func (rt *Router) handleDeploy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req DeployRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	resp, b, err := rt.forwardByKey(r.Context(), req.Module, http.MethodPost, "/v1/deploy", body, "application/json")
	if err != nil {
		writeError(w, http.StatusBadGateway, "deploy: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		copyResponse(w, resp)
		return
	}
	var dr DeployResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		writeError(w, http.StatusBadGateway, "decoding backend response: %v", err)
		return
	}
	rt.mu.Lock()
	for i := range dr.Deployments {
		nsID := rt.prefixID(b, dr.Deployments[i].ID)
		rt.seq++
		rt.meta[nsID] = deployMeta{
			backend: b,
			module:  req.Module,
			target:  dr.Deployments[i].Target,
			req:     req,
			seq:     rt.seq,
		}
		dr.Deployments[i].ID = nsID
	}
	rt.mu.Unlock()
	writeJSON(w, http.StatusCreated, dr)
}

// handleRun forwards an invocation to the backend named by the deployment
// ID. On a transport failure the router fails over: the machine is
// re-deployed from its recorded recipe on the next healthy replica and the
// run retried there, bounded by RunDeadline.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	id := rt.resolveAlias(r.PathValue("id"))
	if _, _, ok := rt.splitDeployID(id); !ok {
		writeError(w, http.StatusNotFound, "unknown deployment %q", r.PathValue("id"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	ctx, cancel := rt.runDeadline(r.Context())
	defer cancel()
	resp, err := rt.runWithFailover(ctx, id, body)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{
			Error:     err.Error(),
			Class:     errClassUnavailable,
			Retryable: true,
		})
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// handleProfile forwards a profile export, restoring the namespaced ID in
// the response. Failed-over deployments are followed to their replacement.
func (rt *Router) handleProfile(w http.ResponseWriter, r *http.Request) {
	b, local, ok := rt.splitDeployID(rt.resolveAlias(r.PathValue("id")))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown deployment %q", r.PathValue("id"))
		return
	}
	resp, err := rt.forward(r.Context(), b, http.MethodGet, "/v1/deployments/"+local+"/profile", nil, "")
	if err != nil {
		writeError(w, http.StatusBadGateway, "backend %s: %v", rt.names[b], err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		copyResponse(w, resp)
		return
	}
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		writeError(w, http.StatusBadGateway, "decoding backend response: %v", err)
		return
	}
	pr.ID = rt.prefixID(b, pr.ID)
	writeJSON(w, http.StatusOK, pr)
}

// handleRunBatch splits a batch across the fleet: an explicit deployment
// list is grouped by backend, a module selector fans out to every healthy
// replica (deployments of one module can overflow onto several under
// bounded load). Results keep request order; per-machine errors stay
// per-result, as on a single backend — including transport failures, which
// are retried item by item through run failover instead of failing the
// whole batch.
func (rt *Router) handleRunBatch(w http.ResponseWriter, r *http.Request) {
	var req RunBatchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Entry == "" {
		writeError(w, http.StatusBadRequest, "missing entry point name")
		return
	}
	if (len(req.Deployments) == 0) == (req.Module == "") {
		writeError(w, http.StatusBadRequest, "set exactly one of deployments or module")
		return
	}
	rt.mu.Lock()
	rt.fanouts++
	rt.mu.Unlock()
	ctx, cancel := rt.runDeadline(r.Context())
	defer cancel()

	type shard struct {
		b       int
		req     RunBatchRequest
		ids     []string // namespaced ids, parallel to req.Deployments
		slots   []int    // result index per entry (explicit-list mode)
		resp    RunBatchResponse
		status  int
		errBody errorBody
		err     error
	}
	var shards []*shard
	if req.Module != "" {
		for _, b := range rt.healthyBackends() {
			shards = append(shards, &shard{b: b, req: RunBatchRequest{Module: req.Module, Entry: req.Entry, Args: req.Args}})
		}
		if len(shards) == 0 {
			writeError(w, http.StatusBadGateway, "no healthy backend")
			return
		}
	} else {
		byBackend := map[int]*shard{}
		for i, id := range req.Deployments {
			nsID := rt.resolveAlias(id)
			b, local, ok := rt.splitDeployID(nsID)
			if !ok {
				writeError(w, http.StatusNotFound, "unknown deployment %q", id)
				return
			}
			sh := byBackend[b]
			if sh == nil {
				sh = &shard{b: b, req: RunBatchRequest{Entry: req.Entry, Args: req.Args}}
				byBackend[b] = sh
				shards = append(shards, sh)
			}
			sh.req.Deployments = append(sh.req.Deployments, local)
			sh.ids = append(sh.ids, nsID)
			sh.slots = append(sh.slots, i)
		}
	}

	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			body, err := json.Marshal(sh.req)
			if err != nil {
				sh.err = err
				return
			}
			resp, err := rt.forward(ctx, sh.b, http.MethodPost, "/v1/run-batch", body, "application/json")
			if err != nil {
				sh.err = err
				return
			}
			defer resp.Body.Close()
			sh.status = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				sh.err = json.NewDecoder(resp.Body).Decode(&sh.resp)
			} else {
				_ = json.NewDecoder(resp.Body).Decode(&sh.errBody)
			}
		}(sh)
	}
	wg.Wait()

	if req.Module != "" {
		// Merge module-wide shards; replicas without machines for the module
		// answer 404 and drop out. A shard whose backend died is recovered
		// item by item: the router knows which of its deployments lived
		// there and fails each over to a surviving replica.
		var out RunBatchResponse
		sawFleet := false
		for _, sh := range shards {
			if sh.err != nil {
				ids := rt.metaIDsOn(req.Module, sh.b)
				for _, nsID := range ids {
					out.Results = append(out.Results, rt.failoverBatchItem(ctx, nsID, req.Entry, req.Args))
					sawFleet = true
				}
				continue
			}
			if sh.status == http.StatusNotFound {
				continue
			}
			if sh.status != http.StatusOK {
				writeJSON(w, sh.status, sh.errBody)
				return
			}
			sawFleet = true
			for _, res := range sh.resp.Results {
				res.Deployment = rt.prefixID(sh.b, res.Deployment)
				out.Results = append(out.Results, res)
			}
		}
		if !sawFleet {
			writeError(w, http.StatusNotFound, "module %q has no live deployments", req.Module)
			return
		}
		writeJSON(w, http.StatusOK, out)
		return
	}

	out := RunBatchResponse{Results: make([]RunBatchResult, len(req.Deployments))}
	for _, sh := range shards {
		if sh.err != nil {
			// The shard's backend died; recover each of its items through
			// run failover rather than failing the whole batch.
			for j, nsID := range sh.ids {
				out.Results[sh.slots[j]] = rt.failoverBatchItem(ctx, nsID, req.Entry, req.Args)
			}
			continue
		}
		if sh.status != http.StatusOK {
			writeJSON(w, sh.status, sh.errBody)
			return
		}
		if len(sh.resp.Results) != len(sh.slots) {
			writeError(w, http.StatusBadGateway, "backend %s returned %d results for %d runs", rt.names[sh.b], len(sh.resp.Results), len(sh.slots))
			return
		}
		for j, res := range sh.resp.Results {
			res.Deployment = rt.prefixID(sh.b, res.Deployment)
			out.Results[sh.slots[j]] = res
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleListModules merges the module registries of every healthy backend,
// deduplicated by content hash (uploads are replicated, so every replica
// normally lists the same set).
func (rt *Router) handleListModules(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string]ModuleInfo)
	var order []string
	for _, b := range rt.healthyBackends() {
		resp, err := rt.forward(r.Context(), b, http.MethodGet, "/v1/modules", nil, "")
		if err != nil {
			continue
		}
		var body struct {
			Modules []ModuleInfo `json:"modules"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, m := range body.Modules {
			if _, ok := merged[m.ID]; !ok {
				merged[m.ID] = m
				order = append(order, m.ID)
			}
		}
	}
	out := make([]ModuleInfo, 0, len(order))
	for _, id := range order {
		out = append(out, merged[id])
	}
	writeJSON(w, http.StatusOK, map[string]any{"modules": out})
}

// handleListDeployments concatenates every healthy backend's deployments,
// IDs namespaced.
func (rt *Router) handleListDeployments(w http.ResponseWriter, r *http.Request) {
	var out DeployResponse
	for _, b := range rt.healthyBackends() {
		resp, err := rt.forward(r.Context(), b, http.MethodGet, "/v1/deployments", nil, "")
		if err != nil {
			continue
		}
		var dr DeployResponse
		err = json.NewDecoder(resp.Body).Decode(&dr)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, d := range dr.Deployments {
			d.ID = rt.prefixID(b, d.ID)
			out.Deployments = append(out.Deployments, d)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// RouterBackendStats describes one backend as the router sees it.
type RouterBackendStats struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Healthy is true while the circuit breaker is closed; Breaker is the
	// breaker state by name ("closed", "open", "half-open").
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
	// ConsecutiveFailures is the breaker's current failure streak;
	// BreakerOpens counts how often the breaker has tripped.
	ConsecutiveFailures int   `json:"consecutive_failures"`
	BreakerOpens        int64 `json:"breaker_opens"`
	// Routed counts requests this router sent to the backend; Inflight is
	// the bounded-load vector's current entry.
	Routed   int64 `json:"routed"`
	Inflight int64 `json:"inflight"`
}

// RouterStats is the router's own /v1/stats section.
type RouterStats struct {
	Backends []RouterBackendStats `json:"backends"`
	// Retries counts transport failures that moved a request to the next
	// replica clockwise; Fanouts counts requests replicated or sharded to
	// multiple backends (uploads, run-batch).
	Retries int64 `json:"retries"`
	Fanouts int64 `json:"fanouts"`
	// Failovers counts runs recovered onto another replica after a backend
	// died; FailoverRedeploys counts the re-deployments that took (one
	// failover can redeploy on several candidates before one answers);
	// FailoverFailed counts runs that exhausted their deadline without
	// finding a survivor.
	Failovers         int64 `json:"failovers"`
	FailoverRedeploys int64 `json:"failover_redeploys"`
	FailoverFailed    int64 `json:"failover_failed"`
	// Deployments counts the re-create recipes the router holds, one per
	// live deployment it placed; Aliases counts the failed-over ids it
	// still forwards to their replacements. Both shrink when a backend
	// evicts deployments (see reconcile).
	Deployments int `json:"deployments"`
	Aliases     int `json:"aliases"`
}

// RouterStatsResponse is the router's /v1/stats payload: its own routing
// counters plus each healthy backend's full StatsResponse, keyed by
// backend name.
type RouterStatsResponse struct {
	Router   RouterStats              `json:"router"`
	Backends map[string]StatsResponse `json:"backends"`
}

// Stats snapshots the router's routing counters.
func (rt *Router) Stats() RouterStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := RouterStats{
		Retries:           rt.retries,
		Fanouts:           rt.fanouts,
		Failovers:         rt.failovers,
		FailoverRedeploys: rt.failoverRedeploys,
		FailoverFailed:    rt.failoverFailed,
		Deployments:       len(rt.meta),
		Aliases:           len(rt.alias),
	}
	for i, base := range rt.cfg.Backends {
		state, fails, opens := rt.breakers[i].snapshot()
		st.Backends = append(st.Backends, RouterBackendStats{
			Name:                rt.names[i],
			URL:                 base,
			Healthy:             state == breakerClosed,
			Breaker:             state.String(),
			ConsecutiveFailures: fails,
			BreakerOpens:        opens,
			Routed:              rt.routed[i],
			Inflight:            rt.inflight[i],
		})
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	out := RouterStatsResponse{Backends: make(map[string]StatsResponse)}
	for _, b := range rt.healthyBackends() {
		resp, err := rt.forward(r.Context(), b, http.MethodGet, "/v1/stats", nil, "")
		if err != nil {
			continue
		}
		var st StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			continue
		}
		out.Backends[rt.names[b]] = st
	}
	out.Router = rt.Stats()
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports the router healthy while at least one backend is.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n := len(rt.healthyBackends())
	status := http.StatusOK
	state := "ok"
	if n == 0 {
		status = http.StatusServiceUnavailable
		state = "no healthy backend"
	}
	writeJSON(w, status, map[string]any{"status": state, "healthy_backends": n, "backends": len(rt.cfg.Backends)})
}
