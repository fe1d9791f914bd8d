// Package server exposes a shared splitvm.Engine over HTTP: the batch
// deploy service of the split-compilation model. One long-lived process
// holds one engine, so verification happens once per uploaded module and
// JIT compilation once per (module, target, options) key; every further
// deployment anywhere in the fleet of simulated devices is a code-cache hit
// that only pays for a fresh machine.
//
// The API (all bodies JSON unless noted):
//
//	POST /v1/modules                   upload an encoded module (raw bytes) → id
//	GET  /v1/modules                   list uploaded modules
//	POST /v1/deploy                    batch deploy: one module × many targets
//	GET  /v1/deployments               list live deployments
//	POST /v1/deployments/{id}/run      invoke an entry point on a deployment
//	POST /v1/run-batch                 invoke one entry point across many deployments
//	GET  /v1/deployments/{id}/profile  export a tiered deployment's profile
//	GET  /v1/stats                     cache, pool, registry and tier counters
//	GET  /healthz                      liveness
//
// Deploy requests fan out to per-target worker pools with bounded queues;
// when a target's queue is full the whole batch is rejected with 429 and a
// Retry-After hint instead of queueing unboundedly — backpressure is the
// contract that keeps one slow target from absorbing the server's memory.
//
// With Config.DeployTTL set, an idle sweeper evicts deployments that have
// not run anything for that long (the other half of the memory contract:
// bounded queues stop unbounded inflow, the TTL stops unbounded
// accumulation). Eviction drops only the machine; the JIT image stays
// cached, so re-deploying after eviction is a cache hit.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/target"
	"repro/pkg/splitvm"
)

// Config parameterizes a Server. The zero value gets sensible defaults.
type Config struct {
	// WorkersPerTarget is the number of concurrent deployments each target's
	// pool executes (default 4).
	WorkersPerTarget int
	// QueueDepth bounds each target's pending-deployment queue (default 64).
	// A batch that cannot enqueue every job immediately is rejected with 429.
	QueueDepth int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxModuleBytes caps uploaded module size (default 4 MiB).
	MaxModuleBytes int64
	// MaxBatchJobs caps targets × replicas of one deploy request (default
	// 256) so a single request cannot reserve every queue slot of the server.
	MaxBatchJobs int
	// DeployTTL evicts deployments that have not run anything for this
	// long (0 — the default — keeps live machines forever, the historical
	// behavior). Eviction frees the machine's simulated memory; the JIT
	// image stays in the engine's code cache, so re-deploying an evicted
	// module is a cheap cache hit. Evictions are counted in /v1/stats.
	DeployTTL time.Duration
	// DeploySweepInterval is how often the idle sweeper scans (default
	// DeployTTL/4, at least 100ms). Only meaningful with DeployTTL > 0.
	DeploySweepInterval time.Duration
	// MaxDeploymentsPerModule caps the live deployments of any single module
	// (0 — the default — is unlimited). A batch that would push a module over
	// the cap is rejected whole with 429, like queue saturation; evicted or
	// swept deployments free their slots.
	MaxDeploymentsPerModule int
	// MaxDeploymentsPerTenant caps the live deployments attributed to one
	// tenant (0 — the default — is unlimited). The tenant is the X-Tenant
	// request header; requests without one share the "default" tenant, so a
	// single-tenant installation behaves like a global cap.
	MaxDeploymentsPerTenant int
	// MaxInflightPerTenant caps the run and run-batch requests one tenant may
	// have in flight (0 — the default — is unlimited). A request over the cap
	// is shed with 429, error class "resource_exhausted" and retryable true:
	// the server is overloaded, not broken, so routers retry or back off
	// instead of failing over. Requests that carry a deadline are shed
	// immediately when the tenant is saturated; deadline-less requests may
	// queue behind at most MaxInflightPerTenant waiters.
	MaxInflightPerTenant int
	// JournalPath, when set, makes the server keep a crash-safe deployment
	// journal at that file: every upload, deploy and eviction is appended,
	// and New replays the file so a restarted (even SIGKILLed) server
	// recovers its module and deployment registries — warm, with zero
	// compilations, when the engine also has its disk cache. An unusable
	// journal does not fail New; check JournalErr for callers that require
	// durability.
	JournalPath string
}

func (c *Config) defaults() {
	if c.WorkersPerTarget <= 0 {
		c.WorkersPerTarget = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxModuleBytes <= 0 {
		c.MaxModuleBytes = 4 << 20
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 256
	}
	if c.DeployTTL > 0 && c.DeploySweepInterval <= 0 {
		c.DeploySweepInterval = c.DeployTTL / 4
		if c.DeploySweepInterval < 100*time.Millisecond {
			c.DeploySweepInterval = 100 * time.Millisecond
		}
	}
}

// Server is the HTTP façade over one shared engine. Create it with New,
// serve it like any http.Handler, and Close it to stop the worker pools.
type Server struct {
	eng *splitvm.Engine
	cfg Config
	mux *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// adm sheds run requests over the per-tenant in-flight cap (admits
	// everything with Config.MaxInflightPerTenant unset).
	adm *admission

	mu          sync.Mutex
	closed      bool
	modules     map[string]*storedModule
	moduleOrder []*storedModule
	deployments map[string]*liveDeployment
	deployOrder []string
	pools       map[target.Arch]*pool
	nextDep     int64
	rejected    int64
	evicted     int64
	// Quota accounting: live (registered) plus in-flight (reserved) deploy
	// counts per tenant here, per module in storedModule.live. Reservations
	// are taken before the pools see a batch and converted into live counts
	// at registration, so two racing batches cannot both squeeze under a cap.
	quotaRejected int64
	byTenant      map[string]int

	lat routeLatencies

	// Deployment journal (nil without Config.JournalPath). The replay
	// counters are fixed at New; journalAppendErrs is guarded by mu.
	jnl                 *journal.Journal
	journalErr          error
	journalAppendErrs   int64
	replayedModules     int
	replayedDeployments int
	replayFailed        int

	// gateDeploy, when non-nil, is called by every pool worker before it
	// deploys a job — a test hook to hold workers and saturate the queues
	// deterministically. Set it before the first request is served.
	gateDeploy func()
}

// loadModule is Engine.Load, the decode and verify; tests wrap it to count.
var loadModule = (*splitvm.Engine).Load

// storedModule is one uploaded module: its encoded bytes for the life of
// the process, its decoded form only while live (the quota's count of live
// plus reserved deployments) is above 0. live and m are guarded by
// Server.mu.
type storedModule struct {
	data []byte     // an exact-size copy of the upload; the journal writes it
	info ModuleInfo // worked out at upload; info.ID is the store's key
	live int
	m    *splitvm.Module
}

// liveDeployment is one instantiated machine. Machines own mutable state
// (memory, statistics), so the mutex serializes runs per deployment.
type liveDeployment struct {
	id     string
	module string // the store's key, shared rather than copied per request
	tenant string
	arch   target.Arch
	// lastUsed is when the deployment was created or last asked to run,
	// and running counts in-flight invocations; both are read by the idle
	// sweeper. Guarded by Server.mu (not the run mutex: the sweeper must
	// never wait behind a long-running invocation).
	lastUsed time.Time
	running  int

	// The deploy options the machine was created with, retained so the
	// journal can re-create it verbatim on replay and compaction.
	regAlloc          string
	forceScalarize    bool
	lazy              bool
	tiering           bool
	promoteCalls      int64
	profile           []byte
	memLimit          int64
	runDeadlineMillis int64

	mu  sync.Mutex
	dep *splitvm.Deployment
}

// New wraps an engine in a batch deploy server. The engine may be shared
// with other (non-HTTP) users; the server only adds state of its own for
// the module and deployment registries and the worker pools.
func New(eng *splitvm.Engine, cfg Config) *Server {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:         eng,
		cfg:         cfg,
		baseCtx:     ctx,
		cancel:      cancel,
		modules:     make(map[string]*storedModule),
		deployments: make(map[string]*liveDeployment),
		pools:       make(map[target.Arch]*pool),
		byTenant:    make(map[string]int),
		adm:         newAdmission(cfg.MaxInflightPerTenant),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/modules", timed(&s.lat.upload, s.handleUpload))
	mux.HandleFunc("GET /v1/modules", s.handleListModules)
	mux.HandleFunc("POST /v1/deploy", timed(&s.lat.deploy, s.handleDeploy))
	mux.HandleFunc("GET /v1/deployments", s.handleListDeployments)
	mux.HandleFunc("POST /v1/deployments/{id}/run", timed(&s.lat.run, s.handleRun))
	mux.HandleFunc("POST /v1/run-batch", timed(&s.lat.runBatch, s.handleRunBatch))
	mux.HandleFunc("GET /v1/deployments/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux = mux
	if cfg.JournalPath != "" {
		s.openJournal(cfg.JournalPath)
	}
	if cfg.DeployTTL > 0 {
		s.wg.Add(1)
		go s.sweepLoop()
	}
	return s
}

// sweepLoop periodically evicts idle deployments until the server closes.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.DeploySweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.evictIdle(time.Now().Add(-s.cfg.DeployTTL))
		}
	}
}

// evictIdle drops every deployment whose last use predates the cutoff and
// returns how many it removed. An eviction forgets the machine (its
// simulated memory is garbage), and a module's last one its decoded form;
// the encoded module and the cached JIT image stay, so a client that raced
// the sweeper simply re-deploys and gets a code-cache hit. In-flight runs
// hold their own reference and finish normally; their result just belongs
// to a machine that is no longer listed.
func (s *Server) evictIdle(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	keep := s.deployOrder[:0]
	for _, id := range s.deployOrder {
		ld := s.deployments[id]
		if ld.running == 0 && ld.lastUsed.Before(cutoff) {
			delete(s.deployments, id)
			s.releaseLocked(s.modules[ld.module], ld.tenant, 1)
			s.appendJournalJSON(journalOpEvict, journalEvictRecord{ID: id})
			removed++
			continue
		}
		keep = append(keep, id)
	}
	s.deployOrder = keep
	s.evicted += int64(removed)
	return removed
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine returns the wrapped engine (shared; e.g. for out-of-band stats).
func (s *Server) Engine() *splitvm.Engine { return s.eng }

// Close stops the worker pools and waits for in-flight deployments to
// finish. Requests arriving after Close are rejected with 503. Close is the
// second half of a graceful shutdown: first drain the HTTP listener
// (http.Server.Shutdown), then Close the deploy pools.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	if s.jnl != nil {
		_ = s.jnl.Close()
	}
}

// runContext derives the context one simulated invocation runs under: it
// follows the incoming request — a client that disconnects cancels its
// simulation — and additionally the server's base context, so Close
// force-cancels every in-flight run during a bounded shutdown.
func (s *Server) runContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Error classes for run failures, machine-readable so routers and clients
// can decide what to retry without parsing error prose.
const (
	errClassNotFound          = "not_found"
	errClassBadRequest        = "bad_request"
	errClassExecution         = "execution"
	errClassCancelled         = "cancelled"
	errClassUnavailable       = "unavailable"
	errClassResourceExhausted = "resource_exhausted"
)

// classifyRunError maps a simulation error to (class, retryable). A
// cancelled run is retryable — the machine is fine, the caller went away
// or the server was shutting down; an execution trap is not — retrying the
// same inputs traps again. A governed run that exceeded one of its limits
// (instruction budget, guest memory, run deadline) is resource_exhausted
// and not retryable on the same machine with the same limits: the breach is
// a deterministic property of the module and its governor, not a transient
// fault — which is also why routers must not fail it over.
func classifyRunError(err error) (string, bool) {
	var re *splitvm.ResourceError
	if errors.As(err, &re) {
		return errClassResourceExhausted, false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return errClassCancelled, true
	}
	return errClassExecution, false
}

// errorBody is the uniform error payload. Class and Retryable are set on
// run failures (see the errClass constants); other routes leave them empty.
type errorBody struct {
	Error     string `json:"error"`
	Class     string `json:"error_class,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// admit applies the per-tenant in-flight cap to one run-route request. On
// shed it writes the full 429 response — resource_exhausted, retryable,
// with a Retry-After hint — and returns ok false; on admission the caller
// must invoke release exactly once when the request's work is done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	tenant := tenantOf(r)
	release, ok = s.adm.acquire(r.Context(), tenant)
	if !ok {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds()+0.999)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:     fmt.Sprintf("tenant %q is at its in-flight run cap (%d); retry later", tenant, s.cfg.MaxInflightPerTenant),
			Class:     errClassResourceExhausted,
			Retryable: true,
		})
		return nil, false
	}
	return release, true
}

// ModuleInfo describes one uploaded module.
type ModuleInfo struct {
	// ID is the hex SHA-256 of the encoded byte stream; uploads are
	// idempotent by content.
	ID              string   `json:"id"`
	Name            string   `json:"name"`
	Methods         []string `json:"methods"`
	EncodedBytes    int      `json:"encoded_bytes"`
	AnnotationBytes int      `json:"annotation_bytes"`
}

func moduleInfo(id string, m *splitvm.Module) ModuleInfo {
	st := m.Stats()
	return ModuleInfo{
		ID:              id,
		Name:            m.Name(),
		Methods:         m.Methods(),
		EncodedBytes:    st.EncodedBytes,
		AnnotationBytes: st.AnnotationBytes,
	}
}

// handleUpload ingests an encoded module: decode + verify to refuse a bad
// one, then the store keeps the bytes and the module is deployable any
// number of times. The body is the raw byte stream produced by the offline
// compiler (svc -o …).
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxModuleBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(data)) > s.cfg.MaxModuleBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "module exceeds %d bytes", s.cfg.MaxModuleBytes)
		return
	}
	if len(data) == 0 {
		writeError(w, http.StatusBadRequest, "empty module body")
		return
	}
	m, err := loadModule(s.eng, data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "loading module: %v", err)
		return
	}
	info := moduleInfo(m.Hash(), m)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	sm, added := s.storeLocked(info, data)
	if added {
		s.appendJournal(journalOpModule, sm.data)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, sm.info)
}

// storeLocked adds an upload to the store unless its id is there already,
// and returns the entry. Caller holds s.mu.
func (s *Server) storeLocked(info ModuleInfo, data []byte) (sm *storedModule, added bool) {
	if old, ok := s.modules[info.ID]; ok {
		return old, false
	}
	sm = &storedModule{data: append([]byte(nil), data...), info: info}
	s.modules[info.ID] = sm
	s.moduleOrder = append(s.moduleOrder, sm)
	return sm, true
}

func (s *Server) handleListModules(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]ModuleInfo, 0, len(s.moduleOrder))
	for _, sm := range s.moduleOrder {
		out = append(out, sm.info)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"modules": out})
}

// DeployRequest is one batch: deploy a module on every listed target,
// replicas machines each.
type DeployRequest struct {
	// Module is the id returned by the upload endpoint.
	Module string `json:"module"`
	// Targets are registry names (x86-sse, ultrasparc, powerpc, spu, mcu,
	// plus anything added with target.Register).
	Targets []string `json:"targets"`
	// Replicas is the number of machines per target (default 1).
	Replicas int `json:"replicas,omitempty"`
	// RegAlloc selects the JIT register allocator: "split" (default),
	// "online" or "optimal".
	RegAlloc string `json:"reg_alloc,omitempty"`
	// ForceScalarize makes the JIT ignore the target's SIMD unit.
	ForceScalarize bool `json:"force_scalarize,omitempty"`
	// Lazy deploys with on-demand compilation: the machines install
	// per-method stubs and JIT each method on its first call (once per
	// image, shared by every replica; once fleet-wide with a shared disk
	// cache). Results and simulated cycles are identical to an eager
	// deployment — only when compile time is paid changes.
	Lazy bool `json:"lazy,omitempty"`
	// Tiering enables runtime profiling and tier-2 promotion on the
	// deployed machines (per machine; the cached JIT image is shared with
	// untiered deployments because tier 2 never changes simulated
	// behavior).
	Tiering bool `json:"tiering,omitempty"`
	// PromoteCalls overrides the tier-2 promotion threshold in calls
	// (implies tiering; negative profiles without promoting).
	PromoteCalls int64 `json:"promote_calls,omitempty"`
	// Profile is an execution profile annotation value (as exported by the
	// profile endpoint; base64 in JSON) to warm the deployed machines with
	// — implies tiering. A profile this server cannot negotiate (future
	// schema, malformed) degrades to deploying without one, like every
	// annotation: it is surfaced per deployment, never an error.
	Profile []byte `json:"profile,omitempty"`
	// MemLimit bounds the guest memory of each deployed machine in bytes
	// (0 = ungoverned). A run that would breach it fails with error class
	// resource_exhausted; the machine and its cached image are unaffected.
	MemLimit int64 `json:"mem_limit,omitempty"`
	// RunDeadlineMillis bounds the wall-clock time of each run on the
	// deployed machines, in milliseconds (0 = unbounded). A breach fails the
	// run with error class resource_exhausted.
	RunDeadlineMillis int64 `json:"run_deadline_ms,omitempty"`
}

// DeploymentInfo describes one live deployment.
type DeploymentInfo struct {
	ID     string `json:"id"`
	Module string `json:"module"`
	Target string `json:"target"`
	// FromCache reports whether the native code came from the engine's code
	// cache rather than a fresh JIT compilation.
	FromCache bool `json:"from_cache"`
	// JITSteps approximates the online compilation work this deployment paid.
	JITSteps int64 `json:"jit_steps"`
	// CompileNanos is the wall-clock time the JIT spent producing this
	// deployment's native code (the original compilation's cost when
	// FromCache is true — a cache hit pays none of it again).
	CompileNanos    int64 `json:"compile_nanos"`
	NativeCodeBytes int   `json:"native_code_bytes"`
	// AnnotationFallbacks counts the annotation sections of this
	// deployment's image that could not be consumed (malformed, from the
	// future, or below the configured minimum version) and degraded to
	// online-only compilation.
	AnnotationFallbacks int `json:"annotation_fallbacks"`
	// Tiering reports whether the deployment profiles and promotes.
	Tiering bool `json:"tiering,omitempty"`
	// ProfileFallback is set when the deploy request carried a warm profile
	// this server could not negotiate: the deployment runs (tiered, if
	// requested) without it.
	ProfileFallback string `json:"profile_fallback,omitempty"`
	// Lazy reports whether the deployment compiles methods on first call;
	// MethodsCompiled/MethodsTotal are its per-method progress at response
	// time (equal on eager deployments, MethodsCompiled 0 on a fresh lazy
	// one).
	Lazy            bool `json:"lazy,omitempty"`
	MethodsCompiled int  `json:"methods_compiled"`
	MethodsTotal    int  `json:"methods_total"`
	// FromDisk reports that the native code was materialized from the
	// engine's persistent cache layer (a warm restart or a replica sharing
	// the cache volume); every FromDisk deployment is also FromCache.
	FromDisk bool `json:"from_disk,omitempty"`
	// MemLimit and RunDeadlineMillis echo the deployment's resource governor
	// (0 = ungoverned / unbounded; see DeployRequest).
	MemLimit          int64 `json:"mem_limit,omitempty"`
	RunDeadlineMillis int64 `json:"run_deadline_ms,omitempty"`
}

// DeployResponse lists the deployments a batch created, in target-major,
// replica-minor order.
type DeployResponse struct {
	Deployments []DeploymentInfo `json:"deployments"`
	// DiskHits counts how many of the batch's deployments were served from
	// the engine's persistent cache layer instead of being JIT-compiled
	// (always zero without a disk cache).
	DiskHits int `json:"disk_hits"`
}

// tenantOf attributes a request to a tenant: the X-Tenant header, or the
// shared "default" tenant when the client sends none.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// reserveQuotaLocked admits n more deployments for (module, tenant) against
// the configured caps, counting both live machines and reservations other
// in-flight batches already hold. Caller holds s.mu.
func (s *Server) reserveQuotaLocked(sm *storedModule, tenant string, n int) error {
	if max := s.cfg.MaxDeploymentsPerModule; max > 0 && sm.live+n > max {
		return fmt.Errorf("module %s would exceed its deployment quota (%d live or pending, cap %d)",
			sm.info.ID, sm.live, max)
	}
	if max := s.cfg.MaxDeploymentsPerTenant; max > 0 && s.byTenant[tenant]+n > max {
		return fmt.Errorf("tenant %q would exceed its deployment quota (%d live or pending, cap %d)",
			tenant, s.byTenant[tenant], max)
	}
	sm.live += n
	s.byTenant[tenant] += n
	return nil
}

// releaseLocked returns n live or reserved deployments of (sm, tenant) to
// the quotas; the module's last one drops its decoded form. Caller holds
// s.mu.
func (s *Server) releaseLocked(sm *storedModule, tenant string, n int) {
	if sm.live -= n; sm.live == 0 {
		sm.m = nil
	}
	s.byTenant[tenant] -= n
}

func regAllocMode(name string) (splitvm.RegAllocMode, error) {
	switch name {
	case "", "split":
		return splitvm.RegAllocSplit, nil
	case "online":
		return splitvm.RegAllocOnline, nil
	case "optimal":
		return splitvm.RegAllocOptimal, nil
	default:
		return 0, fmt.Errorf("unknown reg_alloc %q (want online, split or optimal)", name)
	}
}

// handleDeploy fans a batch out to the per-target pools and collects the
// machines. Saturation anywhere rejects the whole batch: partial deployment
// would leave the client guessing which replicas exist.
func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	if f := faultinject.At("server.deploy"); f != nil {
		if err := f.Apply(); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	var req DeployRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Replicas == 0 {
		req.Replicas = 1
	}
	if req.Replicas < 0 {
		writeError(w, http.StatusBadRequest, "replicas must be positive")
		return
	}
	if len(req.Targets) == 0 {
		writeError(w, http.StatusBadRequest, "no targets listed")
		return
	}
	if jobs := len(req.Targets) * req.Replicas; jobs > s.cfg.MaxBatchJobs {
		writeError(w, http.StatusBadRequest, "batch of %d deployments exceeds the limit of %d", jobs, s.cfg.MaxBatchJobs)
		return
	}
	mode, err := regAllocMode(req.RegAlloc)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.MemLimit < 0 {
		writeError(w, http.StatusBadRequest, "mem_limit must be non-negative")
		return
	}
	if req.RunDeadlineMillis < 0 {
		writeError(w, http.StatusBadRequest, "run_deadline_ms must be non-negative")
		return
	}
	archs := make([]target.Arch, len(req.Targets))
	for i, name := range req.Targets {
		a := target.Arch(name)
		if _, err := target.Lookup(a); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		archs[i] = a
	}

	tenant := tenantOf(r)
	batchSize := len(req.Targets) * req.Replicas
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	sm, ok := s.modules[req.Module]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown module %q (upload it first)", req.Module)
		return
	}
	// Admit the whole batch against the quotas before any pool sees it: a
	// reservation taken here is either converted into live deployments at
	// registration or released on any earlier exit.
	if err := s.reserveQuotaLocked(sm, tenant, batchSize); err != nil {
		s.quotaRejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds()+0.999)))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	m := sm.m
	s.mu.Unlock()
	reserved := true
	defer func() {
		if reserved {
			s.mu.Lock()
			s.releaseLocked(sm, tenant, batchSize)
			s.mu.Unlock()
		}
	}()
	if m == nil { // idle: decode again; the reservation keeps live > 0 until release
		if m, err = loadModule(s.eng, sm.data); err != nil {
			writeError(w, http.StatusInternalServerError, "loading module: %v", err)
			return
		}
		s.mu.Lock()
		sm.m = m
		s.mu.Unlock()
	}

	opts := []splitvm.DeployOption{
		splitvm.WithRegAllocMode(mode),
		splitvm.WithForceScalarize(req.ForceScalarize),
		splitvm.WithLazyCompile(req.Lazy),
	}
	tiering := req.Tiering || req.PromoteCalls != 0 || len(req.Profile) > 0
	if tiering {
		opts = append(opts, splitvm.WithTiering(true))
	}
	if req.MemLimit > 0 {
		opts = append(opts, splitvm.WithMemLimit(req.MemLimit))
	}
	if req.RunDeadlineMillis > 0 {
		opts = append(opts, splitvm.WithRunDeadline(time.Duration(req.RunDeadlineMillis)*time.Millisecond))
	}
	if req.PromoteCalls != 0 {
		opts = append(opts, splitvm.WithPromoteCalls(req.PromoteCalls))
	}
	profileFallback := ""
	if len(req.Profile) > 0 {
		// Negotiate-or-fallback, like every annotation: a profile from a
		// newer toolchain (or a corrupt one) deploys without warm counters
		// instead of failing the batch.
		p, err := splitvm.DecodeProfile(req.Profile)
		if err != nil {
			profileFallback = err.Error()
		} else {
			opts = append(opts, splitvm.WithProfile(p))
		}
	}

	// Enqueue every job before waiting on any: the pools work concurrently
	// across targets, and a full queue is detected up front.
	type pending struct {
		arch target.Arch
		job  *deployJob
	}
	var queued []pending
	for _, a := range archs {
		p := s.poolFor(a)
		for i := 0; i < req.Replicas; i++ {
			j := &deployJob{
				ctx:  r.Context(),
				m:    m,
				opts: append([]splitvm.DeployOption{splitvm.WithTarget(a)}, opts...),
				res:  make(chan deployResult, 1),
			}
			if !p.trySubmit(j) {
				// Backpressure: the batch does not fit. Jobs already queued
				// run to completion against the request context (now about
				// to be cancelled) and their results are dropped; nothing
				// was registered yet.
				s.mu.Lock()
				s.rejected++
				s.mu.Unlock()
				w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds()+0.999)))
				writeError(w, http.StatusTooManyRequests,
					"deploy queue for target %q is full (depth %d); retry later", a, s.cfg.QueueDepth)
				return
			}
			queued = append(queued, pending{arch: a, job: j})
		}
	}

	infos := make([]DeploymentInfo, 0, len(queued))
	diskHits := 0
	var deps []*liveDeployment
	for _, pq := range queued {
		var res deployResult
		select {
		case res = <-pq.job.res:
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", r.Context().Err())
			return
		case <-s.baseCtx.Done():
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		if res.err != nil {
			writeError(w, http.StatusInternalServerError, "deploying on %s: %v", pq.arch, res.err)
			return
		}
		ld := &liveDeployment{
			module:            sm.info.ID,
			tenant:            tenant,
			arch:              pq.arch,
			dep:               res.dep,
			regAlloc:          req.RegAlloc,
			forceScalarize:    req.ForceScalarize,
			lazy:              req.Lazy,
			tiering:           req.Tiering,
			promoteCalls:      req.PromoteCalls,
			profile:           req.Profile,
			memLimit:          req.MemLimit,
			runDeadlineMillis: req.RunDeadlineMillis,
		}
		deps = append(deps, ld)
		if res.dep.FromDisk() {
			diskHits++
		}
		info := describe(ld)
		info.ProfileFallback = profileFallback
		infos = append(infos, info)
	}

	// Register the whole batch atomically, so clients never observe half a
	// batch in the deployments listing. The quota reservation converts into
	// the registered machines' live counts here.
	now := time.Now()
	s.mu.Lock()
	for i, ld := range deps {
		ld.lastUsed = now
		s.nextDep++
		ld.id = fmt.Sprintf("d-%06d", s.nextDep)
		infos[i].ID = ld.id
		s.deployments[ld.id] = ld
		s.deployOrder = append(s.deployOrder, ld.id)
		// Journal before the response: once the client has seen the id, a
		// crash and restart must still know the deployment. The compiled
		// image is already on disk (write-through in the engine), so replay
		// re-instantiates without compiling.
		s.appendJournalJSON(journalOpDeploy, deployRecordOf(ld))
	}
	reserved = false
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, DeployResponse{Deployments: infos, DiskHits: diskHits})
}

func (s *Server) handleListDeployments(w http.ResponseWriter, r *http.Request) {
	// Take the list under the lock and describe it outside: describing
	// reads every deployment's image, and runs and deploys wait on s.mu.
	s.mu.Lock()
	live := make([]*liveDeployment, 0, len(s.deployOrder))
	for _, id := range s.deployOrder {
		live = append(live, s.deployments[id])
	}
	s.mu.Unlock()
	out := make([]DeploymentInfo, 0, len(live))
	for _, ld := range live {
		out = append(out, describe(ld))
	}
	writeJSON(w, http.StatusOK, DeployResponse{Deployments: out})
}

// describe reports a deployment as the deploy and listing answers show it.
func describe(ld *liveDeployment) DeploymentInfo {
	compiled, total := ld.dep.MethodCounts()
	return DeploymentInfo{
		ID:                  ld.id,
		Module:              ld.module,
		Target:              string(ld.arch),
		FromCache:           ld.dep.FromCache(),
		FromDisk:            ld.dep.FromDisk(),
		JITSteps:            ld.dep.JITSteps(),
		CompileNanos:        ld.dep.CompileNanos(),
		NativeCodeBytes:     ld.dep.NativeCodeBytes(),
		AnnotationFallbacks: ld.dep.AnnotationFallbacks(),
		Tiering:             ld.dep.TieringEnabled(),
		Lazy:                ld.dep.Lazy(),
		MethodsCompiled:     compiled,
		MethodsTotal:        total,
		MemLimit:            ld.dep.MemLimit(),
		RunDeadlineMillis:   int64(ld.dep.RunDeadline() / time.Millisecond),
	}
}

// RunRequest invokes one entry point with textual scalar arguments (parsed
// against the method signature, like svrun's command line).
type RunRequest struct {
	Entry string   `json:"entry"`
	Args  []string `json:"args,omitempty"`
}

// RunResponse is the result of one invocation.
type RunResponse struct {
	// Value is the integer result; Float the floating-point one. IsFloat
	// says which is meaningful.
	Value   int64   `json:"value"`
	Float   float64 `json:"float"`
	IsFloat bool    `json:"is_float"`
	// Cycles is the simulated cost of this invocation alone.
	Cycles int64  `json:"cycles"`
	Target string `json:"target"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	id := r.PathValue("id")
	s.mu.Lock()
	ld, ok := s.deployments[id]
	if ok {
		// A deployment being run is not idle, and an in-flight invocation
		// pins it against the sweeper (running is checked by evictIdle) —
		// a run that outlasts the TTL must not lose its machine mid-call.
		ld.lastUsed = time.Now()
		ld.running++
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: fmt.Sprintf("unknown deployment %q", id), Class: errClassNotFound})
		return
	}
	defer func() {
		s.mu.Lock()
		ld.running--
		ld.lastUsed = time.Now()
		s.mu.Unlock()
	}()
	var req RunRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("decoding request: %v", err), Class: errClassBadRequest})
		return
	}
	if req.Entry == "" {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: "missing entry point name", Class: errClassBadRequest})
		return
	}
	sig, err := ld.dep.Signature(req.Entry)
	if err != nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: err.Error(), Class: errClassNotFound})
		return
	}
	args, err := sig.ParseArgs(req.Args)
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: err.Error(), Class: errClassBadRequest})
		return
	}

	if f := faultinject.At("server.run"); f != nil {
		if err := f.Apply(); err != nil {
			writeJSON(w, http.StatusInternalServerError,
				errorBody{Error: err.Error(), Class: errClassUnavailable, Retryable: true})
			return
		}
	}

	// The run follows the client: a disconnect (or a bounded shutdown)
	// cancels the simulation between instructions instead of letting it
	// burn the machine for an answer nobody will read.
	ctx, cancel := s.runContext(r)
	defer cancel()

	// Machines are single-threaded devices; concurrent runs on one
	// deployment serialize here (deploy replicas to run in parallel).
	ld.mu.Lock()
	before := ld.dep.Cycles()
	val, err := ld.dep.RunContext(ctx, req.Entry, args...)
	elapsed := ld.dep.Cycles() - before
	ld.mu.Unlock()
	if err != nil {
		class, retryable := classifyRunError(err)
		status := http.StatusUnprocessableEntity
		if class == errClassCancelled {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorBody{
			Error:     fmt.Sprintf("running %s: %v", req.Entry, err),
			Class:     class,
			Retryable: retryable,
		})
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{
		Value:   val.I,
		Float:   val.F,
		IsFloat: sig.ReturnsFloat,
		Cycles:  elapsed,
		Target:  string(ld.arch),
	})
}

// RunBatchRequest invokes one entry point across many deployments — the
// fleet-wide counterpart of /v1/deployments/{id}/run. Address the machines
// either explicitly (Deployments) or by module (every live deployment of
// that module); exactly one of the two must be set.
type RunBatchRequest struct {
	Deployments []string `json:"deployments,omitempty"`
	Module      string   `json:"module,omitempty"`
	Entry       string   `json:"entry"`
	Args        []string `json:"args,omitempty"`
}

// RunBatchResult is one machine's outcome within a batch run. Error is set
// (and the value fields zero) when that machine failed; other machines'
// results are unaffected.
type RunBatchResult struct {
	Deployment string  `json:"deployment"`
	Target     string  `json:"target"`
	Value      int64   `json:"value"`
	Float      float64 `json:"float"`
	IsFloat    bool    `json:"is_float"`
	Cycles     int64   `json:"cycles"`
	Error      string  `json:"error,omitempty"`
	// ErrorClass classifies a failure machine-readably: "not_found" (no
	// such entry point), "bad_request" (arguments), "execution" (the
	// simulation trapped), "cancelled" (client disconnect or shutdown),
	// "resource_exhausted" (the run breached its governor — instruction
	// budget, memory limit or run deadline — or the tenant's in-flight cap
	// shed it) or "unavailable" (the backend holding the machine is
	// unreachable — set by the router). Empty on success.
	ErrorClass string `json:"error_class,omitempty"`
	// Retryable marks failures that may succeed if the item is retried:
	// cancelled runs and unavailable backends, but not traps or bad inputs.
	Retryable bool `json:"retryable,omitempty"`
}

// RunBatchResponse lists per-deployment results in the order the
// deployments were addressed (request order, or registration order when
// selected by module).
type RunBatchResponse struct {
	Results []RunBatchResult `json:"results"`
}

// handleRunBatch fans one invocation out across N machines concurrently.
// Machines still serialize their own runs (they are single-threaded
// devices); the batch buys parallelism across machines, not within one.
// Per-machine failures are reported inline so one broken replica cannot
// hide the rest of the fleet's results.
func (s *Server) handleRunBatch(w http.ResponseWriter, r *http.Request) {
	// One batch is one in-flight unit against the tenant's cap, like one run:
	// the cap bounds concurrent requests, MaxBatchJobs bounds each one's fan-out.
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
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

	// Resolve the fleet and pin every machine against the sweeper for the
	// duration of the batch, like a single run would.
	now := time.Now()
	s.mu.Lock()
	var ids []string
	if req.Module != "" {
		for _, id := range s.deployOrder {
			if s.deployments[id].module == req.Module {
				ids = append(ids, id)
			}
		}
	} else {
		ids = req.Deployments
	}
	lds := make([]*liveDeployment, len(ids))
	var missing string
	for i, id := range ids {
		ld, ok := s.deployments[id]
		if !ok {
			missing = id
			break
		}
		lds[i] = ld
	}
	if missing == "" && len(ids) > s.cfg.MaxBatchJobs {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, "batch of %d runs exceeds the limit of %d", len(ids), s.cfg.MaxBatchJobs)
		return
	}
	if missing == "" {
		for _, ld := range lds {
			ld.lastUsed = now
			ld.running++
		}
	}
	s.mu.Unlock()
	if missing != "" {
		writeError(w, http.StatusNotFound, "unknown deployment %q", missing)
		return
	}
	if len(lds) == 0 {
		writeError(w, http.StatusNotFound, "module %q has no live deployments", req.Module)
		return
	}
	defer func() {
		s.mu.Lock()
		for _, ld := range lds {
			ld.running--
			ld.lastUsed = time.Now()
		}
		s.mu.Unlock()
	}()

	// One shared context for the whole batch: the client disconnecting (or
	// a bounded shutdown) cancels every still-running item.
	ctx, cancel := s.runContext(r)
	defer cancel()

	results := make([]RunBatchResult, len(lds))
	var wg sync.WaitGroup
	for i, ld := range lds {
		wg.Add(1)
		go func(i int, ld *liveDeployment) {
			defer wg.Done()
			res := RunBatchResult{Deployment: ld.id, Target: string(ld.arch)}
			sig, err := ld.dep.Signature(req.Entry)
			if err != nil {
				res.Error = err.Error()
				res.ErrorClass = errClassNotFound
				results[i] = res
				return
			}
			args, err := sig.ParseArgs(req.Args)
			if err != nil {
				res.Error = err.Error()
				res.ErrorClass = errClassBadRequest
				results[i] = res
				return
			}
			if f := faultinject.At("server.run"); f != nil {
				if err := f.Apply(); err != nil {
					res.Error = err.Error()
					res.ErrorClass = errClassUnavailable
					res.Retryable = true
					results[i] = res
					return
				}
			}
			ld.mu.Lock()
			before := ld.dep.Cycles()
			val, err := ld.dep.RunContext(ctx, req.Entry, args...)
			res.Cycles = ld.dep.Cycles() - before
			ld.mu.Unlock()
			if err != nil {
				res.Error = err.Error()
				res.ErrorClass, res.Retryable = classifyRunError(err)
			} else {
				res.Value = val.I
				res.Float = val.F
				res.IsFloat = sig.ReturnsFloat
			}
			results[i] = res
		}(i, ld)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, RunBatchResponse{Results: results})
}

// ProfileResponse is the payload of the profile-export endpoint: the
// deployment's observed execution profile as a versioned annotation value
// (base64 in JSON), ready to be passed back verbatim in
// DeployRequest.Profile to warm a later deployment.
type ProfileResponse struct {
	ID      string `json:"id"`
	Module  string `json:"module"`
	Target  string `json:"target"`
	Profile []byte `json:"profile"`
	// Bytes is the encoded profile size (the annotation's transport cost).
	Bytes int `json:"bytes"`
}

// handleProfile exports the observed execution profile of one tiered
// deployment.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ld, ok := s.deployments[id]
	if ok {
		ld.lastUsed = time.Now()
		ld.running++
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown deployment %q", id)
		return
	}
	defer func() {
		s.mu.Lock()
		ld.running--
		s.mu.Unlock()
	}()
	if !ld.dep.TieringEnabled() {
		writeError(w, http.StatusConflict, "deployment %q is not tiered (deploy with \"tiering\": true)", id)
		return
	}
	// The snapshot reads the machine's live counters; serialize against runs
	// like an invocation would.
	ld.mu.Lock()
	p := ld.dep.ExportProfile()
	ld.mu.Unlock()
	data, err := splitvm.EncodeProfile(p)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding profile: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ProfileResponse{
		ID:      id,
		Module:  ld.module,
		Target:  string(ld.arch),
		Profile: data,
		Bytes:   len(data),
	})
}

// PoolStats describes one per-target worker pool.
type PoolStats struct {
	Target   string `json:"target"`
	Workers  int    `json:"workers"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
}

// StatsResponse is the /v1/stats payload: code-cache effectiveness,
// compilation outcomes (including annotation-fallback compilations), plus
// the server's own registries and backpressure counters.
type StatsResponse struct {
	Cache splitvm.CacheStats `json:"cache"`
	// Compile counts completed JIT compilations and — in
	// fallback_compilations — how many of them had at least one annotation
	// section degrade to online-only compilation (uploads from a newer
	// offline toolchain than this server understands). The per-deployment
	// annotation_fallbacks field counts sections instead, so the two units
	// differ deliberately.
	Compile splitvm.CompileStats `json:"compile"`
	// Modules counts stored uploads; DecodedModules those held decoded,
	// because a live or pending deployment uses them.
	Modules        int `json:"modules"`
	DecodedModules int `json:"decoded_modules"`
	Deployments    int `json:"deployments"`
	// Rejected counts batches refused with 429 for queue saturation since the
	// server started; QuotaRejected counts batches refused for exceeding a
	// per-module or per-tenant deployment quota.
	Rejected      int64 `json:"rejected"`
	QuotaRejected int64 `json:"quota_rejected"`
	// DeploymentsEvicted counts idle deployments dropped by the -deploy-ttl
	// sweeper since the server started (always zero with TTL disabled).
	DeploymentsEvicted int64       `json:"deployments_evicted"`
	Pools              []PoolStats `json:"pools"`
	// RunsShed counts run and run-batch requests shed with 429 by the
	// per-tenant in-flight cap since the server started (always zero with
	// -max-inflight-per-tenant unset).
	RunsShed int64 `json:"runs_shed"`
	// Guard sums the panic-firewall activity of the live deployments:
	// quarantines (runs that ended in a recovered guest panic) and rebuilds
	// (machines re-instantiated from their cached image afterwards).
	Guard splitvm.GuardStats `json:"guard"`
	// TieredDeployments counts live deployments with tiering enabled, and
	// Tier sums their tiering activity (promotions, fused pairs,
	// profile-guided register allocation validations, warm imports).
	TieredDeployments int               `json:"tiered_deployments"`
	Tier              splitvm.TierStats `json:"tier"`
	// Latency maps instrumented routes (upload, deploy, run, run_batch) to
	// their request-latency distributions; routes with no traffic yet are
	// omitted.
	Latency map[string]LatencySummary `json:"latency,omitempty"`
	// Journal reports the deployment journal's persistence and startup-
	// replay counters; omitted when the server runs without one.
	Journal *JournalStatsResponse `json:"journal,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := StatsResponse{Cache: s.eng.CacheStats(), Compile: s.eng.CompileStats()}
	s.mu.Lock()
	st.Modules = len(s.modules)
	for _, sm := range s.moduleOrder {
		if sm.m != nil {
			st.DecodedModules++
		}
	}
	st.Deployments = len(s.deployments)
	st.Rejected = s.rejected
	st.QuotaRejected = s.quotaRejected
	st.DeploymentsEvicted = s.evicted
	st.RunsShed = s.adm.shedCount()
	live := make([]*liveDeployment, 0, len(s.deployments))
	for _, ld := range s.deployments {
		live = append(live, ld)
	}
	for a, p := range s.pools {
		st.Pools = append(st.Pools, PoolStats{
			Target:   string(a),
			Workers:  s.cfg.WorkersPerTarget,
			QueueLen: len(p.jobs),
			QueueCap: cap(p.jobs),
		})
	}
	s.mu.Unlock()
	// Tier and guard counters read live machine state, so they are aggregated
	// outside the registry lock, serializing with runs per deployment only.
	for _, ld := range live {
		ld.mu.Lock()
		gs := ld.dep.GuardStats()
		tiered := ld.dep.TieringEnabled()
		var ts splitvm.TierStats
		if tiered {
			ts = ld.dep.TierStats()
		}
		ld.mu.Unlock()
		st.Guard.Quarantines += gs.Quarantines
		st.Guard.Rebuilds += gs.Rebuilds
		if !tiered {
			continue
		}
		st.TieredDeployments++
		st.Tier.Promotions += ts.Promotions
		st.Tier.PromoteCallsSum += ts.PromoteCallsSum
		st.Tier.FusedPairs += ts.FusedPairs
		st.Tier.ReallocChecked += ts.ReallocChecked
		st.Tier.ReallocConfirmed += ts.ReallocConfirmed
		st.Tier.ReallocDiverged += ts.ReallocDiverged
		st.Tier.WarmSeeded += ts.WarmSeeded
		st.Tier.WarmDegraded += ts.WarmDegraded
	}
	sort.Slice(st.Pools, func(i, j int) bool { return st.Pools[i].Target < st.Pools[j].Target })
	st.Latency = s.lat.summaries()
	if s.jnl != nil {
		s.mu.Lock()
		st.Journal = &JournalStatsResponse{
			Journal:             s.jnl.Stats(),
			ReplayedModules:     s.replayedModules,
			ReplayedDeployments: s.replayedDeployments,
			ReplayFailed:        s.replayFailed,
			AppendErrors:        s.journalAppendErrs,
		}
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, st)
}
