package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/splitvm"
)

// newTestFleet builds n backend servers plus a router in front, all wired
// through httptest. Active health probing is disabled so tests control
// backend liveness by closing the httptest servers.
func newTestFleet(t *testing.T, n int, cfg Config) (*Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	return newTestFleetCfg(t, n, cfg, RouterConfig{})
}

// newTestFleetCfg is newTestFleet with router knobs (breaker thresholds,
// deadlines, probing) under test control. rcfg.Backends is overwritten; a
// zero HealthInterval disables active probing.
func newTestFleetCfg(t *testing.T, n int, cfg Config, rcfg RouterConfig) (*Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range backends {
		srv := New(splitvm.New(), cfg)
		ts := httptest.NewServer(srv)
		backends[i] = ts
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
	}
	rcfg.Backends = urls
	if rcfg.HealthInterval == 0 {
		rcfg.HealthInterval = -1
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(func() {
		front.Close()
		rt.Close()
	})
	return rt, front, backends
}

func TestRouterEndToEnd(t *testing.T) {
	rt, front, _ := newTestFleet(t, 2, Config{})
	id := upload(t, front, encodeModule(t, sumsqSource))

	// Deploy through the router: IDs come back namespaced by backend.
	resp := postJSON(t, front.URL+"/v1/deploy", DeployRequest{Module: id, Targets: []string{"x86-sse", "mcu"}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: status %d", resp.StatusCode)
	}
	dr := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	if len(dr.Deployments) != 2 {
		t.Fatalf("%d deployments, want 2", len(dr.Deployments))
	}
	owner := rt.ring.owner(id)
	for _, d := range dr.Deployments {
		if want := fmt.Sprintf("b%d.", owner); !strings.HasPrefix(d.ID, want) {
			t.Errorf("deployment %s not namespaced to ring owner %s", d.ID, want)
		}
	}

	// Run through the router by namespaced ID.
	resp = postJSON(t, front.URL+"/v1/deployments/"+dr.Deployments[0].ID+"/run",
		RunRequest{Entry: "sumsq", Args: []string{"100"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}
	rr := decodeJSON[RunResponse](t, resp.Body)
	resp.Body.Close()
	if rr.Value != 338350 {
		t.Errorf("run value = %d, want 338350", rr.Value)
	}

	// Run-batch by module fans out and returns namespaced IDs.
	resp = postJSON(t, front.URL+"/v1/run-batch", RunBatchRequest{Module: id, Entry: "sumsq", Args: []string{"10"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run-batch: status %d", resp.StatusCode)
	}
	br := decodeJSON[RunBatchResponse](t, resp.Body)
	resp.Body.Close()
	if len(br.Results) != 2 {
		t.Fatalf("%d batch results, want 2", len(br.Results))
	}
	for _, res := range br.Results {
		if res.Value != 385 || res.Error != "" {
			t.Errorf("batch result %+v", res)
		}
		if !strings.Contains(res.Deployment, ".") {
			t.Errorf("batch result ID %q not namespaced", res.Deployment)
		}
	}

	// Listings merge the fleet.
	resp, err := http.Get(front.URL + "/v1/deployments")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	if len(list.Deployments) != 2 {
		t.Errorf("merged listing has %d deployments, want 2", len(list.Deployments))
	}
	resp, err = http.Get(front.URL + "/v1/modules")
	if err != nil {
		t.Fatal(err)
	}
	mods := decodeJSON[struct {
		Modules []ModuleInfo `json:"modules"`
	}](t, resp.Body)
	resp.Body.Close()
	if len(mods.Modules) != 1 || mods.Modules[0].ID != id {
		t.Errorf("merged module listing = %+v, want just %s (replicated uploads dedup)", mods.Modules, id)
	}

	// Aggregated stats name both backends and the router's own counters.
	resp, err = http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[RouterStatsResponse](t, resp.Body)
	resp.Body.Close()
	if len(st.Backends) != 2 {
		t.Errorf("stats cover %d backends, want 2", len(st.Backends))
	}
	if len(st.Router.Backends) != 2 || st.Router.Fanouts < 2 {
		t.Errorf("router stats = %+v", st.Router)
	}
}

func TestRouterUploadReplication(t *testing.T) {
	_, front, backends := newTestFleet(t, 3, Config{})
	id := upload(t, front, encodeModule(t, sumsqSource))

	// The module must be deployable directly on every backend: the ring may
	// send overflow there under bounded load.
	for i, b := range backends {
		resp := postJSON(t, b.URL+"/v1/deploy", DeployRequest{Module: id, Targets: []string{"mcu"}})
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("backend %d cannot deploy the replicated module: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestRouterRetriesNextReplicaOnBackendDeath(t *testing.T) {
	// BreakerFailures:1 restores the old hair-trigger ejection this test
	// pins; hysteresis itself is covered by TestRouterBreakerHysteresis.
	rt, front, backends := newTestFleetCfg(t, 2, Config{}, RouterConfig{BreakerFailures: 1})
	id := upload(t, front, encodeModule(t, sumsqSource))

	// Kill the module's ring owner; deploys must fail over clockwise.
	owner := rt.ring.owner(id)
	backends[owner].CloseClientConnections()
	backends[owner].Close()

	resp := postJSON(t, front.URL+"/v1/deploy", DeployRequest{Module: id, Targets: []string{"x86-sse"}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("failover deploy: status %d", resp.StatusCode)
	}
	dr := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	survivor := 1 - owner
	if want := fmt.Sprintf("b%d.", survivor); !strings.HasPrefix(dr.Deployments[0].ID, want) {
		t.Errorf("failover landed on %s, want prefix %s", dr.Deployments[0].ID, want)
	}
	st := rt.Stats()
	if st.Retries == 0 {
		t.Error("no retry was counted for the failover")
	}
	if st.Backends[owner].Healthy {
		t.Error("dead backend still marked healthy")
	}

	// The router's health endpoint still reports serviceable.
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("router healthz = %d with one live backend", hresp.StatusCode)
	}
	hresp.Body.Close()
}

func TestRouterRunUnknownNamespace(t *testing.T) {
	_, front, _ := newTestFleet(t, 2, Config{})
	for _, id := range []string{"d-000001", "b9.d-000001", "nope.d-000001"} {
		resp := postJSON(t, front.URL+"/v1/deployments/"+id+"/run", RunRequest{Entry: "sumsq", Args: []string{"1"}})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("run %q: status %d, want 404", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestRouterConcurrentTraffic(t *testing.T) {
	_, front, _ := newTestFleet(t, 3, Config{})
	id := upload(t, front, encodeModule(t, sumsqSource))
	resp := postJSON(t, front.URL+"/v1/deploy", DeployRequest{Module: id, Targets: []string{"x86-sse"}, Replicas: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: status %d", resp.StatusCode)
	}
	dr := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				dep := dr.Deployments[(g+i)%len(dr.Deployments)]
				resp := postJSON(t, front.URL+"/v1/deployments/"+dep.ID+"/run",
					RunRequest{Entry: "sumsq", Args: []string{"20"}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: run status %d", g, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
}

// evictingFleet is a two-backend fleet whose backends evict a deployment
// 200 ms after its last run and whose router probes (and reconciles) every
// 20 ms.
func evictingFleet(t *testing.T) (*Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	return newTestFleetCfg(t, 2, Config{DeployTTL: 200 * time.Millisecond, DeploySweepInterval: 10 * time.Millisecond},
		RouterConfig{HealthInterval: 20 * time.Millisecond})
}

// waitRouterTables polls the router's gauges until it holds want recipes
// and aliases.
func waitRouterTables(t *testing.T, rt *Router, deployments, aliases int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rt.Stats()
		if st.Deployments == deployments && st.Aliases == aliases {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("router holds %d recipes and %d aliases, want %d and %d", st.Deployments, st.Aliases, deployments, aliases)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// deployVia deploys through the router and returns the namespaced ids.
func deployVia(t *testing.T, front *httptest.Server, req DeployRequest) []string {
	t.Helper()
	resp := postJSON(t, front.URL+"/v1/deploy", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: status %d", resp.StatusCode)
	}
	var ids []string
	for _, d := range decodeJSON[DeployResponse](t, resp.Body).Deployments {
		ids = append(ids, d.ID)
	}
	return ids
}

// runSumsq runs sumsq(3) on id through the router and returns the status.
func runSumsq(t *testing.T, front *httptest.Server, id string) int {
	t.Helper()
	code, _, _ := runStatus(t, front.URL+"/v1/deployments/"+id+"/run", "", RunRequest{Entry: "sumsq", Args: []string{"3"}})
	return code
}

// TestRouterForgetsEvictedDeployments: once the backends' TTL sweepers
// evict every deployment, the router's health probes drop every recipe.
// An evicted id still answers the backend's 404, and when its backend dies
// the router has nothing to fail it over with: the deployment stays gone.
func TestRouterForgetsEvictedDeployments(t *testing.T) {
	rt, front, backends := evictingFleet(t)
	mod := upload(t, front, encodeModule(t, sumsqSource))
	ids := deployVia(t, front, DeployRequest{Module: mod, Targets: []string{"x86-sse", "mcu"}, Replicas: 2})
	if st := rt.Stats(); st.Deployments != len(ids) {
		t.Fatalf("router holds %d recipes after deploying %d", st.Deployments, len(ids))
	}
	waitRouterTables(t, rt, 0, 0)

	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	served := decodeJSON[RouterStatsResponse](t, resp.Body)
	resp.Body.Close()
	if served.Router.Deployments != 0 || served.Router.Aliases != 0 {
		t.Errorf("/v1/stats router gauges = %d recipes, %d aliases, want 0 and 0", served.Router.Deployments, served.Router.Aliases)
	}
	if got := runSumsq(t, front, ids[0]); got != http.StatusNotFound {
		t.Errorf("run of an evicted deployment: status %d, want 404", got)
	}

	b, _, _ := rt.splitDeployID(ids[0])
	backends[b].CloseClientConnections()
	backends[b].Close()
	if got := runSumsq(t, front, ids[0]); got != http.StatusBadGateway {
		t.Errorf("run of an evicted deployment on a dead backend: status %d, want 502", got)
	}
	if st := rt.Stats(); st.FailoverRedeploys != 0 || st.Deployments != 0 {
		t.Errorf("an evicted deployment was re-created: %+v", st)
	}
}

// TestRouterForgetsAliasWithItsChainEnd: a failover leaves an alias from
// the dead id to its replacement; when the replacement is evicted, the
// router forgets both, and the old id no longer reaches anything.
func TestRouterForgetsAliasWithItsChainEnd(t *testing.T) {
	rt, front, backends := evictingFleet(t)
	mod := upload(t, front, encodeModule(t, sumsqSource))
	id := deployVia(t, front, DeployRequest{Module: mod, Targets: []string{"mcu"}})[0]
	owner, _, _ := rt.splitDeployID(id)
	backends[owner].CloseClientConnections()
	backends[owner].Close()

	if got := runSumsq(t, front, id); got != http.StatusOK {
		t.Fatalf("run after backend death: status %d, want 200 via failover", got)
	}
	if st := rt.Stats(); st.Failovers != 1 || st.Deployments != 1 || st.Aliases != 1 {
		t.Fatalf("after the failover: %+v, want one failover, recipe and alias", st)
	}
	waitRouterTables(t, rt, 0, 0)
	if got := runSumsq(t, front, id); got != http.StatusBadGateway {
		t.Errorf("run of the old id after its replacement was evicted: status %d, want 502", got)
	}
	if st := rt.Stats(); st.FailoverRedeploys != 1 {
		t.Errorf("the evicted replacement was re-created: %d redeploys, want 1", st.FailoverRedeploys)
	}
}

// TestRouterKeepsRecipeRecordedDuringListing: a deployment recorded while
// a reconciling listing is in flight is absent from that listing, and its
// recipe must survive it.
func TestRouterKeepsRecipeRecordedDuringListing(t *testing.T) {
	srv := New(splitvm.New(), Config{})
	listed, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/deployments" {
			srv.ServeHTTP(w, r)
			return
		}
		// Take the listing, then hold the answer until the test has
		// recorded another deployment.
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		once.Do(func() {
			close(listed)
			<-release
		})
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(func() {
		backend.Close()
		srv.Close()
	})
	rt, err := NewRouter(RouterConfig{Backends: []string{backend.URL}, HealthInterval: -1, HealthTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(func() {
		front.Close()
		rt.Close()
	})
	mod := upload(t, front, encodeModule(t, sumsqSource))
	first := deployVia(t, front, DeployRequest{Module: mod, Targets: []string{"mcu"}})[0]

	probed := make(chan struct{})
	go func() {
		rt.probeAll()
		close(probed)
	}()
	<-listed
	second := deployVia(t, front, DeployRequest{Module: mod, Targets: []string{"mcu"}})[0]
	close(release)
	<-probed

	if st := rt.Stats(); st.Deployments != 2 {
		t.Fatalf("router holds %d recipes after a listing without %s, want 2", st.Deployments, second)
	}
	// The next listing shows both; nothing is dropped.
	rt.probeAll()
	if st := rt.Stats(); st.Deployments != 2 {
		t.Fatalf("router holds %d recipes for %s and %s, want 2", st.Deployments, first, second)
	}
}

// TestRingBalance: 64 vnodes per backend must split the keyspace within a
// reasonable band (no backend owning more than ~2× its fair share).
// TestDecodeDeploymentIDs: the router reads a listing's ids one entry at a
// time, whatever other keys the answer carries, and rejects an answer
// without a deployment list or cut short, so reconcile drops nothing on it.
func TestDecodeDeploymentIDs(t *testing.T) {
	cases := []struct {
		body string
		want []string // nil: an error
	}{
		{`{"deployments":[{"id":"d-000001","target":"mcu"},{"module":"m","id":"d-000007"}],"disk_hits":0}`, []string{"d-000001", "d-000007"}},
		{`{"disk_hits":2,"deployments":[]}`, []string{}},
		{`{"deployments":null,"disk_hits":0}`, nil},
		{`{"disk_hits":0}`, nil},
		{`{"deployments":[{"id":"d-000001"},{"id":"d-0`, nil},
		{`[]`, nil},
	}
	for _, c := range cases {
		live, err := decodeDeploymentIDs(json.NewDecoder(strings.NewReader(c.body)))
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: decoded %v, want an error", c.body, live)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.body, err)
			continue
		}
		if len(live) != len(c.want) {
			t.Errorf("%s: decoded %v, want %v", c.body, live, c.want)
		}
		for _, id := range c.want {
			if !live[id] {
				t.Errorf("%s: %s missing from %v", c.body, id, live)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	const backends, keys = 4, 4000
	r := newHashRing(backends)
	counts := make([]int, backends)
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("module-%d", i))]++
	}
	fair := keys / backends
	for b, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("backend %d owns %d of %d keys (fair share %d)", b, c, keys, fair)
		}
	}
}

// TestRingConsistency is the acceptance property: growing the fleet from N
// to N+1 backends remaps only about 1/(N+1) of the module hashes.
func TestRingConsistency(t *testing.T) {
	const keys = 10000
	for _, n := range []int{2, 4, 8} {
		before := newHashRing(n)
		after := newHashRing(n + 1)
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("%064x", i) // shaped like module hashes
			if before.owner(key) != after.owner(key) {
				moved++
			}
		}
		want := float64(keys) / float64(n+1)
		// Allow generous slack: vnode placement is random-ish, but moving
		// 2× the ideal fraction (or keys moving between surviving backends)
		// would mean the hash is not consistent.
		if got := float64(moved); got > 2*want {
			t.Errorf("%d→%d backends moved %d/%d keys, want ≈%.0f", n, n+1, moved, keys, want)
		}
		// Every moved key must have moved TO the new backend — keys never
		// shuffle between surviving replicas.
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("%064x", i)
			if b, a := before.owner(key), after.owner(key); b != a && a != n {
				t.Fatalf("key %d moved %d→%d, not to the new backend %d", i, b, a, n)
			}
		}
	}
}

// TestRingBoundedLoad: an overloaded owner sheds traffic clockwise; an idle
// ring always uses the pure owner.
func TestRingBoundedLoad(t *testing.T) {
	r := newHashRing(3)
	healthy := []bool{true, true, true}
	key := "some-module-hash"
	owner := r.owner(key)

	if got := r.pick(key, healthy, []int64{0, 0, 0}, 1.25); got != owner {
		t.Errorf("idle pick = %d, want owner %d", got, owner)
	}

	// Pile load onto the owner: the pick must move to the next replica on
	// the walk, and that replica must be deterministic.
	load := []int64{0, 0, 0}
	load[owner] = 100
	next := r.walk(key)[1]
	for i := 0; i < 5; i++ {
		if got := r.pick(key, healthy, load, 1.25); got != next {
			t.Fatalf("overloaded pick = %d, want next replica %d", got, next)
		}
	}

	// Unhealthy owner is skipped even when idle.
	healthy[owner] = false
	if got := r.pick(key, healthy, []int64{0, 0, 0}, 1.25); got == owner {
		t.Error("pick chose an unhealthy owner")
	}
	// No healthy backend → -1.
	if got := r.pick(key, []bool{false, false, false}, []int64{0, 0, 0}, 1.25); got != -1 {
		t.Errorf("pick with dead fleet = %d, want -1", got)
	}
}
