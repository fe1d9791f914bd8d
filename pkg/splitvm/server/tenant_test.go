package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTenantTablesEmptyWhenIdle: the X-Tenant header is client-controlled,
// so the per-tenant tables must keep only tenants with work in flight. 500
// tenant names each deploy one machine, which is then evicted, and 500
// gated runs under distinct tenants complete; both tables end empty.
func TestTenantTablesEmptyWhenIdle(t *testing.T) {
	const tenants = 500
	srv, ts := newTestServer(t, Config{MaxInflightPerTenant: 1, MaxDeploymentsPerTenant: 1})
	id := upload(t, ts, encodeModule(t, sumsqSource))
	deps := make([]string, tenants)
	for i := range deps {
		resp := postJSONTenant(t, ts.URL+"/v1/deploy", fmt.Sprintf("deploy-%d", i), DeployRequest{Module: id, Targets: []string{"x86-sse"}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("deploy %d: status %d", i, resp.StatusCode)
		}
		deps[i] = decodeJSON[DeployResponse](t, resp.Body).Deployments[0].ID
		resp.Body.Close()
	}

	body := []byte(`{"entry":"sumsq","args":["7"]}`)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < tenants; i += 4 {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/deployments/"+deps[i]+"/run", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Tenant", fmt.Sprintf("run-%d", i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("run %d: status %d", i, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := srv.evictIdle(time.Now().Add(time.Hour)); n != tenants {
		t.Fatalf("evicted %d deployments, want %d", n, tenants)
	}

	srv.mu.Lock()
	quota := len(srv.byTenant)
	srv.mu.Unlock()
	srv.adm.mu.Lock()
	gates := len(srv.adm.gates)
	srv.adm.mu.Unlock()
	if quota != 0 || gates != 0 {
		t.Errorf("idle server keeps %d tenant quota entries and %d admission gates; want 0 and 0", quota, gates)
	}
}

// TestAdmissionGateDropRace: requests of one tenant come and go while its
// gate is dropped and re-made between them. The cap must hold throughout
// (a request admitted by a gate that was already dropped would run beside
// one admitted by its successor), and the gate goes with the last request.
func TestAdmissionGateDropRace(t *testing.T) {
	const capacity = 2
	a := newAdmission(capacity)
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			if g%2 == 1 { // a deadline sheds at once instead of queueing
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Minute)
				defer cancel()
			}
			for i := 0; i < 200; i++ {
				release, ok := a.acquire(ctx, "t")
				if !ok {
					continue
				}
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				inflight.Add(-1)
				release()
			}
		}(g)
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Errorf("%d requests of one tenant ran at once; the cap is %d", p, capacity)
	}
	if n := len(a.gates); n != 0 {
		t.Errorf("%d gates left after every request finished; want 0", n)
	}
}
