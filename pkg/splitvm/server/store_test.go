package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/pkg/splitvm"
)

// TestModuleDecodedWhileDeployed: an uploaded module is held decoded only
// while the engine caches an image of it, whether or not a deployment is
// live. A deploy after eviction hits the code cache and runs exactly as the
// first one did; clearing the cache drops the decoded module.
func TestModuleDecodedWhileDeployed(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := upload(t, ts, encodeModule(t, sumsqSource))
	decoded := func(want int) {
		t.Helper()
		if st := getStats(t, ts); st.Modules != 1 || st.DecodedModules != want {
			t.Fatalf("stats: %d modules, %d decoded; want 1, %d", st.Modules, st.DecodedModules, want)
		}
	}
	decoded(0)

	deployAndRun := func() (DeploymentInfo, RunResponse) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/deploy", DeployRequest{Module: id, Targets: []string{"x86-sse"}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("deploy: status %d: %s", resp.StatusCode, body)
		}
		info := decodeJSON[DeployResponse](t, resp.Body).Deployments[0]
		run := postJSON(t, ts.URL+"/v1/deployments/"+info.ID+"/run", RunRequest{Entry: "sumsq", Args: []string{"12"}})
		defer run.Body.Close()
		if run.StatusCode != http.StatusOK {
			t.Fatalf("run: status %d", run.StatusCode)
		}
		return info, decodeJSON[RunResponse](t, run.Body)
	}
	first, want := deployAndRun()
	if first.FromCache {
		t.Fatal("the first deploy came from the cache")
	}
	decoded(1)
	if n := srv.evictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	decoded(1) // the image is still cached

	again, got := deployAndRun()
	if !again.FromCache {
		t.Error("the deploy after eviction missed the code cache")
	}
	if got != want {
		t.Errorf("after eviction the run answered %+v, want %+v", got, want)
	}
	decoded(1)
	srv.eng.ClearCache()
	decoded(0)
}

// TestDeploysRaceEviction races deploy batches of one module against a
// loop that evicts every idle deployment, under -race in CI. A deploy
// whose module was dropped between its reservation and its pool job would
// fail; every one must succeed, and at the end the module's count of live
// deployments matches the registry.
func TestDeploysRaceEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := upload(t, ts, encodeModule(t, sumsqSource))

	done := make(chan struct{})
	var evictor sync.WaitGroup
	evictor.Add(1)
	go func() {
		defer evictor.Done()
		for {
			select {
			case <-done:
				return
			default:
				srv.evictIdle(time.Now().Add(time.Hour))
			}
		}
	}()
	batch, err := json.Marshal(DeployRequest{Module: id, Targets: []string{"x86-sse", "mcu"}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/v1/deploy", "application/json", bytes.NewReader(batch))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusCreated {
					body, _ := io.ReadAll(resp.Body)
					t.Errorf("deploy: status %d: %s", resp.StatusCode, body)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(done)
	evictor.Wait()

	srv.mu.Lock()
	sm, live := srv.modules[id], 0
	for _, ld := range srv.deployments {
		if ld.module == id {
			live++
		}
	}
	if sm.live != live {
		t.Errorf("module counts %d live deployments, registry holds %d", sm.live, live)
	}
	srv.mu.Unlock()
	srv.evictIdle(time.Now().Add(time.Hour))
	if st := getStats(t, ts); st.Deployments != 0 || st.DecodedModules != 1 {
		t.Errorf("after the last eviction: %d deployments, %d decoded modules; want 0, 1 (its images stay cached)", st.Deployments, st.DecodedModules)
	}
}

// countLoads makes loadModule count its decodes per module id until the
// test ends.
func countLoads(t *testing.T) map[string]int {
	counts := make(map[string]int)
	var mu sync.Mutex
	orig := loadModule
	loadModule = func(e *splitvm.Engine, data []byte) (*splitvm.Module, error) {
		m, err := orig(e, data)
		if err == nil {
			mu.Lock()
			counts[m.Hash()]++
			mu.Unlock()
		}
		return m, err
	}
	t.Cleanup(func() { loadModule = orig })
	return counts
}

// TestJournalReplayDecodesOnce: replay decodes every journaled module once.
// It keeps decoded only the one its 40 restored deployments use, and
// restores them from the disk cache with no compilation. The module
// listing reads the same after the restart.
func TestJournalReplayDecodesOnce(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	journalPath := filepath.Join(dir, "svd.journal")
	listing := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/v1/modules")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	srv1, ts1 := journaledServer(t, cacheDir, journalPath)
	id := upload(t, ts1, encodeModule(t, sumsqSource))
	idle := upload(t, ts1, genModules(t, 2, 1)[0])
	resp := postJSON(t, ts1.URL+"/v1/deploy", DeployRequest{Module: id, Targets: []string{"x86-sse"}, Replicas: 40})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	before := listing(ts1.URL)
	ts1.Close() // no graceful shutdown, like a SIGKILL
	_ = srv1

	loads := countLoads(t)
	srv2, ts2 := journaledServer(t, cacheDir, journalPath)
	defer func() { ts2.Close(); srv2.Close() }()
	if loads[id] != 1 || loads[idle] != 1 {
		t.Errorf("replay decoded the deployed module %d times and the idle one %d; want 1 and 1", loads[id], loads[idle])
	}
	st := getStats(t, ts2)
	if st.Deployments != 40 || st.Modules != 2 || st.DecodedModules != 1 {
		t.Errorf("restored %d deployments, %d modules, %d decoded; want 40, 2, 1", st.Deployments, st.Modules, st.DecodedModules)
	}
	if st.Compile.Compilations != 0 {
		t.Errorf("replay compiled %d images; want 0 (disk cache)", st.Compile.Compilations)
	}
	if after := listing(ts2.URL); after != before {
		t.Errorf("module listing changed across the restart:\n%s\n%s", before, after)
	}
}
