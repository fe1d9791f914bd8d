package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// listConcurrently reads GET /v1/deployments in a loop until the returned
// stop function is called; stop waits for the loop to end.
func listConcurrently(t *testing.T, url string) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(url + "/v1/deployments")
			if err != nil {
				t.Error(err)
				return
			}
			decodeJSON[DeployResponse](t, resp.Body)
			resp.Body.Close()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestListDeploymentsBesideLazyFirstRuns: a lazy machine's first run
// resolves its methods into the machine's own program while GET
// /v1/deployments reports every deployment's native code size. The listing
// must read the images, not that map: under -race the old reading was a
// reported race, in production a fatal concurrent map iteration and write.
func TestListDeploymentsBesideLazyFirstRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const modules = 40
	var ids []string
	for i := 0; i < modules; i++ {
		src := fmt.Sprintf(`
i64 scale(i32 n) { return (i64) (n * %d); }
i64 twice(i32 n) { return scale(n) + scale(n + 1); }
i64 entry(i32 n) { return twice(n) + scale(n); }
`, i+2)
		mod := upload(t, ts, encodeModule(t, src))
		resp := postJSON(t, ts.URL+"/v1/deploy", DeployRequest{Module: mod, Targets: []string{"mcu"}, Lazy: true})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("deploy %d: status %d", i, resp.StatusCode)
		}
		dr := decodeJSON[DeployResponse](t, resp.Body)
		resp.Body.Close()
		ids = append(ids, dr.Deployments[0].ID)
	}

	stop := listConcurrently(t, ts.URL)
	for i, id := range ids {
		resp := postJSON(t, ts.URL+"/v1/deployments/"+id+"/run", RunRequest{Entry: "entry", Args: []string{"3"}})
		rr := decodeJSON[RunResponse](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s: status %d", id, resp.StatusCode)
		}
		// scale(3) + scale(4) + scale(3) at factor i+2.
		if want := int64(10 * (i + 2)); rr.Value != want {
			t.Fatalf("run %s = %d, want %d", id, rr.Value, want)
		}
	}
	stop()

	resp, err := http.Get(ts.URL + "/v1/deployments")
	if err != nil {
		t.Fatal(err)
	}
	dr := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	for _, d := range dr.Deployments {
		if d.MethodsCompiled != 3 || d.NativeCodeBytes == 0 {
			t.Errorf("%s after its first run: %d of %d methods compiled, %d native bytes",
				d.ID, d.MethodsCompiled, d.MethodsTotal, d.NativeCodeBytes)
		}
	}
}

// TestListDeploymentsBesideQuarantineRebuild: the first run after a guest
// panic replaces the deployment's machine while GET /v1/deployments
// reports whether each deployment tiers. The listing must read the
// deployment's configuration, not the machine being replaced.
func TestListDeploymentsBesideQuarantineRebuild(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var ids []string
	for i := 0; i < 20; i++ {
		ids = append(ids, deployGoverned(t, ts, 0, 0))
	}
	if err := faultinject.Arm("sim.panic:error"); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		runStatus(t, ts.URL+"/v1/deployments/"+id+"/run", "", RunRequest{Entry: "sumsq", Args: []string{"10"}})
	}
	faultinject.Disarm()

	stop := listConcurrently(t, ts.URL)
	for _, id := range ids {
		if status, _, _ := runStatus(t, ts.URL+"/v1/deployments/"+id+"/run", "", RunRequest{Entry: "sumsq", Args: []string{"10"}}); status != http.StatusOK {
			t.Errorf("run %s after its quarantine: status %d, want 200", id, status)
		}
	}
	stop()
	if st := getStats(t, ts); st.Guard.Quarantines != int64(len(ids)) || st.Guard.Rebuilds != int64(len(ids)) {
		t.Errorf("guard stats = %+v, want %d quarantines and rebuilds", st.Guard, len(ids))
	}
}
