package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/pkg/splitvm"
)

// genModules compiles n distinct modules of the given number of methods
// offline and returns their encoded streams. The salt in every method's
// constants makes each module, and so each id, distinct.
func genModules(tb testing.TB, methods, n int) [][]byte {
	tb.Helper()
	offline := splitvm.New()
	out := make([][]byte, n)
	for salt := range out {
		var src strings.Builder
		for i := 0; i < methods; i++ {
			fmt.Fprintf(&src, "i64 m%d(i32 n) { i64 s = %d; for (i32 i = 0; i < n; i++) { s = s + (i64) (i * %d); } return s; }\n",
				i, salt, i+1)
		}
		m, err := offline.Compile(src.String(), splitvm.WithModuleName(fmt.Sprintf("fp%d", salt)))
		if err != nil {
			tb.Fatal(err)
		}
		out[salt] = m.Encoded()
	}
	return out
}

// serve sends one request straight to the server's handler and fails
// unless it answers want.
func serve(tb testing.TB, srv *Server, method, path string, body []byte, want int) *httptest.ResponseRecorder {
	tb.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != want {
		tb.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body)
	}
	return rec
}

// uploadDirect uploads one module through the handler and returns its id.
func uploadDirect(tb testing.TB, srv *Server, data []byte) string {
	tb.Helper()
	var info ModuleInfo
	if err := json.Unmarshal(serve(tb, srv, http.MethodPost, "/v1/modules", data, http.StatusCreated).Body.Bytes(), &info); err != nil {
		tb.Fatal(err)
	}
	return info.ID
}

// deployDirect deploys a module once on x86-sse through the handler.
func deployDirect(tb testing.TB, srv *Server, id string) {
	tb.Helper()
	body, err := json.Marshal(DeployRequest{Module: id, Targets: []string{"x86-sse"}})
	if err != nil {
		tb.Fatal(err)
	}
	serve(tb, srv, http.MethodPost, "/v1/deploy", body, http.StatusCreated)
}

// idleModuleBytes returns the heap a server retains for each of the idle
// modules it was given: all but the first are uploaded and, with deploy
// set, deployed once and evicted. The first goes through the same steps
// before the measurement starts, so the worker pool and what the server
// keeps per route are not counted. The engine caches one image, so images
// do not keep modules decoded.
func idleModuleBytes(tb testing.TB, mods [][]byte, journaled, deploy bool) float64 {
	tb.Helper()
	cfg := Config{}
	if journaled {
		cfg.JournalPath = filepath.Join(tb.TempDir(), "svd.journal")
	}
	srv := New(splitvm.New(splitvm.WithCacheSize(1)), cfg)
	defer srv.Close()
	step := func(data []byte) {
		id := uploadDirect(tb, srv, data)
		if deploy {
			deployDirect(tb, srv, id)
			srv.evictIdle(time.Now().Add(time.Hour))
		}
	}
	step(mods[0])
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, data := range mods[1:] {
		step(data)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(srv)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(mods)-1)
}

// TestIdleModuleFootprint: an uploaded module nobody deploys, or whose
// deployments were all evicted, costs about its encoded bytes, journal on
// or off. While every upload stayed decoded, a 2-method module of about
// 350 encoded bytes kept 4.9–6.2 KB, and a 16-method one of about 2.7 KB
// kept 36.5–45.5 KB (go1.24, amd64); now they keep about 0.7 and 3.9 KB.
func TestIdleModuleFootprint(t *testing.T) {
	for _, methods := range []int{2, 16} {
		mods := genModules(t, methods, 257)
		encoded := 0
		for _, data := range mods[1:] {
			encoded += len(data)
		}
		limit := 2*float64(encoded)/float64(len(mods)-1) + 512
		for _, journaled := range []bool{false, true} {
			for _, deploy := range []bool{false, true} {
				name := fmt.Sprintf("methods=%d/journal=%t/deployed=%t", methods, journaled, deploy)
				t.Run(name, func(t *testing.T) {
					got := idleModuleBytes(t, mods, journaled, deploy)
					t.Logf("%.0f B per idle module, bound %.0f B", got, limit)
					if got > limit {
						t.Errorf("an idle module retains %.0f B, want <= %.0f (2 x encoded + 512)", got, limit)
					}
				})
			}
		}
	}
}

// BenchmarkIdleModules reports the heap each of 256 idle 16-method modules
// retains, uploaded, deployed once and evicted, in B/module.
func BenchmarkIdleModules(b *testing.B) {
	mods := genModules(b, 16, 257)
	var per float64
	for i := 0; i < b.N; i++ {
		per = idleModuleBytes(b, mods, false, true)
	}
	b.ReportMetric(per, "B/module")
}
