package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/target"
	"repro/pkg/splitvm"
)

// The serving ladder of the traced pass: the same request executed at four
// depths — in process, into the handler, over loopback HTTP, through a
// router — so that the difference of adjacent medians is the self time of
// the layer the deeper rung adds. Nothing inside the server is
// instrumented.

type ladder struct {
	cl       *client
	dev      *splitvm.Engine
	backends []*backend
	router   string // base URL of a router in front of backends
	// viaRouter says which rung is the workload's own path: the router
	// (serve_mixed) or the backend directly (serve_run).
	viaRouter bool
}

// locate splits a deployment id into its backend and the backend's own id
// for it: "b1.d-000007" is backend 1's "d-000007", an id without prefix
// belongs to backend 0.
func locate(id string) (int, string) {
	if rest, ok := strings.CutPrefix(id, "b"); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 {
			var b int
			if _, err := fmt.Sscanf(rest[:i], "%d", &b); err == nil {
				return b, rest[i+1:]
			}
		}
	}
	return 0, id
}

// handle sends one request into a backend's handler, with no network.
func handle(b *backend, path, contentType string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	b.srv.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// split charges a request span's time to the share groups from the rung
// medians (inner to outer: rungs[0] is the innermost).
func split(groups []string, rungs []float64) map[string]float64 {
	total := rungs[len(rungs)-1]
	out := map[string]float64{}
	prev := 0.0
	for i, g := range groups {
		if d := rungs[i] - prev; d > 0 {
			out[g] += d / total
		}
		prev = rungs[i]
	}
	return out
}

// runs measures the four rungs of the run request over deps, reps times
// each, interleaved so drift hits all rungs alike.
func (l *ladder) runs(rep *layerReport, deps []*deployment, reps int) error {
	twins := make([]*splitvm.Deployment, len(deps))
	for i, d := range deps {
		var err error
		if twins[i], err = l.dev.Deploy(d.mod.mod, splitvm.WithTarget(d.arch)); err != nil {
			return err
		}
	}
	var sim, handler, direct, routed []float64
	for r := 0; r < reps; r++ {
		i := r % len(deps)
		d := deps[i]
		b, local := locate(d.id)

		t0 := time.Now()
		v, err := twins[i].Run(d.mod.prog.entry, splitvm.IntArg(d.mod.n))
		sim = append(sim, float64(time.Since(t0)))
		if err != nil || v.I != d.mod.want {
			return fmt.Errorf("ladder: in-process run of %s: %d, %v", d.mod.prog.name, v.I, err)
		}
		// sim.Machine.MaxSteps is charged against lifetime instructions;
		// the reset keeps the twin under it however many reps run.
		twins[i].ResetCycles()

		rec, dt := handle(l.backends[b], "/v1/deployments/"+local+"/run", "application/json", d.body)
		handler = append(handler, float64(dt))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ladder: handler run of %s: status %d: %s", d.id, rec.Code, rec.Body)
		}

		var out struct{}
		t0 = time.Now()
		err = l.cl.post(runURL(l.backends[b].url, local), "application/json", d.body, &out)
		direct = append(direct, float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}

		t0 = time.Now()
		err = l.cl.post(runURL(l.router, fmt.Sprintf("b%d.%s", b, local)), "application/json", d.body, &out)
		routed = append(routed, float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	rungs := []float64{median(sim), median(handler), median(direct), median(routed)}
	rep.detail["sim.run_us_p50"] = metric{rungs[0] / 1e3, "us", reps}
	rep.detail["server.handler_us_p50"] = metric{(rungs[1] - rungs[0]) / 1e3, "us", reps}
	rep.detail["server.http_us_p50"] = metric{(rungs[2] - rungs[1]) / 1e3, "us", reps}
	rep.detail["router.hop_us_p50"] = metric{(rungs[3] - rungs[2]) / 1e3, "us", reps}
	rep.detail["ladder.direct_us_p50"] = metric{rungs[2] / 1e3, "us", reps}
	rep.detail["ladder.routed_us_p50"] = metric{rungs[3] / 1e3, "us", reps}
	groups := []string{"sim", "server", "http", "router"}
	if !l.viaRouter {
		groups, rungs = groups[:3], rungs[:3]
	}
	rep.split["request.run"] = split(groups, rungs)
	return nil
}

// deploys measures the warm deploy request at three depths on a module
// every backend already holds, and charges the admit span (upload + cold
// deploy) the same per-request HTTP and router overheads.
func (l *ladder) deploys(rep *layerReport, mod *served, arch target.Arch, admitNs float64, reps int) error {
	body := []byte(fmt.Sprintf(`{"module":%q,"targets":[%q]}`, mod.id, arch))
	var handler, direct, routed []float64
	var out struct{}
	for r := 0; r < reps; r++ {
		b := l.backends[r%len(l.backends)]
		rec, dt := handle(b, "/v1/deploy", "application/json", body)
		handler = append(handler, float64(dt))
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("ladder: handler deploy: status %d: %s", rec.Code, rec.Body)
		}
		t0 := time.Now()
		err := l.cl.post(b.url+"/v1/deploy", "application/json", body, &out)
		direct = append(direct, float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		t0 = time.Now()
		err = l.cl.post(l.router+"/v1/deploy", "application/json", body, &out)
		routed = append(routed, float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	rungs := []float64{median(handler), median(direct), median(routed)}
	rep.detail["server.deploy_warm_us_p50"] = metric{rungs[1] / 1e3, "us", reps}
	rep.detail["router.deploy_hop_us_p50"] = metric{(rungs[2] - rungs[1]) / 1e3, "us", reps}
	groups := []string{"online", "http", "router"}
	rep.split["request.deploy_warm"] = split(groups, rungs)
	// Two requests' worth of transport on top of whatever the backend did.
	transport := 2 * (rungs[2] - rungs[0])
	if inner := admitNs - transport; admitNs > 0 && inner > 0 {
		rep.split["request.admit"] = split(groups, []float64{inner, inner + 2*(rungs[1]-rungs[0]), admitNs})
	}
	return nil
}

// probeJournal times appends of a deploy-sized record to a scratch journal:
// what each served deploy pays the journal layer.
func probeJournal(e *env, rep *layerReport, reps int) error {
	dir, err := e.dir("probe-journal")
	if err != nil {
		return err
	}
	j, _, err := journal.Open(journalPath(dir, 0))
	if err != nil {
		return err
	}
	defer j.Close()
	record := journal.Record{Op: "deploy", Data: []byte(`{"id":"d-000001","module":"` + strings.Repeat("ab", 32) + `","target":"x86-sse","reg_alloc":"split"}`)}
	var ns []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		err := j.Append(record)
		ns = append(ns, float64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	rep.detail["journal.append_us_p50"] = metric{median(ns) / 1e3, "us", reps}
	return nil
}
