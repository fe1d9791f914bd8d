package server

// Run failover: when a backend dies mid-run, the router re-creates the
// deployment on the next healthy replica (from the recipe recorded at
// deploy time) and retries the run there. Machines are stateless between
// runs in the common case — simulated memory does not survive a backend
// crash either way — so re-deploying elsewhere is semantically a device
// reboot, which the deployment model already embraces.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

// maxRunBackoff caps the exponential failover backoff.
const maxRunBackoff = 2 * time.Second

// resolveAlias follows the failed-over-deployment chain: every failover
// records old id → new id, so clients holding a pre-failover id keep
// working. The chain is bounded by the alias count to stay safe against a
// (never-written) cycle.
func (rt *Router) resolveAlias(id string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.aliasEnd(id)
}

// aliasEnd is resolveAlias with rt.mu held.
func (rt *Router) aliasEnd(id string) string {
	for i := 0; i <= len(rt.alias); i++ {
		next, ok := rt.alias[id]
		if !ok {
			return id
		}
		id = next
	}
	return id
}

// runDeadline derives the per-run context bounding the whole request —
// first attempt, failover re-deploys, retries, backoff sleeps.
func (rt *Router) runDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if rt.cfg.RunDeadline <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, rt.cfg.RunDeadline)
}

// runWithFailover forwards one run to the deployment's current backend and,
// on a transport failure, fails it over to a surviving replica. The id must
// already be alias-resolved and well-formed.
func (rt *Router) runWithFailover(ctx context.Context, id string, body []byte) (*http.Response, error) {
	b, local, ok := rt.splitDeployID(id)
	if !ok {
		return nil, fmt.Errorf("unknown deployment %q", id)
	}
	resp, err := rt.forward(ctx, b, http.MethodPost, "/v1/deployments/"+local+"/run", body, "application/json")
	if err == nil {
		return resp, nil
	}
	return rt.failoverRun(ctx, id, b, body)
}

// failoverRun retries a run whose backend just failed: pick a survivor by
// the module's ring position, re-deploy the machine there, run. Candidates
// that fail are excluded and the next one tried; when every replica is
// excluded or open, the router backs off (exponentially, with jitter) and
// starts over with a clean slate — the fleet may be mid-recovery, and the
// original backend may even be back (restarted over its journal). The
// request's deadline bounds the whole loop.
func (rt *Router) failoverRun(ctx context.Context, id string, dead int, body []byte) (*http.Response, error) {
	rt.mu.Lock()
	meta, ok := rt.meta[id]
	rt.mu.Unlock()
	if !ok {
		rt.countFailoverFailed()
		return nil, fmt.Errorf("backend %s is unreachable and this router has no re-create recipe for deployment %s (it predates the router or its backend evicted it)", rt.names[dead], id)
	}

	backoff := rt.cfg.RunBackoff
	excluded := map[int]bool{dead: true}
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			rt.countFailoverFailed()
			return nil, fmt.Errorf("failover of %s: %w (last backend error: %v)", id, err, lastErr)
		}
		b := rt.pickSurvivor(meta.module, excluded)
		if b == -1 {
			if !sleepBackoff(ctx, backoff) {
				rt.countFailoverFailed()
				return nil, fmt.Errorf("failover of %s: %w (last backend error: %v)", id, ctx.Err(), lastErr)
			}
			backoff = nextBackoff(backoff)
			excluded = make(map[int]bool)
			continue
		}
		newLocal, err := rt.redeployOn(ctx, b, meta)
		if err != nil {
			lastErr = err
			excluded[b] = true
			continue
		}
		resp, err := rt.forward(ctx, b, http.MethodPost, "/v1/deployments/"+newLocal+"/run", body, "application/json")
		if err != nil {
			lastErr = err
			excluded[b] = true
			continue
		}
		rt.recordFailover(id, rt.prefixID(b, newLocal))
		return resp, nil
	}
}

// pickSurvivor places the module on the ring over the breakers' health
// vector minus the locally excluded backends.
func (rt *Router) pickSurvivor(module string, excluded map[int]bool) int {
	healthy, inflight := rt.snapshot()
	for b := range excluded {
		healthy[b] = false
	}
	return rt.ring.pick(module, healthy, inflight, rt.cfg.LoadFactor)
}

// redeployOn re-creates one machine from its recipe on backend b, narrowed
// to the failed machine's single target and one replica. Returns the new
// backend-local deployment id.
func (rt *Router) redeployOn(ctx context.Context, b int, meta deployMeta) (string, error) {
	req := meta.req
	req.Targets = []string{meta.target}
	req.Replicas = 1
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := rt.forward(ctx, b, http.MethodPost, "/v1/deploy", body, "application/json")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return "", fmt.Errorf("re-deploy on %s: status %d: %s", rt.names[b], resp.StatusCode, eb.Error)
	}
	var dr DeployResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return "", err
	}
	if len(dr.Deployments) != 1 {
		return "", fmt.Errorf("re-deploy on %s created %d machines, want 1", rt.names[b], len(dr.Deployments))
	}
	rt.mu.Lock()
	rt.failoverRedeploys++
	rt.mu.Unlock()
	return dr.Deployments[0].ID, nil
}

// recordFailover aliases the failed deployment to its replacement and moves
// the recipe with it, so future runs (and future failovers) follow. The
// moved recipe is stamped anew: it is a recording on its new backend.
func (rt *Router) recordFailover(oldID, newID string) {
	b, _, ok := rt.splitDeployID(newID)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.alias[oldID] = newID
	if meta, found := rt.meta[oldID]; found && ok {
		rt.seq++
		meta.backend = b
		meta.seq = rt.seq
		rt.meta[newID] = meta
		delete(rt.meta, oldID)
	}
	rt.failovers++
}

func (rt *Router) countFailoverFailed() {
	rt.mu.Lock()
	rt.failoverFailed++
	rt.mu.Unlock()
}

// metaIDsOn lists the (alias-free) deployments of one module the router
// placed on backend b, in stable order — the items a module-wide batch
// shard lost when that backend died.
func (rt *Router) metaIDsOn(module string, b int) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for id, m := range rt.meta {
		if m.module == module && m.backend == b {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// failoverBatchItem recovers one batch item whose shard died: run it alone
// through the failover path and translate the outcome to a structured
// per-item result (unavailable + retryable when even failover could not
// place it).
func (rt *Router) failoverBatchItem(ctx context.Context, nsID, entry string, args []string) RunBatchResult {
	res := RunBatchResult{Deployment: nsID}
	body, err := json.Marshal(RunRequest{Entry: entry, Args: args})
	if err != nil {
		res.Error = err.Error()
		res.ErrorClass = errClassBadRequest
		return res
	}
	resp, err := rt.runWithFailover(ctx, rt.resolveAlias(nsID), body)
	if err != nil {
		res.Error = err.Error()
		res.ErrorClass = errClassUnavailable
		res.Retryable = true
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		res.Error = eb.Error
		res.ErrorClass = eb.Class
		if res.ErrorClass == "" {
			res.ErrorClass = errClassExecution
		}
		res.Retryable = eb.Retryable
		return res
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		res.Error = err.Error()
		res.ErrorClass = errClassUnavailable
		res.Retryable = true
		return res
	}
	res.Deployment = rt.resolveAlias(nsID)
	res.Target = rr.Target
	res.Value = rr.Value
	res.Float = rr.Float
	res.IsFloat = rr.IsFloat
	res.Cycles = rr.Cycles
	return res
}

// sleepBackoff sleeps for d with ±50% jitter, or until ctx is done.
// Reports whether the sleep completed (false means the deadline fired).
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	jittered := d/2 + time.Duration(rand.Int63n(int64(d)+1))
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// nextBackoff doubles the backoff up to maxRunBackoff.
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > maxRunBackoff {
		d = maxRunBackoff
	}
	return d
}
