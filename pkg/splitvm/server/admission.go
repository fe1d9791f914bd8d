package server

// Adaptive admission control for the run routes. Deploy batches already had
// backpressure (bounded pool queues, deployment quotas); admission is the
// same contract for invocations: with Config.MaxInflightPerTenant set, each
// tenant may have at most that many run or run-batch requests in flight.
// A request over the cap is shed with 429, error_class "resource_exhausted"
// and retryable true — the overloaded-but-healthy signal a router must not
// treat as a backend failure (shed, don't fail over).
//
// Shedding is deadline-aware: a request that carries a deadline is shed
// immediately when its tenant is saturated (the client has a time budget;
// queueing would spend it waiting), while a deadline-less request may wait
// for a slot — but only behind a bounded number of other waiters, so the
// queue, like every queue in this server, cannot grow without bound.

import (
	"context"
	"sync"
	"sync/atomic"
)

// admission is the per-tenant in-flight limiter shared by the run routes.
// A nil or zero-capacity admission admits everything (the default).
type admission struct {
	capacity int // in-flight cap per tenant; <= 0 disables admission

	mu    sync.Mutex
	gates map[string]*tenantGate
	shed  atomic.Int64
}

// tenantGate is one tenant's slot pool. slots is buffered to capacity: a
// send acquires a slot, a receive releases it. waiters bounds the
// deadline-less queue; users counts the requests that hold a slot, wait for
// one or are about to try, and the last of them drops the gate, so the table
// holds only tenants with requests in flight. Both are guarded by
// admission.mu.
type tenantGate struct {
	slots   chan struct{}
	waiters int
	users   int
}

func newAdmission(capacity int) *admission {
	return &admission{capacity: capacity, gates: make(map[string]*tenantGate)}
}

// enter returns the tenant's gate with the caller counted among its users.
func (a *admission) enter(tenant string) *tenantGate {
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.gates[tenant]
	if !ok {
		g = &tenantGate{slots: make(chan struct{}, a.capacity)}
		a.gates[tenant] = g
	}
	g.users++
	return g
}

// leave uncounts one user of the tenant's gate, which holds no slot of it.
func (a *admission) leave(tenant string, g *tenantGate) {
	a.mu.Lock()
	if g.users--; g.users == 0 {
		delete(a.gates, tenant)
	}
	a.mu.Unlock()
}

// acquire admits one request for the tenant. On admission it returns a
// release function (call exactly once, when the request's run work is done)
// and true; on shed it returns false and counts the shed. ctx is the
// request context: its deadline selects immediate shedding over queueing,
// and its cancellation aborts a queued wait.
func (a *admission) acquire(ctx context.Context, tenant string) (release func(), ok bool) {
	if a == nil || a.capacity <= 0 {
		return func() {}, true
	}
	g := a.enter(tenant)
	if !a.take(ctx, g) {
		a.leave(tenant, g)
		a.shed.Add(1)
		return nil, false
	}
	return func() {
		<-g.slots
		a.leave(tenant, g)
	}, true
}

// take takes one of g's slots, queueing for it if ctx allows, and reports
// whether it got one.
func (a *admission) take(ctx context.Context, g *tenantGate) bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
	}
	// Saturated. A deadline-carrying request sheds now — its time budget is
	// better spent retrying elsewhere than queueing here — and the
	// deadline-less queue is capped at one full round of waiters.
	if _, hasDeadline := ctx.Deadline(); hasDeadline {
		return false
	}
	a.mu.Lock()
	if g.waiters >= a.capacity {
		a.mu.Unlock()
		return false
	}
	g.waiters++
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		g.waiters--
		a.mu.Unlock()
	}()
	select {
	case g.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// shedCount reports how many requests admission has shed since startup.
func (a *admission) shedCount() int64 {
	if a == nil {
		return 0
	}
	return a.shed.Load()
}
