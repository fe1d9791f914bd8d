package server

// Deployment-journal wiring: the server appends one record per module
// upload, deployment registration and eviction to an internal/journal file,
// and replays it in New, re-instantiating every live deployment from the
// engine (warm via the disk cache when one is configured). A SIGKILLed
// backend therefore restarts with its deployment table intact — the journal
// is the missing half of the warm-restart story, recovering *deployments*
// where the disk cache alone recovered only compiled images.

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/target"
	"repro/pkg/splitvm"
)

// Journal record operations. Module records carry the raw encoded module
// (modules live only in server memory, so replay needs the bytes); deploy
// and evict records carry JSON.
const (
	journalOpModule = "module"
	journalOpDeploy = "deploy"
	journalOpEvict  = "evict"
)

// journalDeployRecord is the JSON payload of one deploy record: the
// parameters needed to re-instantiate the machine. Simulated memory and
// run statistics are deliberately not journaled — a machine restarts
// fresh, like a rebooted device; what must survive is the deployment's
// existence, identity and compilation options.
type journalDeployRecord struct {
	ID             string `json:"id"`
	Module         string `json:"module"`
	Target         string `json:"target"`
	Tenant         string `json:"tenant,omitempty"`
	RegAlloc       string `json:"reg_alloc,omitempty"`
	ForceScalarize bool   `json:"force_scalarize,omitempty"`
	Lazy           bool   `json:"lazy,omitempty"`
	Tiering        bool   `json:"tiering,omitempty"`
	PromoteCalls   int64  `json:"promote_calls,omitempty"`
	Profile        []byte `json:"profile,omitempty"`
	// The resource governor travels with the deployment: a replayed machine
	// is governed exactly like the one the client originally deployed.
	MemLimit          int64 `json:"mem_limit,omitempty"`
	RunDeadlineMillis int64 `json:"run_deadline_ms,omitempty"`
}

// journalEvictRecord is the JSON payload of one evict record.
type journalEvictRecord struct {
	ID string `json:"id"`
}

// JournalStatsResponse is the journal section of /v1/stats (present only
// when the server runs with a journal).
type JournalStatsResponse struct {
	// Journal carries the file's own persistence counters.
	Journal journal.Stats `json:"journal"`
	// ReplayedModules and ReplayedDeployments count registry entries
	// restored by the last startup replay.
	ReplayedModules     int `json:"replayed_modules"`
	ReplayedDeployments int `json:"replayed_deployments"`
	// ReplayFailed counts records that could not be applied (module missing,
	// target unknown, deploy error). Failures degrade to a smaller restored
	// registry, never to a failed startup.
	ReplayFailed int `json:"replay_failed"`
	// AppendErrors counts records that failed to persist after startup (full
	// disk). The server keeps serving; the journal is best-effort durable.
	AppendErrors int64 `json:"append_errors"`
}

// JournalErr reports why the deployment journal is unavailable. New keeps
// the error rather than failing, so callers that require durability (like
// cmd/svd with -journal) can check it and abort startup, while tests and
// embedded uses keep working memory-only.
func (s *Server) JournalErr() error { return s.journalErr }

// openJournal opens and replays the journal, then compacts it. Called from
// New before the server serves traffic, so no locking is needed.
func (s *Server) openJournal(path string) {
	j, recs, err := journal.Open(path)
	if err != nil {
		s.journalErr = err
		return
	}
	s.jnl = j
	s.replayJournal(recs)
	s.compactJournal()
}

// replayJournal applies the journal's records to the empty registries:
// module records re-load encoded modules, deploy records re-instantiate
// machines through the engine (a disk-cache hit when the cache survived
// with the journal), evict records drop earlier deploys. Each module is
// decoded once, to list it and to check it still loads, and kept decoded
// only while a restored deployment uses it. Any record that no longer
// applies is counted and skipped — replay degrades, it never fails the
// boot.
func (s *Server) replayJournal(recs []journal.Record) {
	var order []string
	var modules [][]byte
	deploys := make(map[string]journalDeployRecord)
	for _, rec := range recs {
		switch rec.Op {
		case journalOpModule:
			modules = append(modules, rec.Data)
		case journalOpDeploy:
			var dr journalDeployRecord
			if err := json.Unmarshal(rec.Data, &dr); err != nil || dr.ID == "" {
				s.replayFailed++
				continue
			}
			if _, dup := deploys[dr.ID]; !dup {
				order = append(order, dr.ID)
			}
			deploys[dr.ID] = dr
		case journalOpEvict:
			var er journalEvictRecord
			if err := json.Unmarshal(rec.Data, &er); err != nil {
				s.replayFailed++
				continue
			}
			delete(deploys, er.ID)
		default:
			s.replayFailed++
		}
	}
	used := make(map[string]bool)
	for _, dr := range deploys {
		used[dr.Module] = true
	}
	for _, data := range modules {
		m, err := loadModule(s.eng, data)
		if err != nil {
			s.replayFailed++
			continue
		}
		if sm, added := s.storeLocked(moduleInfo(m.Hash(), m), data); added {
			s.replayedModules++
			if used[sm.info.ID] {
				sm.m = m
			}
		}
	}

	now := time.Now()
	for _, id := range order {
		dr, ok := deploys[id]
		if !ok {
			continue // evicted later in the log
		}
		ld, err := s.instantiateFromJournal(dr)
		if err != nil {
			s.replayFailed++
			continue
		}
		ld.lastUsed = now
		s.deployments[id] = ld
		s.deployOrder = append(s.deployOrder, id)
		s.modules[ld.module].live++
		s.byTenant[ld.tenant]++
		s.replayedDeployments++
		var n int64
		if _, err := fmt.Sscanf(id, "d-%d", &n); err == nil && n > s.nextDep {
			s.nextDep = n
		}
	}
	for _, sm := range s.moduleOrder {
		if sm.live == 0 {
			sm.m = nil // every deployment of it failed to restore
		}
	}
}

// instantiateFromJournal rebuilds one machine from its deploy record.
func (s *Server) instantiateFromJournal(dr journalDeployRecord) (*liveDeployment, error) {
	sm, ok := s.modules[dr.Module]
	if !ok {
		return nil, fmt.Errorf("module %s not in journal", dr.Module)
	}
	arch := target.Arch(dr.Target)
	if _, err := target.Lookup(arch); err != nil {
		return nil, err
	}
	mode, err := regAllocMode(dr.RegAlloc)
	if err != nil {
		return nil, err
	}
	opts := []splitvm.DeployOption{
		splitvm.WithTarget(arch),
		splitvm.WithRegAllocMode(mode),
		splitvm.WithForceScalarize(dr.ForceScalarize),
		splitvm.WithLazyCompile(dr.Lazy),
	}
	if dr.Tiering || dr.PromoteCalls != 0 || len(dr.Profile) > 0 {
		opts = append(opts, splitvm.WithTiering(true))
	}
	if dr.PromoteCalls != 0 {
		opts = append(opts, splitvm.WithPromoteCalls(dr.PromoteCalls))
	}
	if len(dr.Profile) > 0 {
		// Negotiate-or-fallback, like the deploy route: a profile this
		// build cannot decode restores the deployment without warm counters.
		if p, err := splitvm.DecodeProfile(dr.Profile); err == nil {
			opts = append(opts, splitvm.WithProfile(p))
		}
	}
	if dr.MemLimit > 0 {
		opts = append(opts, splitvm.WithMemLimit(dr.MemLimit))
	}
	if dr.RunDeadlineMillis > 0 {
		opts = append(opts, splitvm.WithRunDeadline(time.Duration(dr.RunDeadlineMillis)*time.Millisecond))
	}
	dep, err := s.eng.Deploy(sm.m, opts...)
	if err != nil {
		return nil, err
	}
	tenant := dr.Tenant
	if tenant == "" {
		tenant = "default"
	}
	return &liveDeployment{
		id:                dr.ID,
		module:            sm.info.ID,
		tenant:            tenant,
		arch:              arch,
		dep:               dep,
		regAlloc:          dr.RegAlloc,
		forceScalarize:    dr.ForceScalarize,
		lazy:              dr.Lazy,
		tiering:           dr.Tiering,
		promoteCalls:      dr.PromoteCalls,
		profile:           dr.Profile,
		memLimit:          dr.MemLimit,
		runDeadlineMillis: dr.RunDeadlineMillis,
	}, nil
}

// compactJournal rewrites the journal to the minimal record set for the
// current registries (modules in upload order, live deployments in
// registration order), discarding evict churn and records that failed to
// replay.
func (s *Server) compactJournal() {
	if s.jnl == nil {
		return
	}
	var recs []journal.Record
	for _, sm := range s.moduleOrder {
		recs = append(recs, journal.Record{Op: journalOpModule, Data: sm.data})
	}
	for _, id := range s.deployOrder {
		ld := s.deployments[id]
		data, err := json.Marshal(deployRecordOf(ld))
		if err != nil {
			continue
		}
		recs = append(recs, journal.Record{Op: journalOpDeploy, Data: data})
	}
	if err := s.jnl.Rewrite(recs); err != nil {
		s.journalAppendErrs++
	}
}

// deployRecordOf captures a live deployment as a journal record payload.
func deployRecordOf(ld *liveDeployment) journalDeployRecord {
	return journalDeployRecord{
		ID:                ld.id,
		Module:            ld.module,
		Target:            string(ld.arch),
		Tenant:            ld.tenant,
		RegAlloc:          ld.regAlloc,
		ForceScalarize:    ld.forceScalarize,
		Lazy:              ld.lazy,
		Tiering:           ld.tiering,
		PromoteCalls:      ld.promoteCalls,
		Profile:           ld.profile,
		MemLimit:          ld.memLimit,
		RunDeadlineMillis: ld.runDeadlineMillis,
	}
}

// appendJournal persists one record, counting (but not surfacing) failures:
// an unwritable journal degrades durability, it must not take down serving.
// Caller holds s.mu, which also gives journal records the registry's order.
func (s *Server) appendJournal(op string, data []byte) {
	if s.jnl == nil {
		return
	}
	if f := faultinject.At("journal.append"); f != nil {
		if err := f.Apply(); err != nil {
			s.journalAppendErrs++
			return
		}
	}
	if err := s.jnl.Append(journal.Record{Op: op, Data: data}); err != nil {
		s.journalAppendErrs++
	}
}

// appendJournalJSON marshals v and persists it under op.
func (s *Server) appendJournalJSON(op string, v any) {
	if s.jnl == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		s.journalAppendErrs++
		return
	}
	s.appendJournal(op, data)
}
