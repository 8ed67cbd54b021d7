// Package serve is the long-running, multi-tenant diagnosis service
// behind `flowdiff serve`. Each tenant is an isolated incremental
// Monitor fed through a bounded ingest queue; the versioned /v1 HTTP
// API uploads baselines, streams current events in any flowdiff
// serialization, and reads back per-window reports that are
// byte-identical to an offline Monitor run over the same events.
//
// The service is crash-safe: baselines and window reports are persisted
// write-ahead under one directory per tenant, and a restarted server
// rebuilds every tenant's monitor from its persisted baseline.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
	"flowdiff/internal/parallel"
)

// Config configures a Server. Zero values get serviceable defaults; Dir
// is the only required field.
type Config struct {
	// Dir is the service data directory (one subdirectory per tenant).
	Dir string
	// Window is each tenant's diagnosis window (default 1 minute).
	Window time.Duration
	// Thresholds, Options, and Automata configure every tenant's
	// diagnosis pipeline, exactly as an offline Monitor run would —
	// reports served here are byte-identical to that run.
	Thresholds flowdiff.Thresholds
	Options    flowdiff.Options
	Automata   []*flowdiff.TaskAutomaton
	// Tuning bounds the service's compute pools (baseline builds, window
	// modeling, recovery fan-out) through the one root knob-set.
	Tuning flowdiff.Tuning
	// QueueBudget bounds each tenant's buffered (accepted, not yet
	// observed) events; an ingest that would exceed it is rejected whole
	// with 429 + Retry-After (default 65536).
	QueueBudget int
	// MaxTenants caps concurrent tenants (default 64).
	MaxTenants int
	// Retention is how long window reports stay on disk before the
	// background GC collects them (default 24h). Baselines never expire.
	Retention time.Duration
	// GCInterval is the background GC period (default 1 minute).
	GCInterval time.Duration
	// Registry receives service metrics (default obs.Default()).
	Registry *obs.Registry

	// stall, when set, is called by every tenant worker at the start of
	// each job — a test hook for holding queues full deterministically.
	stall func(tenant string)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.QueueBudget <= 0 {
		c.QueueBudget = 65536
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.Retention <= 0 {
		c.Retention = 24 * time.Hour
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	c.Options = c.Tuning.Options(c.Options)
	return c
}

// Server is the multi-tenant diagnosis service. Create with New, mount
// Handler on a listener, stop with Close.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	store *Store
	mux   *http.ServeMux

	// baseCtx governs tenant workers and carries the obs registry; Close
	// cancels it only after the workers drain.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	// wg joins the tenant workers; auxWg joins the GC loop and the
	// cancellation watcher, which must outlive the worker drain.
	wg    sync.WaitGroup
	auxWg sync.WaitGroup
}

// New opens the store, recovers any tenants persisted by a previous
// run (rebuilding their monitors in parallel under ctx), and starts the
// background GC. The returned server is ready to serve immediately.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(obs.WithRegistry(ctx, cfg.Registry))
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		store:   store,
		baseCtx: sctx,
		cancel:  cancel,
		tenants: make(map[string]*tenant),
	}
	if err := s.recover(sctx); err != nil {
		cancel()
		return nil, err
	}
	s.routes()

	// The watcher propagates an external cancellation of ctx into a
	// tenant shutdown so no worker blocks forever on an abandoned server;
	// Close cancels sctx itself, which also releases the watcher.
	s.auxWg.Add(1)
	go func() {
		defer s.auxWg.Done()
		<-sctx.Done()
		s.closeTenants()
	}()
	s.auxWg.Add(1)
	go func() {
		defer s.auxWg.Done()
		s.gcLoop(sctx)
	}()
	return s, nil
}

// recover rebuilds one monitor per persisted tenant, fanning out across
// the tuning's worker budget; a tenant whose state fails to load is
// skipped (counted in serve.recover.errors) rather than failing boot.
func (s *Server) recover(ctx context.Context) error {
	ids, err := s.store.Tenants()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	workers := parallel.Clamp(s.cfg.Tuning.Workers)
	err = parallel.ForContext(ctx, len(ids), workers, func(i int) {
		id := ids[i]
		log, meta, err := s.store.LoadBaseline(ctx, id)
		if err != nil {
			s.reg.Counter("serve.recover.errors").Inc()
			return
		}
		mon, err := flowdiff.NewMonitor(ctx, log, s.cfg.Window, s.cfg.Automata, s.cfg.Thresholds, s.cfg.Options)
		if err != nil {
			s.reg.Counter("serve.recover.errors").Inc()
			return
		}
		seq, err := s.store.MaxSeq(id)
		if err != nil {
			s.reg.Counter("serve.recover.errors").Inc()
			return
		}
		t := s.newTenant(id, mon, meta, seq)
		s.mu.Lock()
		s.tenants[id] = t
		s.mu.Unlock()
		s.startWorker(t)
	})
	if err != nil {
		return fmt.Errorf("serve: recovering tenants: %w", err)
	}
	s.reg.Gauge("serve.tenants").Set(int64(len(ids)))
	return nil
}

// newTenant wires a tenant and its per-tenant instruments.
func (s *Server) newTenant(id string, mon *flowdiff.Monitor, meta BaselineMeta, nextSeq uint64) *tenant {
	t := &tenant{
		id:           id,
		srv:          s,
		mon:          mon,
		meta:         meta,
		nextSeq:      nextSeq,
		exited:       make(chan struct{}),
		depthGauge:   s.reg.Gauge("serve.tenant." + id + ".queue.depth"),
		flushHist:    s.reg.Histogram("serve.tenant." + id + ".flush"),
		errCounter:   s.reg.Counter("serve.tenant." + id + ".errors"),
		windowsCount: s.reg.Counter("serve.tenant." + id + ".windows"),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (s *Server) startWorker(t *tenant) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t.run(s.baseCtx)
	}()
}

// tenant looks up a live tenant.
func (s *Server) tenant(id string) (*tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	return t, ok
}

// closeTenants stops every worker (idempotent); each drains its queue
// before exiting.
func (s *Server) closeTenants() {
	s.mu.Lock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ts := make([]*tenant, 0, len(ids))
	for _, id := range ids {
		ts = append(ts, s.tenants[id])
	}
	s.closed = true
	s.mu.Unlock()
	for _, t := range ts {
		t.close()
	}
}

// Close shuts the service down gracefully: new requests are rejected,
// every accepted event is observed (workers drain their queues under a
// live context), then the background loops stop. Safe to call more
// than once.
func (s *Server) Close() error {
	s.closeTenants()
	s.wg.Wait()
	s.cancel()
	s.auxWg.Wait()
	return nil
}

// Handler returns the service's HTTP handler: the /v1 API, health and
// readiness probes, and the obs introspection endpoints (/metrics,
// /debug/vars, /debug/pprof/).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("serve.http.requests").Inc()
		s.mux.ServeHTTP(w, r)
	})
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("GET /v1/tenants/{id}", s.handleGetTenant)
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDeleteTenant)
	mux.HandleFunc("PUT /v1/tenants/{id}/baseline", s.handlePutBaseline)
	mux.HandleFunc("GET /v1/tenants/{id}/baseline", s.handleGetBaseline)
	mux.HandleFunc("POST /v1/tenants/{id}/events", s.handleIngest)
	mux.HandleFunc("POST /v1/tenants/{id}/flush", s.handleFlush)
	mux.HandleFunc("GET /v1/tenants/{id}/reports", s.handleListReports)
	mux.HandleFunc("GET /v1/tenants/{id}/reports/{seq}", s.handleGetReport)
	om := obs.NewMux(s.reg)
	mux.Handle("/metrics", om)
	mux.Handle("/debug/", om)
	s.mux = mux
}

// tenantID validates the {id} path segment, writing the 400 itself on
// failure.
func tenantID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if !validTenantID(id) {
		writeError(w, http.StatusBadRequest, "invalid tenant id %q: want 1-64 chars of [a-zA-Z0-9._-], not starting with a dot", id)
		return "", false
	}
	return id, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{Status: "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: "shutting down"})
		return
	}
	// The store must be writable for ingest to make durable progress.
	probe, err := os.CreateTemp(s.store.Dir(), ".readyz*")
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: "store unwritable", Detail: err.Error()})
		return
	}
	probe.Close()
	os.Remove(probe.Name())
	writeJSON(w, http.StatusOK, Health{Status: "ok"})
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	list := TenantList{Tenants: make([]TenantStatus, 0, len(ids))}
	for _, id := range ids {
		if t, ok := s.tenant(id); ok {
			list.Tenants = append(list.Tenants, t.status())
		}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	t, ok := s.tenant(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
	}
	n := len(s.tenants)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	s.reg.Gauge("serve.tenants").Set(int64(n))
	// Drain the worker before deleting its files so a queued window
	// can't re-persist a report into the removed directory.
	t.close()
	select {
	case <-t.exited:
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, "tenant %q still draining; its files will remain until the next DELETE", id)
		return
	}
	if err := s.store.DeleteTenant(id); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePutBaseline(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	log, err := decodeLog(obs.WithRegistry(r.Context(), s.reg), r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding baseline: %v", err)
		return
	}
	if len(log.Events) == 0 {
		writeError(w, http.StatusBadRequest, "baseline has no events")
		return
	}
	if t, ok := s.tenant(id); ok {
		s.swapTenantBaseline(w, r, t, log)
		return
	}
	// New tenant: build the monitor outside the registry lock (baseline
	// modeling is the expensive part), then insert if still absent.
	ctx := obs.WithRegistry(r.Context(), s.reg)
	mon, err := flowdiff.NewMonitor(ctx, log, s.cfg.Window, s.cfg.Automata, s.cfg.Thresholds, s.cfg.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "building baseline: %v", err)
		return
	}
	meta := BaselineMeta{
		Version:       1,
		Events:        len(log.Events),
		Start:         log.Start,
		End:           log.End,
		SavedAtUnixNS: s.reg.Now().UnixNano(),
	}
	if err := s.store.SaveBaseline(id, log, meta); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	t := s.newTenant(id, mon, meta, 0)
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case len(s.tenants) >= s.cfg.MaxTenants:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "tenant capacity exhausted (%d); delete one first", s.cfg.MaxTenants)
		return
	default:
		if _, dup := s.tenants[id]; dup {
			s.mu.Unlock()
			writeError(w, http.StatusConflict, "tenant %q created concurrently; retry to hot-swap", id)
			return
		}
		s.tenants[id] = t
		n := len(s.tenants)
		s.mu.Unlock()
		s.reg.Gauge("serve.tenants").Set(int64(n))
	}
	s.startWorker(t)
	writeJSON(w, http.StatusCreated, meta)
}

// swapTenantBaseline routes a baseline upload for an existing tenant
// through its worker, preserving queue order: every event accepted
// before the swap is diffed against the old baseline.
func (s *Server) swapTenantBaseline(w http.ResponseWriter, r *http.Request, t *tenant, log *flowlog.Log) {
	done := make(chan jobResult, 1)
	if !t.enqueueOp(job{swap: log, done: done}) {
		writeError(w, http.StatusServiceUnavailable, "tenant %q shutting down", t.id)
		return
	}
	select {
	case res := <-done:
		if res.err != nil {
			writeError(w, http.StatusBadRequest, "swapping baseline: %v", res.err)
			return
		}
		writeJSON(w, http.StatusOK, res.meta)
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, "client went away; the swap still completes in order")
	}
}

func (s *Server) handleGetBaseline(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	t, ok := s.tenant(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	data, err := s.store.BaselineBytes(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	t.mu.Lock()
	version := t.meta.Version
	t.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Flowdiff-Baseline-Version", strconv.Itoa(version))
	// A short write means the client hung up.
	_, _ = w.Write(data)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	t, ok := s.tenant(id)
	if !ok {
		writeError(w, http.StatusConflict, "tenant %q has no baseline; PUT /v1/tenants/%s/baseline first", id, id)
		return
	}
	log, err := decodeLog(obs.WithRegistry(r.Context(), s.reg), r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding events: %v", err)
		return
	}
	if len(log.Events) > s.cfg.QueueBudget {
		t.rejected.Add(int64(len(log.Events)))
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d events exceeds the tenant budget of %d; split it", len(log.Events), s.cfg.QueueBudget)
		return
	}
	accepted, queued := t.enqueueEvents(log.Events)
	if !accepted {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, IngestResponse{Accepted: 0, Queued: queued, Budget: s.cfg.QueueBudget})
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: len(log.Events), Queued: queued, Budget: s.cfg.QueueBudget})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	t, ok := s.tenant(id)
	if !ok {
		writeError(w, http.StatusConflict, "tenant %q has no baseline; PUT /v1/tenants/%s/baseline first", id, id)
		return
	}
	done := make(chan jobResult, 1)
	if !t.enqueueOp(job{flush: true, done: done}) {
		writeError(w, http.StatusServiceUnavailable, "tenant %q shutting down", id)
		return
	}
	select {
	case res := <-done:
		if res.err != nil {
			writeError(w, http.StatusInternalServerError, "flush: %v", res.err)
			return
		}
		if res.rec == nil {
			writeJSON(w, http.StatusOK, FlushResponse{Flushed: false})
			return
		}
		writeJSON(w, http.StatusOK, FlushResponse{Flushed: true, Seq: res.rec.Seq})
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, "client went away; the flush still completes in order")
	}
}

func (s *Server) handleListReports(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	if _, ok := s.tenant(id); !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	list, err := s.store.ListReports(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if list == nil {
		list = []ReportSummary{}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGetReport(w http.ResponseWriter, r *http.Request) {
	id, ok := tenantID(w, r)
	if !ok {
		return
	}
	if _, ok := s.tenant(id); !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid report sequence %q", r.PathValue("seq"))
		return
	}
	rec, err := s.store.LoadReport(id, seq)
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, "tenant %q has no report %d", id, seq)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// gcLoop periodically collects expired window reports for every
// tenant. The cutoff comes from the registry clock so tests can drive
// retention deterministically.
func (s *Server) gcLoop(ctx context.Context) {
	ticker := time.NewTicker(s.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.RunGC()
		}
	}
}

// RunGC collects every tenant's expired reports once, returning how
// many files were removed. Exposed so operators (and tests) can force a
// collection; the background loop calls it on GCInterval.
func (s *Server) RunGC() int {
	cutoff := s.reg.Now().Add(-s.cfg.Retention)
	ids, err := s.store.Tenants()
	if err != nil {
		s.reg.Counter("serve.gc.errors").Inc()
		return 0
	}
	removed := 0
	for _, id := range ids {
		n, err := s.store.GCReports(id, cutoff)
		if err != nil {
			s.reg.Counter("serve.gc.errors").Inc()
			continue
		}
		removed += n
	}
	if removed > 0 {
		s.reg.Counter("serve.gc.removed").Add(int64(removed))
	}
	return removed
}
