package serve

import (
	"context"
	"sync"
	"sync/atomic"

	"flowdiff"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// tenant is one isolated diagnosis stream: a Monitor owned by a single
// worker goroutine, fed through a bounded FIFO of jobs. Handlers never
// touch the Monitor — they enqueue and (for synchronous operations)
// wait on a reply channel, so the Monitor's single-goroutine contract
// holds no matter how many requests race.
type tenant struct {
	id  string
	srv *Server

	mu   sync.Mutex
	cond *sync.Cond
	// queue is the pending job FIFO; queued counts the buffered events
	// inside it — the quantity the backpressure budget bounds.
	queue  []job
	queued int
	// closed stops the worker after the queue drains; enqueue rejects
	// once set.
	closed bool
	// exited is closed when the worker returns; DELETE waits on it
	// before removing the tenant's files.
	exited chan struct{}
	// meta mirrors the persisted baseline sidecar; lastErr is the most
	// recent ingest/persistence failure, surfaced in TenantStatus.
	meta    BaselineMeta
	lastErr string

	// Owned by the worker goroutine (plus the constructor, which
	// happens-before the worker starts): the monitor and the next report
	// sequence number.
	mon     *flowdiff.Monitor
	nextSeq uint64

	accepted atomic.Int64
	rejected atomic.Int64
	observed atomic.Int64
	windows  atomic.Int64
	alarms   atomic.Int64

	// Per-tenant instruments, registered once at creation under
	// serve.tenant.<id>.* so the obs snapshot breaks the service down by
	// tenant.
	depthGauge   *obs.Gauge
	flushHist    *obs.Histogram
	errCounter   *obs.Counter
	windowsCount *obs.Counter
}

// job is one unit of tenant work. Exactly one of events / flush / swap
// is set. done (when non-nil) receives the result exactly once; it must
// be buffered so an abandoned waiter never blocks the worker.
type job struct {
	events []flowlog.Event
	flush  bool
	swap   *flowlog.Log
	done   chan jobResult
}

type jobResult struct {
	// rec is the flushed window's persisted record (nil when the flush
	// abstained or the buffer was empty).
	rec  *ReportRecord
	meta BaselineMeta
	err  error
}

// enqueueEvents applies the backpressure contract: the whole batch is
// accepted (queued, counted, eventually observed) or rejected — never
// split. It returns the buffered event count after the decision.
func (t *tenant) enqueueEvents(events []flowlog.Event) (accepted bool, queued int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.queued+len(events) > t.srv.cfg.QueueBudget {
		t.rejected.Add(int64(len(events)))
		return false, t.queued
	}
	t.queued += len(events)
	t.queue = append(t.queue, job{events: events})
	t.accepted.Add(int64(len(events)))
	t.depthGauge.Set(int64(t.queued))
	t.cond.Signal()
	return true, t.queued
}

// enqueueOp queues a synchronous operation (flush or baseline swap).
// Operations don't consume event budget — they only ever shrink the
// backlog — but they respect queue order, so a flush observes every
// previously accepted event first.
func (t *tenant) enqueueOp(j job) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.queue = append(t.queue, j)
	t.cond.Signal()
	return true
}

// close stops the worker after the queue drains. Idempotent.
func (t *tenant) close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// run is the tenant worker: the only goroutine that touches t.mon. It
// drains the FIFO until close() is called and the queue is empty, so a
// graceful shutdown observes every accepted event.
func (t *tenant) run(ctx context.Context) {
	defer close(t.exited)
	for {
		t.mu.Lock()
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if len(t.queue) == 0 {
			t.mu.Unlock()
			return
		}
		j := t.queue[0]
		t.queue[0] = job{}
		t.queue = t.queue[1:]
		t.mu.Unlock()
		t.process(ctx, j)
	}
}

// process executes one job on the worker goroutine.
func (t *tenant) process(ctx context.Context, j job) {
	if t.srv.cfg.stall != nil {
		t.srv.cfg.stall(t.id)
	}
	switch {
	case j.events != nil:
		t.processEvents(ctx, j.events)
	case j.flush:
		rec, err := t.flush(ctx)
		j.done <- jobResult{rec: rec, err: err}
	case j.swap != nil:
		meta, err := t.swapBaseline(ctx, j.swap)
		j.done <- jobResult{meta: meta, err: err}
	}
}

// processEvents feeds a batch into the monitor, persisting any window
// reports its grid boundaries produce along the way. The observed count
// and the queue budget are settled once per batch, not per event.
func (t *tenant) processEvents(ctx context.Context, events []flowlog.Event) {
	observed := 0
	for i := range events {
		rep, err := t.mon.Observe(ctx, events[i])
		if err != nil {
			t.fail(err)
			continue
		}
		observed++
		if rep != nil {
			t.persist(rep)
		}
	}
	t.observed.Add(int64(observed))
	t.mu.Lock()
	t.queued -= len(events)
	t.depthGauge.Set(int64(t.queued))
	t.mu.Unlock()
}

// flush forces the buffered partial window out, timing it into the
// tenant's flush-latency histogram.
func (t *tenant) flush(ctx context.Context) (*ReportRecord, error) {
	start := t.srv.reg.Now()
	rep, err := t.mon.Flush(ctx)
	t.flushHist.Observe(t.srv.reg.Since(start))
	if err != nil {
		t.fail(err)
		return nil, err
	}
	if rep == nil {
		return nil, nil
	}
	return t.persist(rep), nil
}

// swapBaseline hot-swaps the monitor's baseline and persists the new
// capture; the version bumps only after both succeed.
func (t *tenant) swapBaseline(ctx context.Context, log *flowlog.Log) (BaselineMeta, error) {
	if err := t.mon.SwapBaseline(ctx, log); err != nil {
		t.fail(err)
		return BaselineMeta{}, err
	}
	t.mu.Lock()
	meta := t.meta
	t.mu.Unlock()
	meta.Version++
	meta.Events = len(log.Events)
	meta.Start, meta.End = log.Start, log.End
	meta.SavedAtUnixNS = t.srv.reg.Now().UnixNano()
	if err := t.srv.store.SaveBaseline(t.id, log, meta); err != nil {
		t.fail(err)
		return BaselineMeta{}, err
	}
	t.mu.Lock()
	t.meta = meta
	t.lastErr = ""
	t.mu.Unlock()
	return meta, nil
}

// persist writes one window report to the store (write-ahead: the
// record is durable before it becomes listable or acknowledged).
func (t *tenant) persist(rep *flowdiff.MonitorReport) *ReportRecord {
	rec := ReportRecord{
		Seq:           t.nextSeq + 1,
		From:          rep.From,
		To:            rep.To,
		SavedAtUnixNS: t.srv.reg.Now().UnixNano(),
		Report:        rep.Report,
	}
	if err := t.srv.store.SaveReport(t.id, rec); err != nil {
		t.fail(err)
		return nil
	}
	t.nextSeq++
	t.windows.Add(1)
	t.windowsCount.Inc()
	if len(rep.Report.Unknown) > 0 {
		t.alarms.Add(1)
	}
	return &rec
}

// fail records an ingest/persistence error in the tenant status and the
// per-tenant error counter; the stream itself keeps going.
func (t *tenant) fail(err error) {
	t.errCounter.Inc()
	t.mu.Lock()
	t.lastErr = err.Error()
	t.mu.Unlock()
}

// status snapshots the tenant for the API.
func (t *tenant) status() TenantStatus {
	t.mu.Lock()
	queued := t.queued
	meta := t.meta
	lastErr := t.lastErr
	t.mu.Unlock()
	return TenantStatus{
		ID:              t.id,
		BaselineVersion: meta.Version,
		BaselineEvents:  meta.Events,
		QueueDepth:      queued,
		QueueBudget:     t.srv.cfg.QueueBudget,
		EventsAccepted:  t.accepted.Load(),
		EventsRejected:  t.rejected.Load(),
		EventsObserved:  t.observed.Load(),
		Windows:         t.windows.Load(),
		Alarms:          t.alarms.Load(),
		LastError:       lastErr,
	}
}
