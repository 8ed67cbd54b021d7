package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/obs"
)

// The shared lab capture every test ingests: Seed-301 case 1, 30s of
// baseline and 30s of current traffic. Generated once per test binary.
var (
	capOnce sync.Once
	capRes  *flowdiff.ScenarioResult
	capErr  error
)

func capture(t *testing.T) *flowdiff.ScenarioResult {
	t.Helper()
	capOnce.Do(func() {
		capRes, capErr = flowdiff.RunScenario(flowdiff.Scenario{
			Seed:        301,
			Case:        1,
			BaselineDur: 30 * time.Second,
			FaultDur:    30 * time.Second,
		})
	})
	if capErr != nil {
		t.Fatalf("RunScenario: %v", capErr)
	}
	return capRes
}

// newTestServer boots a Server over a temp dir and an isolated
// registry, mounted on an httptest listener. mod edits the config
// before New.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Dir:      filepath.Join(t.TempDir(), "data"),
		Window:   10 * time.Second,
		Registry: obs.New(),
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func do(t *testing.T, method, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest %s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s %s body: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, data
}

func logBody(t *testing.T, log *flowlog.Log) []byte {
	t.Helper()
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatalf("marshaling log: %v", err)
	}
	return data
}

func putBaseline(t *testing.T, base, tenant string, log *flowlog.Log) {
	t.Helper()
	code, _, body := do(t, http.MethodPut, base+"/v1/tenants/"+tenant+"/baseline", logBody(t, log))
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("PUT baseline for %s: status %d, body %s", tenant, code, body)
	}
}

func postEvents(t *testing.T, base, tenant string, events []flowlog.Event) (int, http.Header, []byte) {
	t.Helper()
	return do(t, http.MethodPost, base+"/v1/tenants/"+tenant+"/events", logBody(t, &flowlog.Log{Events: events}))
}

// fetchReports reads a tenant's full report history back through the
// API as MonitorReports.
func fetchReports(t *testing.T, base, tenant string) []flowdiff.MonitorReport {
	t.Helper()
	code, _, body := do(t, http.MethodGet, base+"/v1/tenants/"+tenant+"/reports", nil)
	if code != http.StatusOK {
		t.Fatalf("GET reports for %s: status %d, body %s", tenant, code, body)
	}
	var list []ReportSummary
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decoding report list: %v", err)
	}
	var out []flowdiff.MonitorReport
	for _, sum := range list {
		code, _, body := do(t, http.MethodGet, fmt.Sprintf("%s/v1/tenants/%s/reports/%d", base, tenant, sum.Seq), nil)
		if code != http.StatusOK {
			t.Fatalf("GET report %d for %s: status %d, body %s", sum.Seq, tenant, code, body)
		}
		var rec ReportRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatalf("decoding report %d: %v", sum.Seq, err)
		}
		out = append(out, flowdiff.MonitorReport{From: rec.From, To: rec.To, Report: rec.Report})
	}
	return out
}

// offlineReports is the oracle every served report history must equal:
// an offline Monitor run over the capture's current events.
func offlineReports(t *testing.T, res *flowdiff.ScenarioResult, events []flowlog.Event) []flowdiff.MonitorReport {
	t.Helper()
	mon, err := flowdiff.NewMonitor(context.Background(), res.L1, 10*time.Second, nil, flowdiff.Thresholds{}, res.Options())
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	var reports []flowdiff.MonitorReport
	keep := func(rep *flowdiff.MonitorReport, err error) {
		if err != nil {
			t.Fatalf("offline monitor: %v", err)
		}
		if rep != nil {
			reports = append(reports, *rep)
		}
	}
	mon.ObserveBatch(context.Background(), events, keep)
	keep(mon.Flush(context.Background()))
	if len(reports) == 0 {
		t.Fatal("offline monitor produced no reports; the scenario is too quiet to pin equivalence")
	}
	return reports
}

// encodings are the two serializations an events body may use.
var encodings = map[string]func(*testing.T, *flowlog.Log) []byte{
	"json": logBody,
	"fdc1": func(t *testing.T, log *flowlog.Log) []byte {
		var b bytes.Buffer
		if err := colseg.Write(&b, log, colseg.WriterOptions{}); err != nil {
			t.Fatalf("encoding FDC1: %v", err)
		}
		return b.Bytes()
	},
}

// ingestAndFetch streams chunks into a fresh tenant in one encoding,
// flushes, and returns the served report history.
func ingestAndFetch(t *testing.T, base, tenant, encoding string, res *flowdiff.ScenarioResult, chunks [][]flowlog.Event) []flowdiff.MonitorReport {
	t.Helper()
	putBaseline(t, base, tenant, res.L1)
	for _, chunk := range chunks {
		body := encodings[encoding](t, &flowlog.Log{Events: chunk})
		if code, _, resp := do(t, http.MethodPost, base+"/v1/tenants/"+tenant+"/events", body); code != http.StatusAccepted {
			t.Fatalf("POST %s events for %s: status %d, body %s", encoding, tenant, code, resp)
		}
	}
	if code, _, body := do(t, http.MethodPost, base+"/v1/tenants/"+tenant+"/flush", nil); code != http.StatusOK {
		t.Fatalf("POST flush for %s: status %d, body %s", tenant, code, body)
	}
	return fetchReports(t, base, tenant)
}

// TestServeMatchesOfflineMonitor is the service's core contract: tenants
// ingest the same capture over HTTP, in each of the two encodings and
// in different chunkings, and each reads back a report history deeply
// equal to an offline Monitor run over the same events.
func TestServeMatchesOfflineMonitor(t *testing.T) {
	res := capture(t)
	want := offlineReports(t, res, res.L2.Events)
	_, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = len(res.L2.Events) + 1
	})

	// One big batch, or the same events split in three — chunking must
	// not change the diagnosis, nor must the encoding.
	evs := res.L2.Events
	chunkings := map[string][][]flowlog.Event{
		"whole":  {evs},
		"thirds": {evs[:len(evs)/3], evs[len(evs)/3 : 2*len(evs)/3], evs[2*len(evs)/3:]},
	}
	for _, encoding := range []string{"json", "fdc1"} {
		for _, chunking := range []string{"whole", "thirds"} {
			tenant := encoding + "-" + chunking
			if got := ingestAndFetch(t, ts.URL, tenant, encoding, res, chunkings[chunking]); !reflect.DeepEqual(got, want) {
				t.Errorf("tenant %s: served reports differ from the offline monitor run (%d vs %d reports)", tenant, len(got), len(want))
			}
		}
	}
}

// TestServeConcurrentFDC1Ingest: tenants posting FDC1 chunks at once
// share the recycled ingest batches and pooled decode state, and each
// still reads back the offline Monitor's reports.
func TestServeConcurrentFDC1Ingest(t *testing.T) {
	res := capture(t)
	want := offlineReports(t, res, res.L2.Events)
	_, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = len(res.L2.Events) + 1
	})
	var chunks [][]flowlog.Event
	for evs := res.L2.Events; len(evs) > 0; {
		n := min(len(evs), 700)
		chunks, evs = append(chunks, evs[:n]), evs[n:]
	}
	t.Run("tenants", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			tenant := fmt.Sprintf("fdc1-%d", i)
			t.Run(tenant, func(t *testing.T) {
				t.Parallel()
				if got := ingestAndFetch(t, ts.URL, tenant, "fdc1", res, chunks); !reflect.DeepEqual(got, want) {
					t.Errorf("served reports differ from the offline monitor run (%d vs %d reports)", len(got), len(want))
				}
			})
		}
	})
}

// TestServeJSONOntoAnFDC1Batch: FDC1 writes every field of every event
// it decodes, JSON leaves out the omitempty ones, and both decode onto
// the same recycled ingest batches. Chunks alternate: FDC1 with the
// capture's FlowRemoved counters, then JSON with every omitempty field
// zero, each posted once the previous batch is back in the pool. No
// counter an FDC1 chunk left in a slot may reach a JSON event: the
// reports equal an offline Monitor fed the same events.
func TestServeJSONOntoAnFDC1Batch(t *testing.T) {
	res := capture(t)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = len(res.L2.Events) + 1
	})
	putBaseline(t, ts.URL, "mixed", res.L1)
	tn, ok := srv.tenant("mixed")
	if !ok {
		t.Fatal("tenant missing after PUT baseline")
	}
	events := append([]flowlog.Event(nil), res.L2.Events...)
	const chunk = 400
	for lo, n := 0, 0; lo < len(events); lo, n = lo+chunk, n+1 {
		part, encoding := events[lo:min(lo+chunk, len(events))], "fdc1"
		if n%2 == 1 {
			encoding = "json"
			for i := range part {
				e := &part[i]
				e.DPID, e.InPort, e.OutPort, e.Bytes, e.Packets, e.FlowDuration, e.Reason = 0, 0, 0, 0, 0, 0, 0
			}
		}
		if code, _, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/mixed/events", encodings[encoding](t, &flowlog.Log{Events: part})); code != http.StatusAccepted {
			t.Fatalf("POST %s chunk %d: status %d, body %s", encoding, n, code, body)
		}
		// The worker recycles the batch right after the queue drains.
		for deadline := time.Now().Add(10 * time.Second); tn.status().QueueDepth > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("chunk %d still queued", n)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/mixed/flush", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", code, body)
	}
	if got, want := fetchReports(t, ts.URL, "mixed"), offlineReports(t, res, events); !reflect.DeepEqual(got, want) {
		t.Errorf("served reports differ from the offline monitor run (%d vs %d reports)", len(got), len(want))
	}
}

// TestBackpressureAtomicBatches pins the ingest contract: a batch that
// would exceed the budget is rejected whole with 429 + Retry-After,
// and everything accepted is eventually observed — nothing is dropped.
func TestBackpressureAtomicBatches(t *testing.T) {
	res := capture(t)
	gate := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	srv, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = 100
		c.stall = func(string) { <-gate }
	})
	putBaseline(t, ts.URL, "t", res.L1)

	first := res.L2.Events[:50]
	second := res.L2.Events[50:130]
	if code, _, body := postEvents(t, ts.URL, "t", first); code != http.StatusAccepted {
		t.Fatalf("first batch: status %d, body %s", code, body)
	}
	// The worker is stalled, so the 50 events stay queued; 80 more would
	// exceed the budget of 100 and must bounce whole.
	code, hdr, body := postEvents(t, ts.URL, "t", second)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch: status %d, body %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	var rej IngestResponse
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	if rej.Accepted != 0 || rej.Queued != 50 {
		t.Errorf("429 body = %+v, want Accepted=0 Queued=50 (whole-batch rejection)", rej)
	}

	close(gate)
	released = true
	// Retry once the queue has drained — the contract a client acts on,
	// seen where a client sees it — then flush (FIFO: the flush observes
	// every previously accepted event first).
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		code, _, body := do(t, http.MethodGet, ts.URL+"/v1/tenants/t", nil)
		var st TenantStatus
		if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil {
			t.Fatalf("GET tenant: status %d, body %s, %v", code, body, err)
		}
		if st.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue did not drain after the stall was released: %+v", st)
		}
	}
	if code, _, body := postEvents(t, ts.URL, "t", second); code != http.StatusAccepted {
		t.Fatalf("retried batch: status %d, body %s", code, body)
	}
	if code, _, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/t/flush", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", code, body)
	}
	tn, ok := srv.tenant("t")
	if !ok {
		t.Fatal("tenant vanished")
	}
	if got := tn.observed.Load(); got != int64(len(first)+len(second)) {
		t.Errorf("observed %d events, want %d: accepted events were dropped", got, len(first)+len(second))
	}
	if got := tn.rejected.Load(); got != int64(len(second)) {
		t.Errorf("rejected counter = %d, want %d", got, len(second))
	}
	st, ok := srv.tenant("t")
	if !ok || st.status().QueueDepth != 0 {
		t.Errorf("queue not drained: %+v", st.status())
	}
}

// TestEvictionDrainsBeforeDelete pins tenant eviction: DELETE waits
// for the worker to observe every accepted event before removing the
// tenant's files, and the evicted id rejects further ingest.
func TestEvictionDrainsBeforeDelete(t *testing.T) {
	res := capture(t)
	gate := make(chan struct{})
	srv, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = len(res.L2.Events) + 1
		c.stall = func(string) { <-gate }
	})
	putBaseline(t, ts.URL, "t", res.L1)
	events := res.L2.Events[:40]
	if code, _, body := postEvents(t, ts.URL, "t", events); code != http.StatusAccepted {
		t.Fatalf("POST events: status %d, body %s", code, body)
	}

	type delResult struct {
		code int
		body []byte
	}
	done := make(chan delResult, 1)
	go func() {
		code, _, body := do(t, http.MethodDelete, ts.URL+"/v1/tenants/t", nil)
		done <- delResult{code, body}
	}()
	// The DELETE can only finish once the stalled worker drains.
	close(gate)
	del := <-done
	if del.code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, body %s", del.code, del.body)
	}

	if _, err := os.Stat(filepath.Join(srv.store.Dir(), "t")); !os.IsNotExist(err) {
		t.Errorf("tenant directory survived eviction (stat err = %v)", err)
	}
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/v1/tenants/t", nil); code != http.StatusNotFound {
		t.Errorf("GET evicted tenant: status %d, want 404", code)
	}
	if code, _, _ := postEvents(t, ts.URL, "t", events); code != http.StatusConflict {
		t.Errorf("POST to evicted tenant: status %d, want 409", code)
	}
}

// TestGCRetention pins the retention contract, driven only by the
// registry clock that both stamps SavedAtUnixNS and sets GC's cutoff.
// GC removes a tenant's report log a segment at a time, once the
// segment's newest report is past retention: a report inside the
// window survives, and so does an expired one whose segment still
// holds an unexpired report. Once every report is past retention the
// segment goes, but the baseline does not.
func TestGCRetention(t *testing.T) {
	res := capture(t)
	reg := obs.New()
	base := time.Now()
	now := base
	reg.SetClock(func() time.Time { return now })
	srv, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = len(res.L2.Events) + 1
		c.Retention = time.Hour
		c.Registry = reg
	})
	putBaseline(t, ts.URL, "t", res.L1)
	// ingest posts events and flushes, so every report they produce is
	// saved at the clock's current time.
	ingest := func(events []flowlog.Event) {
		t.Helper()
		if code, _, body := postEvents(t, ts.URL, "t", events); code != http.StatusAccepted {
			t.Fatalf("POST events: status %d, body %s", code, body)
		}
		if code, _, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/t/flush", nil); code != http.StatusOK {
			t.Fatalf("flush: status %d, body %s", code, body)
		}
	}
	half := len(res.L2.Events) / 2
	ingest(res.L2.Events[:half])
	early := len(fetchReports(t, ts.URL, "t"))

	if removed := srv.RunGC(); removed != 0 {
		t.Fatalf("GC inside retention removed %d reports", removed)
	}
	if got := fetchReports(t, ts.URL, "t"); len(got) != early {
		t.Fatalf("%d of %d reports survived GC inside retention", len(got), early)
	}

	now = base.Add(50 * time.Minute)
	ingest(res.L2.Events[half:])
	all := len(fetchReports(t, ts.URL, "t"))
	if early == 0 || all == early {
		t.Fatalf("%d reports before the clock moved and %d after: each phase must save some", early, all)
	}
	// The early reports are past retention, but their segment also holds
	// the later ones.
	now = base.Add(90 * time.Minute)
	if removed := srv.RunGC(); removed != 0 {
		t.Fatalf("GC removed %d reports from a segment holding unexpired ones", removed)
	}
	if got := fetchReports(t, ts.URL, "t"); len(got) != all {
		t.Fatalf("%d of %d reports survived GC of a live segment", len(got), all)
	}

	now = base.Add(2 * time.Hour)
	if removed := srv.RunGC(); removed != all {
		t.Fatalf("GC past retention removed %d reports, want %d", removed, all)
	}
	if got := fetchReports(t, ts.URL, "t"); len(got) != 0 {
		t.Errorf("%d reports survived past retention", len(got))
	}
	// The baseline never expires.
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/v1/tenants/t/baseline", nil); code != http.StatusOK {
		t.Errorf("GET baseline after GC: status %d, want 200", code)
	}
}

// TestRestartRecovery pins crash-safety: a new server over the same
// directory rebuilds the tenant from its persisted baseline, keeps its
// report history, and continues the sequence numbering.
func TestRestartRecovery(t *testing.T) {
	res := capture(t)
	dir := filepath.Join(t.TempDir(), "data")
	cfg := Config{
		Dir:         dir,
		Window:      10 * time.Second,
		Options:     res.Options(),
		QueueBudget: len(res.L2.Events) + 1,
		Registry:    obs.New(),
	}
	srv1, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	putBaseline(t, ts1.URL, "t", res.L1)
	if code, _, body := postEvents(t, ts1.URL, "t", res.L2.Events); code != http.StatusAccepted {
		t.Fatalf("POST events: status %d, body %s", code, body)
	}
	if code, _, body := do(t, http.MethodPost, ts1.URL+"/v1/tenants/t/flush", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", code, body)
	}
	before := fetchReports(t, ts1.URL, "t")
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cfg.Registry = obs.New()
	srv2, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	code, _, body := do(t, http.MethodGet, ts2.URL+"/v1/tenants/t", nil)
	if code != http.StatusOK {
		t.Fatalf("GET recovered tenant: status %d, body %s", code, body)
	}
	var st TenantStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.BaselineVersion != 1 || st.BaselineEvents != len(res.L1.Events) {
		t.Errorf("recovered status = %+v, want baseline version 1 with %d events", st, len(res.L1.Events))
	}
	after := fetchReports(t, ts2.URL, "t")
	if !reflect.DeepEqual(after, before) {
		t.Errorf("report history changed across restart: %d vs %d reports", len(after), len(before))
	}
	tn, ok := srv2.tenant("t")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	if tn.nextSeq != uint64(len(before)) {
		t.Errorf("recovered nextSeq = %d, want %d (sequence must continue, not restart)", tn.nextSeq, len(before))
	}
}

// persistTenant writes the state a previous server run leaves behind
// for one tenant: its baseline and reports 1..reports.
func persistTenant(t *testing.T, store *Store, id string, log *flowlog.Log, reports int) {
	t.Helper()
	if err := store.SaveBaseline(id, log, BaselineMeta{Version: 1, Events: len(log.Events)}); err != nil {
		t.Fatalf("SaveBaseline %s: %v", id, err)
	}
	for seq := 1; seq <= reports; seq++ {
		if err := store.SaveReport(id, ReportRecord{Seq: uint64(seq)}); err != nil {
			t.Fatalf("SaveReport %s/%d: %v", id, seq, err)
		}
	}
}

// TestRestartRecoversEveryTenant boots a server over more persisted
// tenants than recovery runs at once, plus one whose baseline is
// corrupt. Every good tenant is rebuilt exactly once and continues its
// own numbering; the corrupt one is counted and skipped, and the
// serve.tenants gauge counts only the tenants that came back.
func TestRestartRecoversEveryTenant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	res := capture(t)
	dir := filepath.Join(t.TempDir(), "data")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	const good = 2*4 + 1
	for i := 0; i < good; i++ {
		persistTenant(t, store, fmt.Sprintf("t%d", i), res.L1, i)
	}
	persistTenant(t, store, "corrupt", res.L1, 0)
	if err := os.WriteFile(filepath.Join(dir, "corrupt", "baseline.fdc"), []byte("not a capture"), 0o644); err != nil {
		t.Fatalf("corrupting baseline: %v", err)
	}

	reg := obs.New()
	srv, err := New(context.Background(), Config{Dir: dir, Window: 10 * time.Second, Options: res.Options(), Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	for i := 0; i < good; i++ {
		id := fmt.Sprintf("t%d", i)
		tn, ok := srv.tenant(id)
		if !ok {
			t.Errorf("tenant %s not recovered", id)
			continue
		}
		if tn.nextSeq != uint64(i) {
			t.Errorf("tenant %s: nextSeq = %d, want %d", id, tn.nextSeq, i)
		}
	}
	if _, ok := srv.tenant("corrupt"); ok {
		t.Error("the tenant with a corrupt baseline was recovered")
	}
	snap := reg.Snapshot()
	// Each recovered monitor analyzes its baseline's stability once.
	if got := snap.Histograms["span.signature.stability"].Count; got != good {
		t.Errorf("%d baseline builds, want one per good tenant (%d)", got, good)
	}
	if got := snap.Counters["serve.recover.errors"]; got != 1 {
		t.Errorf("serve.recover.errors = %d, want 1", got)
	}
	if got := snap.Gauges["serve.tenants"].Value; got != good {
		t.Errorf("serve.tenants = %d, want %d (the tenants that recovered)", got, good)
	}
}

// TestCanceledRecoveryLeavesNoGoroutines cancels ctx while New rebuilds
// the second of three persisted tenants. New must fail with the
// cancellation and join the worker of the tenant it already started.
func TestCanceledRecoveryLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := capture(t)
	boot := func(tenants int, clock func(cancel context.CancelFunc) obs.Clock) (*Server, error) {
		dir := filepath.Join(t.TempDir(), "data")
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		for i := 0; i < tenants; i++ {
			persistTenant(t, store, fmt.Sprintf("t%d", i), res.L1, 0)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reg := obs.New()
		reg.SetClock(clock(cancel))
		return New(ctx, Config{Dir: dir, Window: 10 * time.Second, Options: res.Options(), Registry: reg})
	}

	// One tenant's recovery reads the registry clock perTenant times.
	var reads atomic.Int64
	counting := func(context.CancelFunc) obs.Clock {
		return func() time.Time { reads.Add(1); return time.Now() }
	}
	srv, err := boot(1, counting)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	perTenant := reads.Load()
	srv.Close()
	if perTenant < 2 {
		t.Fatalf("one tenant's recovery read the clock %d times; cannot cancel inside a build", perTenant)
	}

	before := runtime.NumGoroutine()
	reads.Store(0)
	cancelAt := perTenant + (perTenant+1)/2
	_, err = boot(3, func(cancel context.CancelFunc) obs.Clock {
		return func() time.Time {
			if reads.Add(1) == cancelAt {
				cancel()
			}
			return time.Now()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("New = %v, want an error wrapping context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutine leak: %d before New, still %d after it failed", before, n)
	}
}

// TestSnapshotShowsTenantMetrics pins the observability contract: the
// obs snapshot of a serving registry carries per-tenant queue-depth
// and flush-latency instruments.
func TestSnapshotShowsTenantMetrics(t *testing.T) {
	res := capture(t)
	reg := obs.New()
	_, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = len(res.L2.Events) + 1
		c.Registry = reg
	})
	putBaseline(t, ts.URL, "t", res.L1)
	if code, _, body := postEvents(t, ts.URL, "t", res.L2.Events); code != http.StatusAccepted {
		t.Fatalf("POST events: status %d, body %s", code, body)
	}
	if code, _, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/t/flush", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", code, body)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Gauges["serve.tenant.t.queue.depth"]; !ok {
		t.Error("snapshot is missing the per-tenant queue-depth gauge")
	}
	if h, ok := snap.Histograms["serve.tenant.t.flush"]; !ok || h.Count == 0 {
		t.Errorf("snapshot is missing per-tenant flush observations (ok=%v, %+v)", ok, h)
	}
}

// TestDeleteTenantRemovesItsInstruments: after DELETE no
// serve.tenant.<id>.* instrument of the tenant is left in the snapshot
// (those of a tenant whose id it prefixes stay), and a tenant re-created
// under the same id counts from zero.
func TestDeleteTenantRemovesItsInstruments(t *testing.T) {
	res := capture(t)
	reg := obs.New()
	_, ts := newTestServer(t, func(c *Config) {
		c.Options = res.Options()
		c.QueueBudget = len(res.L2.Events) + 1
		c.Registry = reg
	})
	for _, tenant := range []string{"t", "t.x"} {
		if got := ingestAndFetch(t, ts.URL, tenant, "fdc1", res, [][]flowlog.Event{res.L2.Events}); len(got) == 0 {
			t.Fatalf("tenant %s produced no windows", tenant)
		}
	}
	if code, _, body := do(t, http.MethodDelete, ts.URL+"/v1/tenants/t", nil); code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, body %s", code, body)
	}
	snap := reg.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, "serve.tenant.t.") && !strings.HasPrefix(name, "serve.tenant.t.x.") {
			t.Errorf("instrument %s outlived its tenant", name)
		}
	}
	if snap.Counters["serve.tenant.t.x.windows"] == 0 {
		t.Error("deleting tenant t removed tenant t.x's instruments")
	}
	putBaseline(t, ts.URL, "t", res.L1)
	if got := reg.Counter("serve.tenant.t.windows").Value(); got != 0 {
		t.Errorf("re-created tenant starts at %d windows, want 0", got)
	}
}

// TestServeCloseLeavesNoGoroutines proves at run time that Close joins
// every goroutine the service starts: the tenant workers (a recovered
// one, one created over the API, one a DELETE already drained), the GC
// loop and the cancellation watcher. Each round parks one kind of
// goroutine inside its work while Close runs — a tenant worker in its
// stall hook, the GC loop in the registry clock RunGC reads — and Close
// must not return before it is let go. After both rounds the goroutine
// count settles back to its value before the first New.
func TestServeCloseLeavesNoGoroutines(t *testing.T) {
	res := capture(t)
	before := runtime.NumGoroutine()
	for _, held := range []string{"tenant worker", "GC loop"} {
		var armed atomic.Bool
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		park := func() {
			if !armed.Load() {
				return
			}
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
		reg := obs.New()
		cfg := Config{
			Dir:         filepath.Join(t.TempDir(), "data"),
			Window:      10 * time.Second,
			Options:     res.Options(),
			QueueBudget: len(res.L2.Events) + 1,
			GCInterval:  time.Millisecond,
			Registry:    reg,
		}
		if held == "tenant worker" {
			cfg.stall = func(string) { park() }
		} else {
			reg.SetClock(func() time.Time { park(); return time.Now() })
		}
		// A tenant persisted by an earlier run: New recovers it on a
		// goroutine of its own.
		store, err := OpenStore(cfg.Dir)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		if err := store.SaveBaseline("recovered", res.L1, BaselineMeta{Version: 1, Events: len(res.L1.Events)}); err != nil {
			t.Fatalf("SaveBaseline: %v", err)
		}
		srv, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, ok := srv.tenant("recovered"); !ok {
			t.Fatal("the persisted tenant was not recovered")
		}
		// Requests go straight to the handler: no listener or client
		// goroutines blur the count.
		call := func(method, path string, body []byte, want int) {
			t.Helper()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code != want {
				t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, rec.Code, want, rec.Body)
			}
		}
		events := logBody(t, &flowlog.Log{Events: res.L2.Events[:200]})
		call(http.MethodPut, "/v1/tenants/live/baseline", logBody(t, res.L1), http.StatusCreated)
		call(http.MethodPost, "/v1/tenants/live/events", events, http.StatusAccepted)
		call(http.MethodPost, "/v1/tenants/live/flush", nil, http.StatusOK)
		call(http.MethodDelete, "/v1/tenants/recovered", nil, http.StatusNoContent)

		// The flush left every worker idle, so the first goroutine to
		// reach the park point once it is armed is the one held.
		armed.Store(true)
		if held == "tenant worker" {
			call(http.MethodPost, "/v1/tenants/live/events", events, http.StatusAccepted)
		}
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s reached the park point", held)
		}
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Errorf("Close returned while a %s was still running", held)
		case <-time.After(100 * time.Millisecond):
		}
		close(release)
		<-closed
	}

	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutine leak: %d before New, still %d after Close and settling", before, n)
	}
}

// TestIngestMalformedJSONNamesOffset: a client whose JSON batch is
// rejected is told where in its body the decoder stopped and what it
// wanted there, and nothing of the batch is queued.
func TestIngestMalformedJSONNamesOffset(t *testing.T) {
	res := capture(t)
	srv, ts := newTestServer(t, func(c *Config) { c.Options = res.Options() })
	putBaseline(t, ts.URL, "t", res.L1)
	body := []byte(`{"events":[{"t":1,"type":"PacketIn"},{"t":x}]}`)
	code, _, resp := do(t, http.MethodPost, ts.URL+"/v1/tenants/t/events", body)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, body %s", code, resp)
	}
	want := fmt.Sprintf("offset %d: expected a digit, found 'x'", bytes.IndexByte(body, 'x'))
	if !bytes.Contains(resp, []byte(want)) {
		t.Errorf("400 body %s does not say %q", resp, want)
	}
	if tn, ok := srv.tenant("t"); !ok || tn.status().EventsAccepted != 0 {
		t.Errorf("a rejected batch was accepted in part")
	}
}

// TestBaselineIPv6Rejected: a baseline is persisted as FDC1, which
// carries IPv4 flows only, so a JSON baseline holding an IPv6 flow gets
// a 400 on both PUT paths, creating a tenant and hot-swapping one,
// before anything commits: the server stays up, no tenant appears, the
// existing tenant keeps its baseline bytes and version, and no temp
// file is left behind.
func TestBaselineIPv6Rejected(t *testing.T) {
	res := capture(t)
	srv, ts := newTestServer(t, func(c *Config) { c.Options = res.Options() })
	v6 := *res.L1
	v6.Events = append([]flowlog.Event(nil), res.L1.Events...)
	v6.Events[len(v6.Events)/2].Flow.Src = netip.MustParseAddr("2001:db8::1")
	rejected := func(tenant string) {
		t.Helper()
		code, _, body := do(t, http.MethodPut, ts.URL+"/v1/tenants/"+tenant+"/baseline", logBody(t, &v6))
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte("IPv4")) {
			t.Fatalf("PUT IPv6 baseline for %s: status %d, body %s; want 400 saying FDC1 carries IPv4 only", tenant, code, body)
		}
	}

	rejected("fresh")
	if code, _, body := do(t, http.MethodGet, ts.URL+"/v1/tenants/fresh", nil); code != http.StatusNotFound {
		t.Errorf("rejected new tenant exists: status %d, body %s", code, body)
	}

	putBaseline(t, ts.URL, "t", res.L1)
	_, hdr, before := do(t, http.MethodGet, ts.URL+"/v1/tenants/t/baseline", nil)
	rejected("t")
	code, after, data := do(t, http.MethodGet, ts.URL+"/v1/tenants/t/baseline", nil)
	if code != http.StatusOK || !bytes.Equal(data, before) {
		t.Errorf("rejected swap changed the stored baseline (status %d)", code)
	}
	if v, w := after.Get("Flowdiff-Baseline-Version"), hdr.Get("Flowdiff-Baseline-Version"); v != w {
		t.Errorf("rejected swap moved the baseline version %s -> %s", w, v)
	}
	if tn, ok := srv.tenant("t"); !ok || tn.status().LastError != "" {
		t.Errorf("rejected swap reached the tenant worker")
	}
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after the rejections: status %d", code)
	}
	err := filepath.WalkDir(srv.cfg.Dir, func(path string, _ os.DirEntry, err error) error {
		if err == nil && strings.Contains(filepath.Base(path), ".tmp") {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFDL1BodyRejected: a body in the retired row-binary format
// gets a 400 naming FDL1 from both PUT baseline and POST events.
func TestRetiredFDL1BodyRejected(t *testing.T) {
	res := capture(t)
	_, ts := newTestServer(t, func(c *Config) { c.Options = res.Options() })
	// An FDL1 header: magic, start, end, event count.
	body := append([]byte("FDL1"), make([]byte, 20)...)
	putBaseline(t, ts.URL, "t", res.L1)
	for _, req := range []struct{ method, path string }{
		{http.MethodPut, "/v1/tenants/fresh/baseline"},
		{http.MethodPut, "/v1/tenants/t/baseline"},
		{http.MethodPost, "/v1/tenants/t/events"},
	} {
		code, _, resp := do(t, req.method, ts.URL+req.path, body)
		if code != http.StatusBadRequest || !bytes.Contains(resp, []byte("FDL1 (row binary) is a retired")) {
			t.Errorf("%s %s: status %d, body %s; want a 400 naming FDL1", req.method, req.path, code, resp)
		}
	}
}

// TestHandlerGoldens pins the exact JSON envelope of every /v1 route's
// deterministic response, so the wire format can't drift silently.
func TestHandlerGoldens(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, method, path string
		body               []byte
		wantCode           int
		wantBody           string
	}{
		{"healthz", http.MethodGet, "/healthz", nil, 200,
			"{\n  \"status\": \"ok\"\n}\n"},
		{"readyz", http.MethodGet, "/readyz", nil, 200,
			"{\n  \"status\": \"ok\"\n}\n"},
		{"list tenants empty", http.MethodGet, "/v1/tenants", nil, 200,
			"{\n  \"tenants\": []\n}\n"},
		{"get unknown tenant", http.MethodGet, "/v1/tenants/ghost", nil, 404,
			"{\n  \"error\": \"unknown tenant \\\"ghost\\\"\"\n}\n"},
		{"invalid tenant id", http.MethodGet, "/v1/tenants/.hidden", nil, 400,
			"{\n  \"error\": \"invalid tenant id \\\".hidden\\\": want 1-64 chars of [a-zA-Z0-9._-], not starting with a dot\"\n}\n"},
		{"delete unknown tenant", http.MethodDelete, "/v1/tenants/ghost", nil, 404,
			"{\n  \"error\": \"unknown tenant \\\"ghost\\\"\"\n}\n"},
		{"put empty baseline", http.MethodPut, "/v1/tenants/ghost/baseline", []byte("{}"), 400,
			"{\n  \"error\": \"baseline has no events\"\n}\n"},
		{"get baseline unknown tenant", http.MethodGet, "/v1/tenants/ghost/baseline", nil, 404,
			"{\n  \"error\": \"unknown tenant \\\"ghost\\\"\"\n}\n"},
		{"ingest without baseline", http.MethodPost, "/v1/tenants/ghost/events", []byte("{}"), 409,
			"{\n  \"error\": \"tenant \\\"ghost\\\" has no baseline; PUT /v1/tenants/ghost/baseline first\"\n}\n"},
		{"flush without baseline", http.MethodPost, "/v1/tenants/ghost/flush", nil, 409,
			"{\n  \"error\": \"tenant \\\"ghost\\\" has no baseline; PUT /v1/tenants/ghost/baseline first\"\n}\n"},
		{"list reports unknown tenant", http.MethodGet, "/v1/tenants/ghost/reports", nil, 404,
			"{\n  \"error\": \"unknown tenant \\\"ghost\\\"\"\n}\n"},
		{"get report unknown tenant", http.MethodGet, "/v1/tenants/ghost/reports/1", nil, 404,
			"{\n  \"error\": \"unknown tenant \\\"ghost\\\"\"\n}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := do(t, tc.method, ts.URL+tc.path, tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", code, tc.wantCode, body)
			}
			if string(body) != tc.wantBody {
				t.Errorf("body mismatch:\n got: %q\nwant: %q", body, tc.wantBody)
			}
		})
	}
}
