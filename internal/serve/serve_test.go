package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog"
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

// TestServeMatchesOfflineMonitor is the service's core contract: two
// tenants ingest the same capture over HTTP (in different chunkings)
// and each reads back a report history deeply equal to an offline
// Monitor run over the same events.
func TestServeMatchesOfflineMonitor(t *testing.T) {
	res := capture(t)
	opts := res.Options()
	const window = 10 * time.Second

	mon, err := flowdiff.NewMonitor(context.Background(), res.L1, window, nil, flowdiff.Thresholds{}, opts)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	for _, e := range res.L2.Events {
		if _, err := mon.Observe(context.Background(), e); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if _, err := mon.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := mon.Reports()
	if len(want) == 0 {
		t.Fatal("offline monitor produced no reports; the scenario is too quiet to pin equivalence")
	}

	_, ts := newTestServer(t, func(c *Config) {
		c.Options = opts
		c.QueueBudget = len(res.L2.Events) + 1
	})

	// Tenant A streams one big batch; tenant B the same events split in
	// three — chunking must not change the diagnosis.
	chunks := map[string][][]flowlog.Event{
		"tenant-a": {res.L2.Events},
		"tenant-b": {
			res.L2.Events[:len(res.L2.Events)/3],
			res.L2.Events[len(res.L2.Events)/3 : 2*len(res.L2.Events)/3],
			res.L2.Events[2*len(res.L2.Events)/3:],
		},
	}
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		putBaseline(t, ts.URL, tenant, res.L1)
		for _, chunk := range chunks[tenant] {
			code, _, body := postEvents(t, ts.URL, tenant, chunk)
			if code != http.StatusAccepted {
				t.Fatalf("POST events for %s: status %d, body %s", tenant, code, body)
			}
		}
		code, _, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/"+tenant+"/flush", nil)
		if code != http.StatusOK {
			t.Fatalf("POST flush for %s: status %d, body %s", tenant, code, body)
		}
		got := fetchReports(t, ts.URL, tenant)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %s: served reports differ from the offline monitor run (%d vs %d reports)", tenant, len(got), len(want))
		}
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

// TestGCRetention pins the retention contract: an unfetched report
// inside the retention window survives GC; once the (injected) clock
// passes retention, the report is collected but the baseline is not.
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
	if code, _, body := postEvents(t, ts.URL, "t", res.L2.Events); code != http.StatusAccepted {
		t.Fatalf("POST events: status %d, body %s", code, body)
	}
	var flushed FlushResponse
	code, _, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/t/flush", nil)
	if code != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", code, body)
	}
	if err := json.Unmarshal(body, &flushed); err != nil {
		t.Fatalf("decoding flush response: %v", err)
	}

	if removed := srv.RunGC(); removed != 0 {
		t.Fatalf("GC inside retention removed %d reports", removed)
	}
	if got := fetchReports(t, ts.URL, "t"); len(got) == 0 {
		t.Fatal("reports vanished inside retention")
	}

	now = base.Add(2 * time.Hour)
	if removed := srv.RunGC(); removed == 0 {
		t.Fatal("GC past retention removed nothing")
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
