package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("events") != c {
		t.Error("Counter is not idempotent per name")
	}

	g := r.Gauge("active")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Errorf("gauge value = %d, want 1", got)
	}
	if got := g.Max(); got != 5 {
		t.Errorf("gauge max = %d, want 5", got)
	}

	h := r.Histogram("flush")
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		h.Observe(d)
	}
	if got := h.Count(); got != 3 {
		t.Errorf("hist count = %d, want 3", got)
	}
	if got := h.Sum(); got != 60*time.Millisecond {
		t.Errorf("hist sum = %v, want 60ms", got)
	}
	if got := h.Min(); got != 10*time.Millisecond {
		t.Errorf("hist min = %v, want 10ms", got)
	}
	if got := h.Max(); got != 30*time.Millisecond {
		t.Errorf("hist max = %v, want 30ms", got)
	}
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Errorf("hist mean = %v, want 20ms", got)
	}
	if got := h.Quantile(0.5); got != 20*time.Millisecond {
		t.Errorf("hist p50 = %v, want 20ms", got)
	}
}

// TestNilRegistryIsDisabled pins the "obs off" contract: a nil registry
// (and everything it hands out) is a total no-op, so WithRegistry(ctx,
// nil) disables collection without a single branch in instrumented code.
func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Add(2)
	r.Histogram("z").Observe(time.Second)
	r.Span("stage").End()
	r.SetClock(func() time.Time { return time.Time{} })
	r.Reset()
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter = %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}

	ctx := WithRegistry(context.Background(), nil)
	if got := From(ctx); got != nil {
		t.Errorf("From(WithRegistry(nil)) = %v, want nil", got)
	}
	Span(ctx, "stage").End() // must not panic or touch Default
}

func TestFromDefaultsAndInjection(t *testing.T) {
	if got := From(context.Background()); got != Default() {
		t.Error("From(background) should be the Default registry")
	}
	r := New()
	if got := From(WithRegistry(context.Background(), r)); got != r {
		t.Error("From should return the injected registry")
	}
}

// TestSpanUsesInjectedClock pins the Clock seam: spans must read time
// only through the registry clock, so a fake clock fully determines the
// recorded duration.
func TestSpanUsesInjectedClock(t *testing.T) {
	r := New()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { return now })
	sp := r.Span("stage")
	now = now.Add(250 * time.Millisecond)
	sp.End()
	h := r.Histogram(SpanPrefix + "stage")
	if got := h.Max(); got != 250*time.Millisecond {
		t.Errorf("span recorded %v, want 250ms", got)
	}
	if got := h.Count(); got != 1 {
		t.Errorf("span count = %d, want 1", got)
	}
}

// TestWarmSpanAllocatesNothing pins the span fast path: a span is a
// value, and a registry that has seen the name finds its histogram
// without building "span." + name. Removing the histogram drops the
// lookup too, so the next span records into a fresh one.
func TestWarmSpanAllocatesNothing(t *testing.T) {
	r := New()
	// Fill the histogram's sample ring first: it grows until full.
	for range histKeep {
		r.Span("x").End()
	}
	if got := testing.AllocsPerRun(100, func() { r.Span("x").End() }); got != 0 {
		t.Errorf("warm span allocates %v times, want 0", got)
	}
	var off *Registry
	if got := testing.AllocsPerRun(100, func() { off.Span("x").End() }); got != 0 {
		t.Errorf("disabled span allocates %v times, want 0", got)
	}
	r.Remove(SpanPrefix + "x")
	r.Span("x").End()
	if got := r.Histogram(SpanPrefix + "x").Count(); got != 1 {
		t.Errorf("span after Remove: histogram count %d, want 1", got)
	}
}

func TestSnapshotAndExpvarString(t *testing.T) {
	r := New()
	r.Counter("a").Add(7)
	r.Gauge("b").Add(2)
	r.Histogram("c").Observe(time.Millisecond)

	var decoded Snapshot
	if err := json.Unmarshal([]byte(r.String()), &decoded); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
	if decoded.Counters["a"] != 7 {
		t.Errorf("decoded counter a = %d, want 7", decoded.Counters["a"])
	}
	if decoded.Gauges["b"].Max != 2 {
		t.Errorf("decoded gauge b max = %d, want 2", decoded.Gauges["b"].Max)
	}
	if decoded.Histograms["c"].Count != 1 {
		t.Errorf("decoded hist c count = %d, want 1", decoded.Histograms["c"].Count)
	}

	r.Reset()
	snap := r.Snapshot()
	if snap.Counters["a"] != 0 || snap.Histograms["c"].Count != 0 {
		t.Errorf("Reset did not zero metrics: %+v", snap)
	}
}

func TestWriteSummary(t *testing.T) {
	r := New()
	r.Counter("monitor.windows").Add(3)
	r.Gauge("serve.tenants").Add(2)
	r.Histogram("span.extract").Observe(5 * time.Millisecond)
	var sb strings.Builder
	if err := WriteSummary(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"span.extract", "monitor.windows", "serve.tenants", "timings:", "counters:", "gauges:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := New()
	r.Counter("hits").Inc()
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap.Counters["hits"] != 1 {
		t.Errorf("/metrics hits = %d, want 1", snap.Counters["hits"])
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	if code, _ := get("/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars status = %d", code)
	}
}

func TestServeBindsAndStops(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}

// TestConcurrentMetricOps hammers one registry from many goroutines so
// -race proves the atomics and locking are sound, and the totals prove
// no update is lost.
func TestConcurrentMetricOps(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
				r.Histogram("h").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("h").Count(); got != workers*perWorker {
		t.Errorf("hist count = %d, want %d", got, workers*perWorker)
	}
}
