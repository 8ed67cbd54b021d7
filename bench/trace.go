package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"flowdiff"
	"flowdiff/bench/gen"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/obs"
	"flowdiff/internal/serve"
)

// span is one timed call at a layer boundary, recorded by the harness
// around the call (the program gains no span of its own here). Spans of
// one window cycle share Window; Parent is an index into the trace.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Window  int    `json:"window"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	windows int
}

func (t *tracer) newWindow() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.windows++
	return t.windows - 1
}

func (t *tracer) add(name string, start, end time.Time, parent, window int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds(), parent, window})
	return len(t.spans) - 1
}

// timed runs fn as a child span.
func (t *tracer) timed(name string, parent, window int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, start, time.Now(), parent, window)
	return err
}

// durations returns every span's length in ms, by name.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e6)
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// shadow replays a writer's windows through the layers' public
// functions against its own Monitor and Store. What the service spends
// on a window beyond these calls is its own overhead.
type shadow struct {
	ctx    context.Context // carries the shadow's registry, not the server's
	store  *serve.Store
	mon    *flowdiff.Monitor
	newMS  []float64
	loadUS []float64
	events int
	// saveBaselineMS times the baseline save that opens each shadow
	// tenant; baselineBytes is what those saves put on disk.
	saveBaselineMS []float64
	baselineBytes  int64
}

func newShadow(ctx context.Context, dir string) (*shadow, error) {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	return &shadow{ctx: obs.WithRegistry(ctx, obs.New()), store: store}, nil
}

// decodeBody reads one request body the way the service's ingest does:
// by magic prefix.
func decodeBody(ctx context.Context, body []byte) (*flowlog.Log, error) {
	if bytes.HasPrefix(body, []byte("FDC1")) {
		cr, err := colseg.NewReaderContext(ctx, bufio.NewReader(bytes.NewReader(body)), colseg.ReaderOptions{})
		if err != nil {
			return nil, err
		}
		return cr.ReadAll()
	}
	return flowlog.ReadJSON(bufio.NewReader(bytes.NewReader(body)))
}

// replay records the cycle the writer just finished, replays its window
// through decode → observe → flush → save, and requires the served
// report to equal the shadow's.
func (s *shadow) replay(ctx context.Context, w *writer, pos chainPos) error {
	tr := w.tracer
	id := tr.newWindow()
	root := tr.add("window", w.ct.start, w.ct.end, -1, id)
	prev := w.ct.start
	for _, t := range w.ct.posts {
		tr.add("serve.ingest_post", prev, t, root, id)
		prev = t
	}
	tr.add("serve.flush_post", prev, w.ct.end, root, id)

	in := w.in
	tenant := w.tenant(pos.tenant)
	if pos.window == 0 {
		t0 := time.Now()
		mon, err := flowdiff.NewMonitor(s.ctx, in.baseLog, gen.Window, nil, flowdiff.Thresholds{}, in.opts)
		if err != nil {
			return err
		}
		s.newMS = append(s.newMS, ms(time.Since(t0)))
		s.mon = mon
		t0 = time.Now()
		if err := s.store.SaveBaseline(tenant, in.baseLog, serve.BaselineMeta{Version: 1, Events: len(in.baseLog.Events)}); err != nil {
			return err
		}
		s.saveBaselineMS = append(s.saveBaselineMS, ms(time.Since(t0)))
		n, err := dirBytes(filepath.Join(s.store.Dir(), tenant))
		if err != nil {
			return err
		}
		s.baselineBytes += n
	}

	start := time.Now()
	var logs []*flowlog.Log
	var rep *flowdiff.MonitorReport
	sroot := tr.add("shadow", start, start, -1, id)
	err := tr.timed("flowlog.decode", sroot, id, func() error {
		for _, body := range in.bodies[pos.window] {
			l, err := decodeBody(s.ctx, body)
			if err != nil {
				return err
			}
			logs = append(logs, l)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = tr.timed("monitor.observe", sroot, id, func() error {
		for _, l := range logs {
			for i := range l.Events {
				if _, err := s.mon.Observe(s.ctx, l.Events[i]); err != nil {
					return err
				}
			}
			s.events += len(l.Events)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = tr.timed("monitor.flush", sroot, id, func() (err error) {
		rep, err = s.mon.Flush(s.ctx)
		return err
	})
	if err != nil {
		return err
	}
	if rep == nil {
		return fmt.Errorf("%s window %d: shadow monitor produced no report", tenant, pos.window)
	}
	seq := uint64(pos.window + 1)
	err = tr.timed("store.save_report", sroot, id, func() error {
		return s.store.SaveReport(tenant, serve.ReportRecord{Seq: seq, From: rep.From, To: rep.To, Report: rep.Report})
	})
	if err != nil {
		return err
	}
	tr.mu.Lock()
	tr.spans[sroot].EndNS = time.Since(tr.origin).Nanoseconds()
	tr.mu.Unlock()

	// Both sides have been through the store's encoding, so equality is
	// on what a reader of either would see.
	t0 := time.Now()
	mine, err := s.store.LoadReport(tenant, seq)
	if err != nil {
		return err
	}
	s.loadUS = append(s.loadUS, float64(time.Since(t0).Nanoseconds())/1e3)
	var served serve.ReportRecord
	st, err := w.c.do(ctx, http.MethodGet, "/v1/tenants/"+tenant+"/reports/"+strconv.FormatUint(seq, 10), nil, &served)
	if err != nil || st != http.StatusOK {
		return fmt.Errorf("%s report %d: status %d: %v", tenant, seq, st, err)
	}
	if served.Seq != mine.Seq || served.From != mine.From || served.To != mine.To || !reflect.DeepEqual(served.Report, mine.Report) {
		return fmt.Errorf("%s report %d: served report differs from the shadow Monitor's", tenant, seq)
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// regDelta is what the program's own obs instruments recorded between
// two snapshots of the harness-owned registry.
type regDelta struct{ before, after obs.Snapshot }

func (d regDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// spanMS is the time a span accumulated, in ms.
func (d regDelta) spanMS(name string) float64 {
	name = obs.SpanPrefix + name
	return float64(d.after.Histograms[name].SumNS-d.before.Histograms[name].SumNS) / 1e6
}

// obsLayers copies the per-operation sums of the existing spans and
// counters into the layer metrics; ops is the number of windows or
// compares the delta covers.
func obsLayers(m *metricSet, d regDelta, ops float64) {
	if ops == 0 {
		return
	}
	for _, s := range []string{"signature.extract", "signature.groups", "signature.app", "signature.infra", "signature.stability", "diff.compare", "parallel.queue_wait"} {
		m.set(s+"_ms", d.spanMS(s)/ops)
	}
	m.set("signature.occurrences", d.counter("signature.occurrences")/ops)
	m.set("diff.changes", d.counter("diff.changes")/ops)
	m.set("diagnose.votes", d.counter("diagnose.votes"))
	m.set("colseg.segments_read", d.counter("colseg.segments.read"))
	m.set("colseg.bytes_decoded", d.counter("colseg.bytes.decoded"))
	m.set("monitor.windows", d.counter("monitor.windows"))
	m.set("monitor.abstained", d.counter("monitor.abstained"))
	m.set("parallel.active_max", float64(d.after.Gauges["parallel.active"].Max))
}

// runtimeLayers reports the Go runtime's share between two MemStats.
func runtimeLayers(m *metricSet, before, after *runtime.MemStats) {
	m.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.set("runtime.num_gc", float64(after.NumGC-before.NumGC))
	// HeapSys only grows, so its last reading is the peak.
	m.set("runtime.heap_peak_mb", float64(after.HeapSys)/(1<<20))
}

// probeFlushAlloc replays the first windows through a fresh Monitor
// alone on the process and returns the bytes Flush allocates per event.
func probeFlushAlloc(ctx context.Context, in *streamInputs) (float64, error) {
	mon, err := flowdiff.NewMonitor(ctx, in.baseLog, gen.Window, nil, flowdiff.Thresholds{}, in.opts)
	if err != nil {
		return 0, err
	}
	var ms0, ms1 runtime.MemStats
	var bytes uint64
	events := 0
	for w := 0; w < len(in.bodies) && w < 10; w++ {
		evs := in.gen.StreamWindow(w).Events
		for i := range evs {
			if _, err := mon.Observe(ctx, evs[i]); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&ms0)
		if _, err := mon.Flush(ctx); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms1)
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		events += len(evs)
	}
	return float64(bytes) / float64(events), nil
}

// probeDiagnose times a direct flowdiff.Diagnose on the change set of
// an alarming window.
func probeDiagnose(ctx context.Context, in *streamInputs) (float64, error) {
	w := 0
	if len(in.bodies) >= gen.ShiftEvery {
		w = gen.ShiftEvery - 1
	}
	base, err := flowdiff.BuildSignatures(ctx, in.baseLog, in.opts)
	if err != nil {
		return 0, err
	}
	cur, err := flowdiff.BuildSignatures(ctx, in.gen.StreamWindow(w), in.opts)
	if err != nil {
		return 0, err
	}
	changes := flowdiff.Diff(ctx, base, cur, flowdiff.Thresholds{})
	const n = 5
	t0 := time.Now()
	for i := 0; i < n; i++ {
		flowdiff.Diagnose(ctx, changes, nil, in.opts)
	}
	return ms(time.Since(t0)) / n, nil
}

// probeListReports times the report list at the archive's size, on a
// shadow tenant filled with the oracle's reports.
func probeListReports(s *shadow, in *streamInputs, reports int) (float64, error) {
	const tenant = "probe"
	if err := s.store.SaveBaseline(tenant, in.baseLog, serve.BaselineMeta{Version: 1, Events: len(in.baseLog.Events)}); err != nil {
		return 0, err
	}
	for i := 0; i < reports; i++ {
		r := in.oracle[i%len(in.oracle)]
		if err := s.store.SaveReport(tenant, serve.ReportRecord{Seq: uint64(i + 1), From: r.From, To: r.To, Report: r.Report}); err != nil {
			return 0, err
		}
	}
	var lists []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		list, err := s.store.ListReports(tenant)
		if err != nil {
			return 0, err
		}
		if len(list) != reports {
			return 0, fmt.Errorf("store probe: listed %d reports, want %d", len(list), reports)
		}
		lists = append(lists, ms(time.Since(t0)))
	}
	return percentile(lists, 0.5), nil
}
