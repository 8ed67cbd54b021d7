package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"flowdiff"
	"flowdiff/internal/topology"
)

// workload is one traffic mix. Every workload is a closed loop: a
// client sends its next request only after the previous one completed.
type workload struct {
	name string
	why  string
	// asJSON sends a window as jsonChunks JSON POSTs instead of one FDC1
	// POST; reader turns the second client into a dashboard reader;
	// offline runs no server at all.
	asJSON, reader, offline bool
	// pool is how many distinct windows are generated in all, shared out
	// evenly among the writers; it keeps the encoded bodies under 64 MiB.
	pool int
	// rate is the windows one writer completes per second at the seed
	// commit on the 2-CPU reference host. The tenant chain is sized from
	// it with headroom, so the run ends at its deadline, not at the end
	// of the chain.
	rate float64
	// cycle and side say what the generic cycle_* and side_* end-to-end
	// metrics measure here, by the names the issue gave them.
	cycle, side string
}

var workloads = []workload{
	{
		name: "stream_fdc1", pool: 200, rate: 90,
		why:   "one FDC1 POST per 5k-event window then a flush: Monitor observe+flush dominates, decode and HTTP are small",
		cycle: "window", side: "flush_post",
	},
	{
		name: "stream_json_chunked", asJSON: true, pool: 72, rate: 28,
		why:   "the same windows as 20 JSON POSTs each: flowlog.ReadJSON and per-request serve overhead dominate, colseg is bypassed",
		cycle: "window", side: "flush_post",
	},
	{
		name: "offline_compare", offline: true,
		why:   "two FDC1 captures through BuildSignaturesReader, Diff, Diagnose at Workers=1 and Workers=nproc: no serve, queue or store",
		cycle: "compare_serial", side: "compare_parallel",
	},
	{
		name: "read_beside_write", reader: true, pool: 100, rate: 105,
		why:   "one FDC1 writer beside a reader listing and fetching a 300-report archive: the store layer in the read direction",
		cycle: "window", side: "read",
	},
}

// plan sizes one run. defaultPlan derives it from the run length; the
// smoke test shrinks it.
type plan struct {
	seconds float64
	writers int // closed-loop writer clients
	k       int // distinct windows per writer, and windows per tenant
	tenants int // chain length per writer, in tenants
	warmup  int // uncounted windows per writer before the timed run
	reports int // archive size
	gets    int // report gets per read op
	// think is the reader's pause between ops. A dashboard polls; a
	// reader that never pauses saturates the second CPU, and its latency
	// then measures the scheduler more than the store.
	think  time.Duration
	cells  int // offline_compare: cells (≈ 5k events each) per capture
	setups int // set-up repetitions; setup_s is their median
}

// maxClients caps the closed-loop clients; below it there is one per CPU.
const maxClients = 4

func clientCount() int {
	if n := runtime.NumCPU(); n < maxClients {
		return n
	}
	return maxClients
}

func defaultPlan(wl workload, seconds float64) plan {
	p := plan{seconds: seconds, warmup: 20, reports: 300, gets: 10, think: 20 * time.Millisecond, cells: 12, setups: 3}
	p.writers = clientCount()
	if wl.reader {
		p.writers = 1
	}
	if wl.offline {
		// An offline set-up is a tenth of a second and the first ones of a
		// process run slow; fifteen put the median among the warm ones.
		p.setups = 15
	} else {
		p.k = wl.pool / p.writers
		// 1.5x headroom over the seed rate before the chain runs out.
		p.tenants = int(math.Ceil(wl.rate*seconds*1.5/float64(p.k))) + 1
	}
	return p
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// Meaning names what cycle_* and side_* measured.
	Meaning map[string]string `json:"meaning"`
}

func runWorkload(ctx context.Context, wl workload, p plan, seed int64, traced bool, scratch string) (*result, error) {
	dir := filepath.Join(scratch, wl.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{
		Workload: wl.name, Traced: traced,
		Samples: map[string]int{},
		Meaning: map[string]string{"cycle": wl.cycle, "side": wl.side},
	}
	defs := endToEnd
	if traced {
		defs = layers
	}
	m := newMetricSet(defs)
	var err error
	if wl.offline {
		err = runOffline(ctx, p, seed, traced, dir, res, m)
	} else {
		err = runStream(ctx, wl, p, seed, traced, dir, res, m)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if traced {
		m.set("harness.failed_share", float64(res.Failed)/float64(res.Attempted))
	}
	res.Metrics = m.metrics()
	return res, nil
}

// streamEnv is one set-up of a serve workload.
type streamEnv struct {
	stack   *stack
	writers []*writer
	reader  *reader
	putMS   []float64
}

func (e *streamEnv) close(ctx context.Context) error {
	for _, w := range e.writers {
		w.c.tr.CloseIdleConnections()
	}
	if e.reader != nil {
		e.reader.c.tr.CloseIdleConnections()
	}
	return e.stack.close(ctx)
}

// setUpStream is everything before the first timed byte: generation,
// encoding, the oracle, server boot, tenant registration, archive fill.
//
// Every writer gets a stream of its own, from a seed derived from the
// run's. Writers replaying the same bytes fall into lock step — their
// tenants flush and collect garbage together — and whole runs then
// settle 20–30 % apart; distinct streams drift through every phase.
func setUpStream(ctx context.Context, wl workload, p plan, seed int64, dir string) (*streamEnv, error) {
	topo, err := topology.Tree320()
	if err != nil {
		return nil, err
	}
	st, err := boot(ctx, dir, flowdiff.Options{Topo: topo}, p.writers*(p.tenants+1)+1)
	if err != nil {
		return nil, err
	}
	e := &streamEnv{stack: st}
	for i := 0; i < p.writers; i++ {
		e.writers = append(e.writers, &writer{
			c: newClient(st.url), id: i,
			limit: p.tenants * p.k, done: make([]int, p.tenants),
		})
	}
	// Each writer builds its inputs and registers its tenants on its own
	// connection, beside the others.
	var wg sync.WaitGroup
	errs := make([]error, len(e.writers))
	puts := make([][]float64, len(e.writers))
	for i, w := range e.writers {
		wg.Add(1)
		go func(i int, w *writer) {
			defer wg.Done()
			if w.in, errs[i] = makeStream(ctx, seed*maxClients+int64(i), p.k, wl.asJSON); errs[i] != nil {
				return
			}
			names := []string{w.warmTenant()}
			for t := 0; t < p.tenants; t++ {
				names = append(names, w.tenant(t))
			}
			for _, name := range names {
				t0 := time.Now()
				if errs[i] = w.c.putBaseline(ctx, name, w.in.baseline); errs[i] != nil {
					return
				}
				puts[i] = append(puts[i], ms(time.Since(t0)))
			}
		}(i, w)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			// The set-up error is the one worth reporting.
			_ = e.close(ctx)
			return nil, errs[i]
		}
		e.putMS = append(e.putMS, puts[i]...)
	}
	if wl.reader {
		rng := rand.New(rand.NewSource(seed))
		e.reader = &reader{
			c: newClient(st.url), gets: p.gets, reports: p.reports, think: p.think,
			seqs: func() uint64 { return uint64(rng.Intn(p.reports)) + 1 },
		}
		if err := fillArchive(ctx, st, e.reader.c, e.writers[0].in, p.reports); err != nil {
			_ = e.close(ctx)
			return nil, err
		}
	}
	return e, nil
}

// repeatSetup sets up p.setups times and keeps the last; setup_s is the
// median, so one slow disk flush does not decide it.
func repeatSetup[E any](n int, dir string, setUp func(dir string) (E, error), tearDown func(E) error) (E, float64, error) {
	var env, zero E
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := tearDown(env); err != nil {
				return zero, 0, err
			}
		}
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		// Each repetition starts from a collected heap, not from wherever
		// the last one's garbage left the collector.
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = setUp(d); err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, percentile(secs, 0.5), nil
}

// phase runs every writer (and the reader, until the writers stop) to
// the deadline and returns the wall time the writers took.
func (e *streamEnv) phase(ctx context.Context, deadline time.Time) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range e.writers {
		wg.Add(1)
		go func(w *writer) {
			defer wg.Done()
			w.run(ctx, deadline)
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		if e.reader == nil {
			return
		}
		for {
			e.reader.op(ctx)
			select {
			case <-stop:
				return
			case <-time.After(e.reader.think):
			}
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	<-readerDone
	return wall
}

// takeSamples pools and clears the writers' timed samples.
func (e *streamEnv) takeSamples() (cycles, flushes []float64, events int) {
	for _, w := range e.writers {
		cycles = append(cycles, w.cycleMS...)
		flushes = append(flushes, w.flushMS...)
		events += w.events
		w.cycleMS, w.flushMS, w.events = nil, nil, 0
	}
	return cycles, flushes, events
}

func runStream(ctx context.Context, wl workload, p plan, seed int64, traced bool, dir string, res *result, m *metricSet) error {
	env, setupS, err := repeatSetup(p.setups, dir,
		func(d string) (*streamEnv, error) { return setUpStream(ctx, wl, p, seed, filepath.Join(d, "serve")) },
		func(e *streamEnv) error { return e.close(ctx) })
	if err != nil {
		return err
	}
	defer func() {
		if cerr := env.close(ctx); cerr != nil {
			fmt.Println("closing server:", cerr)
		}
	}()

	var wg sync.WaitGroup
	warmErrs := make([]error, len(env.writers))
	for i, w := range env.writers {
		wg.Add(1)
		go func(i int, w *writer) {
			defer wg.Done()
			warmErrs[i] = w.warm(ctx, p.warmup)
		}(i, w)
	}
	wg.Wait()
	for _, err := range warmErrs {
		if err != nil {
			return err
		}
	}
	if env.reader != nil {
		env.reader.op(ctx)
		env.reader.opMS, env.reader.failed = nil, 0
	}

	budget := time.Duration(p.seconds * float64(time.Second))
	if traced {
		err = tracedStream(ctx, wl, p, env, budget, dir, m)
	} else {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		wall := env.phase(ctx, time.Now().Add(budget))
		runtime.ReadMemStats(&ms1)
		cycles, flushes, events := env.takeSamples()
		if events == 0 {
			return fmt.Errorf("no window completed")
		}
		side := flushes
		if env.reader != nil {
			side = env.reader.opMS
		}
		m.set("events_per_s", float64(events)/wall.Seconds())
		m.set("cycle_p50_ms", percentile(cycles, 0.50))
		m.set("cycle_p95_ms", percentile(cycles, 0.95))
		m.set("side_p50_ms", percentile(side, 0.50))
		m.set("alloc_bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(events))
		m.set("allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/float64(events))
		m.set("setup_s", setupS)
		res.Samples["cycle"], res.Samples["side"] = len(cycles), len(side)
	}
	if err != nil {
		return err
	}

	// The oracle check, outside the timed region.
	for _, w := range env.writers {
		res.Failed += w.verify(ctx)
		for _, n := range w.done {
			res.Attempted += n
		}
	}
	if r := env.reader; r != nil {
		res.Attempted += len(r.opMS) + r.failed
		res.Failed += r.failed
	}
	return nil
}

// tracedStream is the separate traced run: a quarter of the budget
// untraced as the reference cycle, the rest with spans and the shadow
// replay; then the probes, alone on the process.
func tracedStream(ctx context.Context, wl workload, p plan, env *streamEnv, budget time.Duration, dir string, m *metricSet) error {
	env.phase(ctx, time.Now().Add(budget/4))
	refCycles, _, _ := env.takeSamples()
	var readRef []float64
	if env.reader != nil {
		readRef, env.reader.opMS = env.reader.opMS, nil
	}

	tr := &tracer{origin: time.Now()}
	shadowDir := filepath.Join(dir, "shadow")
	var shadows []*shadow
	for _, w := range env.writers {
		s, err := newShadow(ctx, filepath.Join(shadowDir, fmt.Sprint(w.id)))
		if err != nil {
			return err
		}
		w.tracer, w.shadow = tr, s
		shadows = append(shadows, s)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := env.stack.reg.Snapshot()
	env.phase(ctx, time.Now().Add(budget-budget/4))
	delta := regDelta{before, env.stack.reg.Snapshot()}
	runtime.ReadMemStats(&ms1)
	for _, w := range env.writers {
		w.tracer, w.shadow = nil, nil
	}

	// Set-up figures and probes use the first writer's inputs; every
	// writer's are the same size and shape.
	in := env.writers[0].in
	d := tr.durations()
	windows := float64(len(d["window"]))
	if windows == 0 {
		return fmt.Errorf("no window completed in the traced phase")
	}
	var newMS, loadUS, saveBaselineMS []float64
	var baselineBytes int64
	events := 0
	for _, s := range shadows {
		newMS = append(newMS, s.newMS...)
		loadUS = append(loadUS, s.loadUS...)
		saveBaselineMS = append(saveBaselineMS, s.saveBaselineMS...)
		baselineBytes += s.baselineBytes
		events += s.events
	}
	kevents := float64(events) / 1000
	sum := func(name string) float64 { return mean(d[name]) * float64(len(d[name])) }

	window := mean(d["window"])
	layerSum := mean(d["flowlog.decode"]) + mean(d["monitor.observe"]) + mean(d["monitor.flush"]) + mean(d["store.save_report"])
	m.set("serve.ingest_post_p50_ms", percentile(d["serve.ingest_post"], 0.50))
	m.set("serve.flush_post_p50_ms", percentile(d["serve.flush_post"], 0.50))
	m.set("serve.window_p99_ms", percentile(d["window"], 0.99))
	m.set("serve.self_ms_per_window", window-layerSum)
	m.set("serve.self_share", (window-layerSum)/window)
	m.set("serve.http_requests", delta.counter("serve.http.requests"))
	m.set("serve.put_baseline_ms", mean(env.putMS))
	var depth, tenantErrs int64
	var rejected float64
	for name, g := range delta.after.Gauges {
		if strings.HasPrefix(name, "serve.tenant.") && strings.HasSuffix(name, ".queue.depth") && g.Max > depth {
			depth = g.Max
		}
	}
	for name, v := range delta.after.Counters {
		if strings.HasPrefix(name, "serve.tenant.") && strings.HasSuffix(name, ".errors") {
			tenantErrs += v
		}
	}
	for _, w := range env.writers {
		rejected += float64(w.rejected429)
	}
	m.set("serve.queue_depth_max", float64(depth))
	m.set("serve.tenant_errors", float64(tenantErrs))
	m.set("serve.rejected_429", rejected)

	m.set("store.save_report_us", mean(d["store.save_report"])*1000)
	m.set("store.load_report_us", mean(loadUS))
	stored, err := dirBytes(shadowDir)
	if err != nil {
		return err
	}
	m.set("store.report_bytes", float64(stored-baselineBytes)/windows)
	m.set("store.save_baseline_ms", mean(saveBaselineMS))

	decode, wire := "colseg.decode_us_per_kevent", "colseg.wire_bytes_per_event"
	if wl.asJSON {
		decode, wire = "flowlog.decode_json_us_per_kevent", "flowlog.json_wire_bytes_per_event"
	} else {
		m.set("colseg.encode_us_per_kevent", float64(in.encodeNS)/1e3/(float64(in.events)/1000))
	}
	m.set(decode, sum("flowlog.decode")*1000/kevents)
	m.set(wire, float64(in.wireBytes)/float64(in.events))

	m.set("monitor.new_ms", mean(newMS))
	m.set("monitor.observe_us_per_kevent", sum("monitor.observe")*1000/kevents)
	m.set("monitor.flush_ms_per_window", mean(d["monitor.flush"]))
	m.set("monitor.share_of_window", (mean(d["monitor.observe"])+mean(d["monitor.flush"]))/window)
	obsLayers(m, delta, windows)
	runtimeLayers(m, &ms0, &ms1)
	m.set("trace.overhead_share", percentile(d["window"], 0.50)/percentile(refCycles, 0.50)-1)
	if env.reader != nil {
		m.set("read.op_p95_ms", percentile(append(readRef, env.reader.opMS...), 0.95))
	}

	alloc, err := probeFlushAlloc(shadows[0].ctx, in)
	if err != nil {
		return err
	}
	m.set("monitor.flush_alloc_bytes_per_event", alloc)
	diagnoseMS, err := probeDiagnose(shadows[0].ctx, in)
	if err != nil {
		return err
	}
	m.set("diagnose.ms", diagnoseMS)
	listMS, err := probeListReports(shadows[0], in, p.reports)
	if err != nil {
		return err
	}
	m.set("store.list_reports_ms", listMS)

	return tr.write(filepath.Join(outDir, "trace_"+wl.name+".json"))
}
