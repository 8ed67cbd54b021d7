package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"flowdiff"
	"flowdiff/bench/gen"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/obs"
)

// offlineEnv is two FDC1 captures on disk: a baseline, and a current
// capture of the same length whose ShiftGroup carries the delay shift,
// so the change set is never empty and Diagnose has something to rank.
type offlineEnv struct {
	opts     flowdiff.Options
	paths    [2]string
	events   int
	current  *flowlog.Log
	encodeNS int64
	bytes    int
}

func setUpOffline(seed int64, cells int, dir string) (*offlineEnv, error) {
	g, err := gen.New(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &offlineEnv{opts: flowdiff.Options{Topo: g.Topo}}
	for i, l := range []*flowlog.Log{g.Capture(0, cells, false), g.Capture(cells, cells, true)} {
		t0 := time.Now()
		data, err := encodeFDC1(l)
		if err != nil {
			return nil, err
		}
		e.encodeNS += time.Since(t0).Nanoseconds()
		e.paths[i] = filepath.Join(dir, fmt.Sprintf("capture%d.fdc", i))
		if err := os.WriteFile(e.paths[i], data, 0o644); err != nil {
			return nil, err
		}
		e.events += len(l.Events)
		e.bytes += len(data)
		e.current = l
	}
	return e, nil
}

// compareStages are one compare's instants: the two signature builds,
// the diff, the diagnosis.
type compareStages struct {
	start, built0, built1, diffed, end time.Time
}

// compare is the `flowdiff -baseline a -current b` path from FDC1:
// NewColumnarSource + BuildSignaturesReader twice, Diff, Diagnose.
func (e *offlineEnv) compare(ctx context.Context, workers int) ([]flowdiff.Change, compareStages, error) {
	tuning := flowdiff.NewTuning(flowdiff.Workers(workers))
	opts := tuning.Options(e.opts)
	var st compareStages
	var sigs [2]*flowdiff.Signatures
	st.start = time.Now()
	for i, path := range e.paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, st, err
		}
		src, err := flowdiff.NewColumnarSourceOptions(ctx, f, tuning.Columnar(flowdiff.ColumnarOptions{}))
		if err == nil {
			sigs[i], err = flowdiff.BuildSignaturesReader(ctx, src, opts)
		}
		f.Close()
		if err != nil {
			return nil, st, err
		}
		if i == 0 {
			st.built0 = time.Now()
		}
	}
	st.built1 = time.Now()
	changes := flowdiff.Diff(ctx, sigs[0], sigs[1], flowdiff.Thresholds{})
	st.diffed = time.Now()
	flowdiff.Diagnose(ctx, changes, nil, opts)
	st.end = time.Now()
	return changes, st, nil
}

// offlineRun is the timed loop: serial and parallel compares
// interleaved until the deadline, each checked against the reference
// change set.
type offlineRun struct {
	env     *offlineEnv
	wide    int
	ref     []flowdiff.Change
	totalMS [2][]float64 // whole compares by width: serial, wide
	failed  int
	tracer  *tracer
	buildMS [2][]float64 // by width too
	diagMS  []float64
}

func (r *offlineRun) one(ctx context.Context, workers int) {
	changes, st, err := r.env.compare(ctx, workers)
	if err != nil || !reflect.DeepEqual(changes, r.ref) {
		fmt.Printf("compare at workers=%d: error %v or a change set that differs from the reference\n", workers, err)
		r.failed++
		return
	}
	width := 0
	if workers != 1 {
		width = 1
	}
	r.totalMS[width] = append(r.totalMS[width], ms(st.end.Sub(st.start)))
	if tr := r.tracer; tr != nil {
		id := tr.newWindow()
		root := tr.add("compare", st.start, st.end, -1, id)
		tr.add("flowdiff.build_reader", st.start, st.built0, root, id)
		tr.add("flowdiff.build_reader", st.built0, st.built1, root, id)
		tr.add("diff", st.built1, st.diffed, root, id)
		tr.add("diagnose", st.diffed, st.end, root, id)
		r.buildMS[width] = append(r.buildMS[width], ms(st.built0.Sub(st.start)), ms(st.built1.Sub(st.built0)))
		r.diagMS = append(r.diagMS, ms(st.end.Sub(st.diffed)))
	}
}

func (r *offlineRun) until(ctx context.Context, deadline time.Time) time.Duration {
	start := time.Now()
	for pairs := 0; pairs < 2 || time.Now().Before(deadline); pairs++ {
		r.one(ctx, 1)
		if r.wide > 1 {
			r.one(ctx, r.wide)
		}
	}
	return time.Since(start)
}

func runOffline(ctx context.Context, p plan, seed int64, traced bool, dir string, res *result, m *metricSet) error {
	env, setupS, err := repeatSetup(p.setups, dir,
		func(d string) (*offlineEnv, error) { return setUpOffline(seed, p.cells, d) },
		func(*offlineEnv) error { return nil })
	if err != nil {
		return err
	}
	reg := obs.New()
	ctx = obs.WithRegistry(ctx, reg)
	run := &offlineRun{env: env, wide: clientCount()}
	// Warm-up, and the reference every later change set must equal.
	if run.ref, _, err = env.compare(ctx, 1); err != nil {
		return err
	}
	if len(run.ref) == 0 {
		return fmt.Errorf("the shifted capture raised no change")
	}
	run.one(ctx, run.wide)
	run.totalMS = [2][]float64{}

	budget := time.Duration(p.seconds * float64(time.Second))
	var ms0, ms1 runtime.MemStats
	if !traced {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		wall := run.until(ctx, time.Now().Add(budget))
		runtime.ReadMemStats(&ms1)
		serial, side := run.totalMS[0], run.totalMS[1]
		if run.wide == 1 {
			// One CPU: the parallel width is the serial one.
			side = serial
		}
		n := len(run.totalMS[0]) + len(run.totalMS[1])
		if n == 0 {
			return fmt.Errorf("no compare completed")
		}
		events := float64(n * env.events)
		m.set("events_per_s", events/wall.Seconds())
		m.set("cycle_p50_ms", percentile(serial, 0.50))
		m.set("cycle_p95_ms", percentile(serial, 0.95))
		m.set("side_p50_ms", percentile(side, 0.50))
		m.set("alloc_bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/events)
		m.set("allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/events)
		m.set("setup_s", setupS)
		res.Samples["cycle"], res.Samples["side"] = len(serial), len(side)
		res.Attempted, res.Failed = n+run.failed, run.failed
		return nil
	}

	run.until(ctx, time.Now().Add(budget/4))
	ref := append(run.totalMS[0], run.totalMS[1]...)
	run.totalMS = [2][]float64{}
	run.tracer = &tracer{origin: time.Now()}
	runtime.ReadMemStats(&ms0)
	before := reg.Snapshot()
	run.until(ctx, time.Now().Add(budget-budget/4))
	delta := regDelta{before, reg.Snapshot()}
	runtime.ReadMemStats(&ms1)
	cycles := append(run.totalMS[0], run.totalMS[1]...)
	n := len(cycles)
	if n == 0 {
		return fmt.Errorf("no compare completed in the traced phase")
	}
	res.Attempted, res.Failed = len(ref)+n+run.failed, run.failed

	obsLayers(m, delta, float64(n))
	runtimeLayers(m, &ms0, &ms1)
	m.set("flowdiff.build_reader_serial_ms", mean(run.buildMS[0]))
	m.set("flowdiff.build_reader_parallel_ms", mean(run.buildMS[1]))
	m.set("diagnose.ms", mean(run.diagMS))
	m.set("colseg.wire_bytes_per_event", float64(env.bytes)/float64(env.events))
	m.set("colseg.encode_us_per_kevent", float64(env.encodeNS)/1e3/(float64(env.events)/1000))
	m.set("trace.overhead_share", percentile(cycles, 0.50)/percentile(ref, 0.50)-1)

	// Direct calls, alone on the process: a bulk colseg read, and the
	// sharded occurrence extraction at each width.
	const probes = 3
	var decodeUS float64
	for i := 0; i < probes; i++ {
		f, err := os.Open(env.paths[1])
		if err != nil {
			return err
		}
		t0 := time.Now()
		l, err := colseg.Read(f)
		decodeUS += float64(time.Since(t0).Nanoseconds()) / 1e3
		f.Close()
		if err != nil {
			return err
		}
		if len(l.Events) != len(env.current.Events) {
			return fmt.Errorf("capture read back %d events, wrote %d", len(l.Events), len(env.current.Events))
		}
	}
	m.set("colseg.decode_us_per_kevent", decodeUS/probes/(float64(len(env.current.Events))/1000))
	for _, w := range []struct {
		name    string
		workers int
	}{{"signature.occurrences_sharded_serial_ms", 1}, {"signature.occurrences_sharded_parallel_ms", run.wide}} {
		t0 := time.Now()
		for i := 0; i < probes; i++ {
			signature.OccurrencesSharded(env.current, signature.Config{Parallelism: w.workers})
		}
		m.set(w.name, ms(time.Since(t0))/probes)
	}
	return run.tracer.write(filepath.Join(outDir, "trace_offline_compare.json"))
}
