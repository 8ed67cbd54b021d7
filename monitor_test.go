package flowdiff

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"flowdiff/internal/core/signature"
	"flowdiff/internal/faults"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/obs"
	"flowdiff/internal/workload"
)

// checkGoroutineLeak snapshots the goroutine count and verifies at
// cleanup, with a settle/retry loop, that it returned to the baseline —
// proof that the pipeline's worker pools drain instead of accumulating
// across Observe/Flush cycles.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("goroutine leak: %d before the test, still %d after settling", before, n)
		}
	})
}

// driveMonitor replays a scenario's L2 events through a monitor built on
// its L1.
func driveMonitor(t *testing.T, s Scenario, window time.Duration) (*Monitor, *ScenarioResult) {
	t.Helper()
	checkGoroutineLeak(t)
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(context.Background(), res.L1, window, nil, Thresholds{}, res.Options())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.L2.Events {
		if _, err := m.Observe(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestMonitorCleanRunStaysQuiet(t *testing.T) {
	m, _ := driveMonitor(t, Scenario{Seed: 200}, time.Minute)
	if len(m.Reports()) == 0 {
		t.Fatal("monitor produced no reports")
	}
	for _, r := range m.Alarms() {
		t.Errorf("clean run raised alarm in [%v,%v): %+v", r.From, r.To, r.Report.Unknown)
	}
}

func TestMonitorDetectsMidStreamFault(t *testing.T) {
	m, _ := driveMonitor(t, Scenario{
		Seed:   201,
		Faults: []faults.Injector{faults.AppCrash{Host: "S3"}},
	}, time.Minute)
	alarms := m.Alarms()
	if len(alarms) == 0 {
		t.Fatal("app crash never raised an alarm")
	}
	// The alarm must implicate S3.
	found := false
	for _, a := range alarms {
		for _, c := range a.Report.Ranking {
			if c.Component == "S3" {
				found = true
			}
		}
	}
	if !found {
		t.Error("alarms do not implicate the crashed server")
	}
}

func TestMonitorWindowing(t *testing.T) {
	m, res := driveMonitor(t, Scenario{Seed: 202}, 30*time.Second)
	// A 3-minute L2 with 30s windows yields ~6 reports.
	if got := len(m.Reports()); got < 4 || got > 8 {
		t.Errorf("got %d reports for 3min/30s windows", got)
	}
	// Windows tile the interval without overlap.
	prev := res.L1.End
	for _, r := range m.Reports() {
		if r.From != prev {
			t.Errorf("window [%v,%v) does not start at previous end %v", r.From, r.To, prev)
		}
		if r.To <= r.From {
			t.Errorf("empty window [%v,%v)", r.From, r.To)
		}
		prev = r.To
	}
}

func TestMonitorValidatesTasks(t *testing.T) {
	script := workload.VMMigration("V1", "V2", "NFS")
	// Train an automaton.
	train, err := RunScenario(Scenario{
		Seed: 203, BaselineDur: time.Second, FaultDur: 10 * time.Minute,
		Tasks: []workload.TaskScript{script, script, script, script, script},
	})
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]FlowKey
	for _, r := range train.TaskRuns {
		runs = append(runs, r.Flows)
	}
	automaton, err := MineTask(context.Background(), "vm-migration", runs, TaskConfig{})
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunScenario(Scenario{Seed: 204, Tasks: []workload.TaskScript{script}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(context.Background(), res.L1, time.Minute, []*TaskAutomaton{automaton}, Thresholds{}, res.Options())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.L2.Events {
		if _, err := m.Observe(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush(context.Background())
	known := 0
	for _, r := range m.Reports() {
		known += len(r.Report.Known)
	}
	if known == 0 {
		t.Error("migration changes were not validated by the monitor")
	}
}

// monitorChainEvents emits a burst of A->B / B->C control traffic into
// events, one request every step, over [from, to).
func monitorChainEvents(from, to, step time.Duration) []flowlog.Event {
	host := func(last byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 7, 0, last}) }
	var out []flowlog.Event
	i := 0
	for t0 := from; t0 < to; t0 += step {
		port := uint16(1024 + i%40000)
		i++
		ab := flowlog.FlowKey{Proto: 6, Src: host(1), Dst: host(2), SrcPort: port, DstPort: 80}
		bc := flowlog.FlowKey{Proto: 6, Src: host(2), Dst: host(3), SrcPort: port, DstPort: 3306}
		for _, k := range []flowlog.FlowKey{ab, bc} {
			out = append(out,
				flowlog.Event{Time: t0, Type: flowlog.EventPacketIn, Switch: "sw1", Flow: k},
				flowlog.Event{Time: t0 + time.Millisecond, Type: flowlog.EventFlowMod, Switch: "sw1", Flow: k},
			)
		}
	}
	return out
}

// Regression for the fixed window grid: a burst followed by a long
// quiet gap must never produce one oversized window spanning the gap —
// the old monitor flushed [lastFlush, firstEventAfterGap], so a 7-minute
// silence yielded a 7.5-minute "window".
func TestMonitorGridAlignedWindows(t *testing.T) {
	window := time.Minute
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	m, err := NewMonitor(context.Background(), baseline, window, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	origin := baseline.End
	// Burst for 30s, silence for ~7min, burst again, then a final
	// partial window.
	var stream []flowlog.Event
	stream = append(stream, monitorChainEvents(origin, origin+30*time.Second, 100*time.Millisecond)...)
	stream = append(stream, monitorChainEvents(origin+8*time.Minute, origin+9*time.Minute+30*time.Second, 100*time.Millisecond)...)
	for _, e := range stream {
		if _, err := m.Observe(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	reports := m.Reports()
	if len(reports) < 3 {
		t.Fatalf("got %d reports, want >= 3 (burst window, post-gap windows, final partial)", len(reports))
	}
	for _, r := range reports {
		if r.To-r.From > window {
			t.Errorf("oversized window [%v,%v): width %v > %v", r.From, r.To, r.To-r.From, window)
		}
		if (r.From-origin)%window != 0 {
			t.Errorf("window [%v,%v) does not start on the grid (origin %v, window %v)", r.From, r.To, origin, window)
		}
	}
	// No report may cover any part of the quiet gap's interior cells.
	gapFrom, gapTo := origin+time.Minute, origin+8*time.Minute
	for _, r := range reports {
		if r.From >= gapFrom && r.To <= gapTo {
			t.Errorf("report [%v,%v) covers the quiet gap; empty cells must stay silent", r.From, r.To)
		}
	}
}

// TestMonitorStreamingMatchesBatch pins the streaming engine end to
// end: every report the monitor produces (incremental extraction,
// cached group discovery, shared occurrence slice) must be identical to
// modeling the same window from scratch with BuildSignatures — for
// sequential and parallel builds.
func TestMonitorStreamingMatchesBatch(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 207})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := res.Options()
		opts.Parallelism = workers
		m, err := NewMonitor(context.Background(), res.L1, 45*time.Second, nil, Thresholds{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.L2.Events {
			if _, err := m.Observe(context.Background(), e); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		reports := m.Reports()
		if len(reports) < 3 {
			t.Fatalf("workers=%d: only %d reports; equivalence would be vacuous", workers, len(reports))
		}
		base, err := BuildSignatures(context.Background(), res.L1, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reports {
			wl := flowlog.New(r.From, r.To)
			last := i == len(reports)-1
			for _, e := range res.L2.Events {
				// Automatic windows are [From, To); the final manual
				// flush closes at the last observed event, inclusive.
				if e.Time >= r.From && (e.Time < r.To || (last && e.Time == r.To)) {
					wl.Append(e)
				}
			}
			cur, err := BuildSignatures(context.Background(), wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			changes := Diff(context.Background(), base, cur, Thresholds{})
			want := Diagnose(context.Background(), changes, DetectTasks(wl, nil, opts.Signature.OccurrenceGap), opts)
			if !reflect.DeepEqual(r.Report, want) {
				t.Errorf("workers=%d window [%v,%v): streaming report differs from batch rebuild", workers, r.From, r.To)
			}
		}
	}
}

func TestMonitorRejectsOutOfOrderEvents(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 205, BaselineDur: time.Minute, FaultDur: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(context.Background(), res.L1, time.Minute, nil, Thresholds{}, res.Options())
	if err != nil {
		t.Fatal(err)
	}
	stale := res.L1.Events[0]
	if _, err := m.Observe(context.Background(), stale); err == nil {
		t.Error("want error for event preceding the window")
	}
}

// TestMonitorCanceledFlushIsNonDestructive is the regression test for
// the Observe cancellation contract: a canceled boundary flush
// must neither drop the boundary-crossing event nor consume the
// window's extractor episodes. The pre-fix code returned before
// buffering the event and after m.ex.Flush(context.Background()) had already destroyed the
// window's occurrences, so the retried flush abstained on an empty
// extractor and the window was lost forever.
func TestMonitorCanceledFlushIsNonDestructive(t *testing.T) {
	window := time.Minute
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	opts := Options{}
	m, err := NewMonitor(context.Background(), baseline, window, nil, Thresholds{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	origin := baseline.End
	winEvents := monitorChainEvents(origin, origin+window, 100*time.Millisecond)
	for _, e := range winEvents {
		if _, err := m.Observe(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}

	// The boundary-crossing event arrives under a canceled context.
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	host := func(last byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 7, 0, last}) }
	boundary := flowlog.Event{
		Time: origin + window + time.Millisecond, Type: flowlog.EventPacketIn, Switch: "sw1",
		Flow: flowlog.FlowKey{Proto: 6, Src: host(8), Dst: host(9), SrcPort: 2000, DstPort: 80},
	}
	rep, err := m.Observe(canceledCtx, boundary)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled flush: err = %v, want ErrCanceled", err)
	}
	if rep != nil {
		t.Fatalf("canceled flush returned a report: %+v", rep)
	}
	if len(m.Reports()) != 0 {
		t.Fatalf("canceled flush recorded reports: %+v", m.Reports())
	}

	// The next boundary crossing (live context) retries the flush and
	// must model the full window — the canceled boundary event included.
	later := flowlog.Event{
		Time: origin + window + 2*time.Millisecond, Type: flowlog.EventPacketIn, Switch: "sw1",
		Flow: flowlog.FlowKey{Proto: 6, Src: host(8), Dst: host(9), SrcPort: 2001, DstPort: 80},
	}
	rep, err = m.Observe(context.Background(), later)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("retried flush produced no report (window lost)")
	}
	if rep.From != origin || rep.To != origin+window {
		t.Fatalf("retried window = [%v,%v), want [%v,%v)", rep.From, rep.To, origin, origin+window)
	}

	// The retried report must equal a batch rebuild of the same window
	// (its regular events plus the deferred boundary event).
	base, err := BuildSignatures(context.Background(), baseline, opts)
	if err != nil {
		t.Fatal(err)
	}
	wl := flowlog.New(origin, origin+window)
	wl.Events = append(append([]flowlog.Event(nil), winEvents...), boundary)
	cur, err := BuildSignatures(context.Background(), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	changes := Diff(context.Background(), base, cur, Thresholds{})
	want := Diagnose(context.Background(), changes, DetectTasks(wl, nil, opts.Signature.OccurrenceGap), opts)
	if !reflect.DeepEqual(rep.Report, want) {
		t.Error("retried report differs from batch rebuild of the full window")
	}
}

// TestMonitorRediagnoseWindow drives a monitored fault run, archives the
// live stream as an FDC1 capture, and re-diagnoses an alarmed window
// from disk — the drill-down path. The re-read is query-aware, so the
// capture's segments outside the window must be pruned without decode.
func TestMonitorRediagnoseWindow(t *testing.T) {
	m, res := driveMonitor(t, Scenario{
		Seed:   201,
		Faults: []faults.Injector{faults.AppCrash{Host: "S3"}},
	}, time.Minute)
	alarms := m.Alarms()
	if len(alarms) == 0 {
		t.Fatal("app crash never raised an alarm")
	}
	a := alarms[0]

	var buf bytes.Buffer
	if err := colseg.Write(&buf, res.L2, colseg.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	nReports := len(m.Reports())
	rep, err := m.RediagnoseWindow(ctx, bytes.NewReader(raw), a.From, a.To, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != a.From || rep.To != a.To {
		t.Errorf("report covers [%v,%v), want the queried [%v,%v)", rep.From, rep.To, a.From, a.To)
	}
	if len(rep.Report.Unknown) == 0 {
		t.Error("re-diagnosed alarm window reports no unexplained changes")
	}
	found := false
	for _, c := range rep.Report.Ranking {
		if c.Component == "S3" {
			found = true
		}
	}
	if !found {
		t.Error("re-diagnosed window does not implicate the crashed server")
	}
	if len(m.Reports()) != nReports {
		t.Error("RediagnoseWindow appended to the monitor's report log")
	}
	// The 3-minute capture holds ~6 default-width segments; a 1-minute
	// window must prune the rest before any payload decode.
	if got := reg.Counter("colseg.segments.pruned").Value(); got == 0 {
		t.Error("windowed re-read pruned no segments")
	}

	// Narrowing to the suspect host still produces a report (the
	// membership-filter path through the same capture).
	var host netip.Addr
	for _, e := range res.L2.Events {
		if e.Time >= a.From && e.Time < a.To && e.Flow.Src.IsValid() {
			host = e.Flow.Src
			break
		}
	}
	if !host.IsValid() {
		t.Fatal("no flow events inside the alarmed window")
	}
	if _, err := m.RediagnoseWindow(ctx, bytes.NewReader(raw), a.From, a.To, []netip.Addr{host}); err != nil {
		t.Fatalf("host-narrowed rediagnose: %v", err)
	}

	// A window past the capture's end holds no events.
	if _, err := m.RediagnoseWindow(ctx, bytes.NewReader(raw), res.L2.End+time.Minute, res.L2.End+2*time.Minute, nil); !errors.Is(err, ErrEmptyLog) {
		t.Errorf("empty window returned %v, want ErrEmptyLog", err)
	}
}

// cancelAfter is a context that reports cancellation from its n+1-th
// Err call on: it lets a flush pass its up-front check and then fail in
// the middle of the build, deterministically.
type cancelAfter struct {
	context.Context
	calls atomic.Int32
	n     int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestMonitorCanceledFlushKeepsEpisodesWhole is the regression test for
// the destructive flush: the old flushTo consumed the extractor before
// the cancellable build and stashed the closed episodes, so a flow that
// went on within OccurrenceGap of the cancel was modeled as two
// occurrences by the retry — not what a rebuild of everything observed
// gives.
func TestMonitorCanceledFlushKeepsEpisodesWhole(t *testing.T) {
	window := time.Minute
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	opts := Options{}
	m, err := NewMonitor(context.Background(), baseline, window, nil, Thresholds{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	origin := baseline.End
	observed := monitorChainEvents(origin, origin+window, 100*time.Millisecond)
	for _, e := range observed {
		if _, err := m.Observe(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	// The last flow of the window goes on across the boundary, inside
	// the gap: first under a context that cancels mid-build, then live.
	going := observed[len(observed)-1]
	going.Type = flowlog.EventPacketIn
	going.Switch = "sw2"
	going.Time = origin + window + time.Millisecond
	rep, err := m.Observe(&cancelAfter{Context: context.Background(), n: 1}, going)
	if !errors.Is(err, ErrCanceled) || rep != nil {
		t.Fatalf("mid-build cancel: report %v, err %v; want ErrCanceled", rep, err)
	}
	observed = append(observed, going)
	going.Type, going.Time = flowlog.EventFlowMod, going.Time+time.Millisecond
	if _, err := m.Observe(&cancelAfter{Context: context.Background(), n: 1}, going); !errors.Is(err, ErrCanceled) {
		t.Fatalf("second mid-build cancel: err %v; want ErrCanceled", err)
	}
	observed = append(observed, going)

	all := flowlog.New(origin, origin+window)
	all.Events = observed
	want := signature.Occurrences(all, opts.Signature.OccurrenceGap)
	if got := m.ex.Gather(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the canceled flushes the window holds %d occurrences, a rebuild of everything observed %d", len(got), len(want))
	}

	later := going
	later.Flow.SrcPort++
	later.Type, later.Time = flowlog.EventPacketIn, going.Time+time.Millisecond
	rep, err = m.Observe(context.Background(), later)
	if err != nil || rep == nil {
		t.Fatalf("retried flush: report %v, err %v", rep, err)
	}
	base, err := BuildSignatures(context.Background(), baseline, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := BuildSignatures(context.Background(), all, opts)
	if err != nil {
		t.Fatal(err)
	}
	changes := Diff(context.Background(), base, cur, Thresholds{})
	if want := Diagnose(context.Background(), changes, nil, opts); !reflect.DeepEqual(rep.Report, want) {
		t.Error("retried report differs from a batch rebuild of everything observed")
	}
}

// TestMonitorTasksFromWindowOccurrences: a monitor with task automata
// detects tasks from the window's occurrences instead of extracting the
// raw window a second time; every report must equal the one the raw
// path (DetectTasks over the window's events) yields.
func TestMonitorTasksFromWindowOccurrences(t *testing.T) {
	script := workload.VMMigration("V1", "V2", "NFS")
	train, err := RunScenario(Scenario{
		Seed: 203, BaselineDur: time.Second, FaultDur: 10 * time.Minute,
		Tasks: []workload.TaskScript{script, script, script, script, script},
	})
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]FlowKey
	for _, r := range train.TaskRuns {
		runs = append(runs, r.Flows)
	}
	automaton, err := MineTask(context.Background(), "vm-migration", runs, TaskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	automata := []*TaskAutomaton{automaton}

	res, err := RunScenario(Scenario{Seed: 301, Tasks: []workload.TaskScript{script}})
	if err != nil {
		t.Fatal(err)
	}
	opts := res.Options()
	m, err := NewMonitor(context.Background(), res.L1, time.Minute, automata, Thresholds{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.L2.Events {
		if _, err := m.Observe(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	base, err := BuildSignatures(context.Background(), res.L1, opts)
	if err != nil {
		t.Fatal(err)
	}
	known := 0
	reports := m.Reports()
	for i, r := range reports {
		wl := flowlog.New(r.From, r.To)
		for _, e := range res.L2.Events {
			if e.Time >= r.From && (e.Time < r.To || (i == len(reports)-1 && e.Time == r.To)) {
				wl.Append(e)
			}
		}
		cur, err := BuildSignatures(context.Background(), wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		changes := Diff(context.Background(), base, cur, Thresholds{})
		want := Diagnose(context.Background(), changes, DetectTasks(wl, automata, opts.Signature.OccurrenceGap), opts)
		if !reflect.DeepEqual(r.Report.Known, want.Known) || !reflect.DeepEqual(r.Report, want) {
			t.Errorf("window [%v,%v): report differs from the raw-window task detection path", r.From, r.To)
		}
		known += len(r.Report.Known)
	}
	if known == 0 {
		t.Error("no change was validated by a task; the comparison would be vacuous")
	}
}

// TestMonitorReportsOutliveTheirWindows pins the ownership rule of the
// shared chunk pool: a report must not alias window memory. Two
// monitors take turns, window by window, so each one's chunks are
// recycled by the other; every report is digested when it is produced
// and again after all later windows have flushed.
func TestMonitorReportsOutliveTheirWindows(t *testing.T) {
	res, err := RunScenario(Scenario{
		Seed:   207,
		Faults: []faults.Injector{faults.EnableLogging{Host: "S3", Overhead: 60 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(r *MonitorReport) [sha256.Size]byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	var mons [2]*Monitor
	for i := range mons {
		if mons[i], err = NewMonitor(context.Background(), res.L1, 20*time.Second, nil, Thresholds{}, res.Options()); err != nil {
			t.Fatal(err)
		}
	}
	var reports []*MonitorReport
	var fresh [][sha256.Size]byte
	keep := func(rep *MonitorReport, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			reports = append(reports, rep)
			fresh = append(fresh, digest(rep))
		}
	}
	// The monitors see the same stream half a window apart, so their
	// flushes interleave.
	events := res.L2.Events
	lag := 0
	for i, e := range events {
		keep(mons[0].Observe(context.Background(), e))
		for lag < i && events[lag].Time+10*time.Second <= e.Time {
			keep(mons[1].Observe(context.Background(), events[lag]))
			lag++
		}
	}
	for ; lag < len(events); lag++ {
		keep(mons[1].Observe(context.Background(), events[lag]))
	}
	for _, m := range mons {
		keep(m.Flush(context.Background()))
	}
	if len(reports) < 10 {
		t.Fatalf("only %d reports; want at least 5 windows per monitor", len(reports))
	}
	for i, rep := range reports {
		if digest(rep) != fresh[i] {
			t.Errorf("report %d [%v,%v) changed after later windows flushed: it aliases recycled window memory", i, rep.From, rep.To)
		}
	}
}

// TestMonitorObserveSteadyStateAllocs is the allocation ceiling of the
// per-event path: once two windows have warmed the pool, the maps and
// the index slices, observing a window allocates (almost) nothing.
func TestMonitorObserveSteadyStateAllocs(t *testing.T) {
	window := time.Minute
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	m, err := NewMonitor(context.Background(), baseline, window, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var worst float64
	for w := 0; w < 5; w++ {
		from := baseline.End + time.Duration(w)*window
		events := monitorChainEvents(from, from+window, 20*time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range events {
			if _, err := m.Observe(ctx, events[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perEvent := float64(after.Mallocs-before.Mallocs) / float64(len(events)); w >= 2 && perEvent > worst {
			worst = perEvent
		}
		if _, err := m.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if worst > 0.05 {
		t.Errorf("steady-state Observe allocates %.3f objects per event, want <= 0.05", worst)
	}
}

// TestMonitorSnapshot pins the status a long-running service reports:
// the open window's start, size and next flush before and after a grid
// crossing, the window and alarm counts against the report history on a
// fault stream, and the baseline's two integers — kept as counters, not
// read from a retained event slice — across a swap and a failed swap.
func TestMonitorSnapshot(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 301, Faults: []faults.Injector{faults.AppCrash{Host: "S3"}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	window := 30 * time.Second
	m, err := NewMonitor(ctx, res.L1, window, nil, Thresholds{}, res.Options())
	if err != nil {
		t.Fatal(err)
	}
	want := MonitorSnapshot{
		WindowStart:    res.L1.End,
		NextFlush:      res.L1.End + window,
		BaselineEvents: len(res.L1.Events),
		BaselineEnd:    res.L1.End,
	}
	if got := m.Snapshot(); got != want {
		t.Fatalf("fresh monitor: snapshot %+v, want %+v", got, want)
	}
	if log := m.Baseline().Log; len(log.Events) != 0 || log.Start != res.L1.Start || log.End != res.L1.End {
		t.Errorf("monitor baseline retains %d events over [%v,%v], want an event-free stub over [%v,%v]",
			len(log.Events), log.Start, log.End, res.L1.Start, res.L1.End)
	}
	crossings := 0
	for _, e := range res.L2.Events {
		crossed := e.Time >= want.NextFlush
		rep, err := m.Observe(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if crossed {
			// The flushed window is gone; e opened the grid cell holding it.
			crossings++
			want.WindowStart = res.L1.End + (e.Time-res.L1.End)/window*window
			want.NextFlush = want.WindowStart + window
			want.Buffered = 0
		}
		want.Buffered++
		if rep != nil {
			want.Windows++
			if len(rep.Report.Unknown) > 0 {
				want.Alarmed++
			}
		}
		if got := m.Snapshot(); got != want {
			t.Fatalf("after the event at %v (crossed=%v): snapshot %+v, want %+v", e.Time, crossed, got, want)
		}
	}
	if _, err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := m.Snapshot()
	if crossings < 3 || got.Buffered != 0 {
		t.Errorf("%d grid crossings, %d events buffered after the final flush; want >= 3 and 0", crossings, got.Buffered)
	}
	if got.Windows != len(m.Reports()) || got.Alarmed != len(m.Alarms()) {
		t.Errorf("snapshot counts %d windows / %d alarmed, history holds %d / %d", got.Windows, got.Alarmed, len(m.Reports()), len(m.Alarms()))
	}
	if got.Alarmed == 0 {
		t.Error("the crash raised no alarm; the Alarmed count is untested")
	}

	// A failed swap leaves the baseline's integers alone; a good one
	// replaces them and nothing else.
	canceledCtx, cancel := context.WithCancel(ctx)
	cancel()
	if err := m.SwapBaseline(ctx, flowlog.New(0, time.Minute)); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("swap to an empty log: %v, want ErrNoBaseline", err)
	}
	if err := m.SwapBaseline(canceledCtx, res.L2); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled swap: %v, want ErrCanceled", err)
	}
	if after := m.Snapshot(); after != got {
		t.Errorf("failed swaps changed the snapshot: %+v, was %+v", after, got)
	}
	if err := m.SwapBaseline(ctx, res.L2); err != nil {
		t.Fatal(err)
	}
	got.BaselineEvents, got.BaselineEnd = len(res.L2.Events), res.L2.End
	if after := m.Snapshot(); after != got {
		t.Errorf("after the swap: snapshot %+v, want %+v", after, got)
	}
}

// TestMonitorFlushSteadyStateAllocs is the allocation ceiling of the
// per-window path, the flush beside the per-event one above: once two
// windows have warmed the pool and the group cache, modeling, diffing
// and diagnosing a 5k-event window allocates flushAllocCeiling objects
// at most — the measured count plus 15 %. A per-window product nothing
// reads (a stability map for the current side was three times this)
// fails here before it fails the benchmark.
func TestMonitorFlushSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled chunks at random under the race detector")
	}
	const flushAllocCeiling = 245 // measured 213, + 15 %
	// No collection while measuring: one would empty the pool mid-run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	window := time.Minute
	baseline := flowlog.New(0, window)
	baseline.Events = monitorChainEvents(0, window, 48*time.Millisecond)
	m, err := NewMonitor(context.Background(), baseline, window, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var worst uint64
	for w := 0; w < 6; w++ {
		from := baseline.End + time.Duration(w)*window
		events := monitorChainEvents(from, from+window, 48*time.Millisecond)
		if len(events) != 5000 {
			t.Fatalf("window holds %d events, want 5000", len(events))
		}
		for i := range events {
			if _, err := m.Observe(ctx, events[i]); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := m.Flush(ctx)
		runtime.ReadMemStats(&after)
		if err != nil || rep == nil {
			t.Fatalf("window %d: report %v, err %v", w, rep, err)
		}
		if n := after.Mallocs - before.Mallocs; w >= 2 && n > worst {
			worst = n
		}
	}
	t.Logf("steady-state Flush: %d allocations per 5k-event window", worst)
	if worst > flushAllocCeiling {
		t.Errorf("steady-state Flush allocates %d objects per 5k-event window, want <= %d", worst, flushAllocCeiling)
	}
}
