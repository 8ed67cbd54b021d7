package flowdiff

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
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
// proof that no goroutine accumulates across Observe/Flush cycles.
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
// its L1 and returns the reports Observe and the final Flush handed back.
func driveMonitor(t *testing.T, s Scenario, window time.Duration) (*Monitor, []MonitorReport, *ScenarioResult) {
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
	return m, observeAll(t, m, res.L2.Events), res
}

// observeAll observes events one at a time, then flushes, and returns
// every report handed back, in window order; any error fails t.
func observeAll(t testing.TB, m *Monitor, events []flowlog.Event) []MonitorReport {
	t.Helper()
	var reports []MonitorReport
	keep := func(rep *MonitorReport, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			reports = append(reports, *rep)
		}
	}
	for _, e := range events {
		keep(m.Observe(context.Background(), e))
	}
	keep(m.Flush(context.Background()))
	return reports
}

// alarmsOf returns the reports that contain unexplained changes.
func alarmsOf(reports []MonitorReport) []MonitorReport {
	var out []MonitorReport
	for _, r := range reports {
		if len(r.Report.Unknown) > 0 {
			out = append(out, r)
		}
	}
	return out
}

func TestMonitorCleanRunStaysQuiet(t *testing.T) {
	_, reports, _ := driveMonitor(t, Scenario{Seed: 200}, time.Minute)
	if len(reports) == 0 {
		t.Fatal("monitor produced no reports")
	}
	for _, r := range alarmsOf(reports) {
		t.Errorf("clean run raised alarm in [%v,%v): %+v", r.From, r.To, r.Report.Unknown)
	}
}

func TestMonitorDetectsMidStreamFault(t *testing.T) {
	_, reports, _ := driveMonitor(t, Scenario{
		Seed:   201,
		Faults: []faults.Injector{faults.AppCrash{Host: "S3"}},
	}, time.Minute)
	alarms := alarmsOf(reports)
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
	_, reports, res := driveMonitor(t, Scenario{Seed: 202}, 30*time.Second)
	// A 3-minute L2 with 30s windows yields ~6 reports.
	if got := len(reports); got < 4 || got > 8 {
		t.Errorf("got %d reports for 3min/30s windows", got)
	}
	// Windows tile the interval without overlap.
	prev := res.L1.End
	for _, r := range reports {
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
	known := 0
	for _, r := range observeAll(t, m, res.L2.Events) {
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
	reports := observeAll(t, m, stream)
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
// modeling the same window from scratch with BuildSignatures.
func TestMonitorStreamingMatchesBatch(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 207})
	if err != nil {
		t.Fatal(err)
	}
	opts := res.Options()
	m, err := NewMonitor(context.Background(), res.L1, 45*time.Second, nil, Thresholds{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	reports := observeAll(t, m, res.L2.Events)
	if len(reports) < 3 {
		t.Fatalf("only %d reports; equivalence would be vacuous", len(reports))
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
			t.Errorf("window [%v,%v): streaming report differs from batch rebuild", r.From, r.To)
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
	if n := m.Snapshot().Windows; n != 0 {
		t.Fatalf("canceled flush counted %d windows", n)
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
	m, reports, res := driveMonitor(t, Scenario{
		Seed:   201,
		Faults: []faults.Injector{faults.AppCrash{Host: "S3"}},
	}, time.Minute)
	alarms := alarmsOf(reports)
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
	before := m.Snapshot()
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
	if after := m.Snapshot(); after != before {
		t.Errorf("RediagnoseWindow changed the monitor: snapshot %+v, was %+v", after, before)
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
	// An empty or inverted window selects nothing either, however many
	// events the capture holds: it must not fall back to the whole
	// capture.
	for _, w := range [][2]time.Duration{{a.From, a.From}, {a.To, a.From}} {
		if rep, err := m.RediagnoseWindow(ctx, bytes.NewReader(raw), w[0], w[1], nil); !errors.Is(err, ErrEmptyLog) {
			t.Errorf("window [%v,%v): returned %v (report %v), want ErrEmptyLog", w[0], w[1], err, rep != nil)
		}
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
	reports := observeAll(t, m, res.L2.Events)
	base, err := BuildSignatures(context.Background(), res.L1, opts)
	if err != nil {
		t.Fatal(err)
	}
	known := 0
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

// TestReleasedBuildAliasesNothing pins the ownership rule of a one-shot
// build: its reader's decode state, its extractor and its occurrence
// hops all go back to pools once its signatures exist, and the next
// build recycles them. So the signatures must alias none of that
// storage, and no build may see what an earlier one left. The oracle is
// a build after two collections, which empty every sync.Pool, so it runs
// on fresh storage. Capture A's signatures are kept while two other
// captures build on what A handed back, and must still equal a fresh
// build of A; wrecked right after they return, they must not change
// the builds after them. A large capture follows a small one, and the
// reverse, with the stability interval count changing from 5 to 3. A
// build canceled mid-stream, and one whose capture is cut off
// mid-stream, must not change the build after them either.
func TestReleasedBuildAliasesNothing(t *testing.T) {
	res, err := RunScenario(Scenario{
		Seed:   207,
		Faults: []faults.Injector{faults.EnableLogging{Host: "S3", Overhead: 60 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var captures [3][]byte
	for i, l := range []*Log{res.L1, res.L2, res.L1.Filter(func(e flowlog.Event) bool { return e.Time >= res.L1.End/2 })} {
		var buf bytes.Buffer
		// Small segments make the build stream many batches.
		if err := colseg.Write(&buf, l, colseg.WriterOptions{MaxSegmentEvents: 500}); err != nil {
			t.Fatal(err)
		}
		captures[i] = buf.Bytes()
	}
	cut := captures[1][:len(captures[1])/2]
	build := func(ctx context.Context, capture []byte, intervals int) (*Signatures, error) {
		src, err := NewColumnarSourceOptions(context.Background(), bytes.NewReader(capture), ColumnarOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opts := res.Options()
		opts.Stability.Intervals = intervals
		return BuildSignaturesReader(ctx, src, opts)
	}
	mustBuild := func(i, intervals int) *Signatures {
		t.Helper()
		sigs, err := build(context.Background(), captures[i], intervals)
		if err != nil {
			t.Fatal(err)
		}
		return sigs
	}
	fresh := func(i, intervals int) *Signatures {
		t.Helper()
		runtime.GC()
		runtime.GC()
		return mustBuild(i, intervals)
	}
	const large, small = 0, 2
	large3, small3 := fresh(large, 3), fresh(small, 3)
	a, b, c := fresh(0, 5), fresh(1, 5), fresh(2, 5)

	kept := mustBuild(0, 5)
	mustBuild(1, 5)
	mustBuild(2, 5)
	if !reflect.DeepEqual(kept, a) {
		t.Error("capture A's signatures changed while later builds reused its storage: they alias pooled memory")
	}
	wreck(mustBuild(0, 5))
	if b2, c2 := mustBuild(1, 5), mustBuild(2, 5); !reflect.DeepEqual(b2, b) || !reflect.DeepEqual(c2, c) {
		t.Error("wrecking capture A's signatures changed the builds after it")
	}
	mustBuild(small, 5)
	if !reflect.DeepEqual(mustBuild(large, 3), large3) {
		t.Error("a large capture's build with 3 intervals after a small one's with 5 differs from a fresh build")
	}
	mustBuild(large, 5)
	if !reflect.DeepEqual(mustBuild(small, 3), small3) {
		t.Error("a small capture's build with 3 intervals after a large one's with 5 differs from a fresh build")
	}
	if _, err := build(&cancelAfter{Context: context.Background(), n: 1}, captures[1], 5); !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-stream cancel: err %v; want ErrCanceled", err)
	}
	if !reflect.DeepEqual(mustBuild(1, 5), b) {
		t.Error("a build after a canceled one differs from a fresh build")
	}
	if _, err := build(context.Background(), cut, 5); !errors.Is(err, ErrBadLog) {
		t.Fatalf("capture cut off mid-stream: err %v; want ErrBadLog", err)
	}
	if !reflect.DeepEqual(mustBuild(2, 5), c) {
		t.Error("a build after a failed one differs from a fresh build")
	}
}

// TestMonitorGroupCacheFollowsEdgeSet pins the cross-window group cache:
// groups are rediscovered exactly when a window's host edge set differs
// from the previous window's. Three windows carry edge sets A, B, A (B
// is A's chain moved to other hosts), and every report must equal a
// fresh build of its window. A cache that never invalidates fails at B,
// and so does one that keeps the extractor's edge map, which the next
// window refills in place, instead of a copy.
func TestMonitorGroupCacheFollowsEdgeSet(t *testing.T) {
	ctx := context.Background()
	window := time.Minute
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	m, err := NewMonitor(ctx, baseline, window, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var windows [][]flowlog.Event
	var stream []flowlog.Event
	for k := 0; k < 3; k++ {
		from := baseline.End + time.Duration(k)*window
		events := monitorChainEvents(from, from+window, 100*time.Millisecond)
		for i := range events {
			if k == 1 {
				for _, a := range []*netip.Addr{&events[i].Flow.Src, &events[i].Flow.Dst} {
					b := a.As4()
					b[2] = 1
					*a = netip.AddrFrom4(b)
				}
			}
		}
		windows = append(windows, events)
		stream = append(stream, events...)
	}
	reports := observeAll(t, m, stream)
	if len(reports) != len(windows) {
		t.Fatalf("got %d reports, want one per window (%d)", len(reports), len(windows))
	}
	base, err := BuildSignatures(ctx, baseline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range reports {
		wl := flowlog.New(r.From, r.To)
		wl.Events = windows[k]
		cur, err := BuildSignatures(ctx, wl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := Diagnose(ctx, Diff(ctx, base, cur, Thresholds{}), nil, Options{}); !reflect.DeepEqual(r.Report, want) {
			t.Errorf("window %d [%v,%v]: report differs from a fresh build of the window", k, r.From, r.To)
		}
	}
}

// TestMonitorObserveSteadyStateAllocs is the allocation ceiling of the
// per-event path, event by event and in whole-window batches: once two
// windows have warmed the pool, the maps and the index slices,
// observing a window allocates (almost) nothing.
func TestMonitorObserveSteadyStateAllocs(t *testing.T) {
	window := time.Minute
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	ctx := context.Background()
	fail := func(_ *MonitorReport, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, batch := range []bool{false, true} {
		m, err := NewMonitor(context.Background(), baseline, window, nil, Thresholds{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for w := 0; w < 5; w++ {
			from := baseline.End + time.Duration(w)*window
			events := monitorChainEvents(from, from+window, 20*time.Millisecond)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if batch {
				m.ObserveBatch(ctx, events, fail)
			}
			for i := 0; !batch && i < len(events); i++ {
				fail(m.Observe(ctx, events[i]))
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
			t.Errorf("steady-state observe (batch=%v) allocates %.3f objects per event, want <= 0.05", batch, worst)
		}
	}
}

// BenchmarkMonitorObserve times the per-event path of one warm 5k-event
// two-hop chain window, event by event through Observe and as one batch
// through ObserveBatch; the flush between windows is not timed.
func BenchmarkMonitorObserve(b *testing.B) {
	window := time.Minute
	baseline := flowlog.New(0, window)
	baseline.Events = monitorHopEvents(0, window)
	shape := monitorHopEvents(0, window)
	ctx := context.Background()
	for _, batch := range []bool{false, true} {
		name := "each"
		if batch {
			name = "batch"
		}
		b.Run(name, func(b *testing.B) {
			m, err := NewMonitor(ctx, baseline, window, nil, Thresholds{}, Options{})
			if err != nil {
				b.Fatal(err)
			}
			events := make([]flowlog.Event, len(shape))
			fail := func(_ *MonitorReport, err error) {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < b.N+2; w++ {
				// Two untimed windows warm the pool and the index slices.
				b.StopTimer()
				if _, err := m.Flush(ctx); err != nil {
					b.Fatal(err)
				}
				for i, e := range shape {
					e.Time += baseline.End + time.Duration(w)*window
					events[i] = e
				}
				if w >= 2 {
					b.StartTimer()
				}
				if batch {
					m.ObserveBatch(ctx, events, fail)
				}
				for i := 0; !batch && i < len(events); i++ {
					fail(m.Observe(ctx, events[i]))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(len(events))*1000, "us/kevent")
		})
	}
}

// BenchmarkMonitorFlush times Flush alone on a warm 5k-event two-hop
// chain window: modeling it, comparing it against the prepared baseline
// and diagnosing it. The window's Observe calls are not timed. The
// sub-benchmarks start after 4 and 64 prior windows; a per-window cost
// that grew with uptime would tell them apart.
func BenchmarkMonitorFlush(b *testing.B) {
	window := time.Minute
	baseline := flowlog.New(0, window)
	baseline.Events = monitorHopEvents(0, window)
	shape := monitorHopEvents(0, window)
	ctx := context.Background()
	for _, prior := range []int{4, 64} {
		b.Run(fmt.Sprintf("prior=%d", prior), func(b *testing.B) {
			m, err := NewMonitor(ctx, baseline, window, nil, Thresholds{}, Options{})
			if err != nil {
				b.Fatal(err)
			}
			flush := func(w int) {
				b.StopTimer()
				for _, e := range shape {
					e.Time += baseline.End + time.Duration(w)*window
					if _, err := m.Observe(ctx, e); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if rep, err := m.Flush(ctx); rep == nil || err != nil {
					b.Fatalf("window %d: report %v, err %v", w, rep, err)
				}
			}
			for w := 0; w < prior; w++ {
				flush(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flush(prior + i)
			}
		})
	}
}

// TestMonitorSnapshot pins the status a long-running service reports:
// the open window's start, size and next flush before and after a grid
// crossing, the window and alarm counts against the reports returned on
// a fault stream, and the baseline's two integers — kept as counters, not
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
	var reports []MonitorReport
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
			reports = append(reports, *rep)
			want.Windows, want.Alarmed = len(reports), len(alarmsOf(reports))
		}
		if got := m.Snapshot(); got != want {
			t.Fatalf("after the event at %v (crossed=%v): snapshot %+v, want %+v", e.Time, crossed, got, want)
		}
	}
	rep, err := m.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		reports = append(reports, *rep)
	}
	got := m.Snapshot()
	if crossings < 3 || got.Buffered != 0 {
		t.Errorf("%d grid crossings, %d events buffered after the final flush; want >= 3 and 0", crossings, got.Buffered)
	}
	if got.Windows != len(reports) || got.Alarmed != len(alarmsOf(reports)) {
		t.Errorf("snapshot counts %d windows / %d alarmed, the returned reports %d / %d", got.Windows, got.Alarmed, len(reports), len(alarmsOf(reports)))
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

// TestMonitorSwapRepreparesBaseline holds every window to the baseline in
// place when it flushes: after SwapBaseline, a window reports exactly
// what a monitor built on the new baseline reports, and after a failed
// swap exactly what a monitor that never swapped reports. A swap that
// left the prepared comparison side stale fails the first half.
func TestMonitorSwapRepreparesBaseline(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 301, Faults: []faults.Injector{faults.AppCrash{Host: "S3"}}})
	if err != nil {
		t.Fatal(err)
	}
	// The crash capture moved onto L1's interval is the new baseline: the
	// swapped monitor and a fresh one on it then share the window grid.
	moved := flowlog.New(res.L1.Start, res.L1.End)
	for _, e := range res.L2.Events {
		e.Time -= res.L2.Start - res.L1.Start
		moved.Events = append(moved.Events, e)
	}
	ctx := context.Background()
	canceledCtx, cancel := context.WithCancel(ctx)
	cancel()
	// run streams L2 through a monitor on base, calls swap on it once the
	// first window has flushed, and returns the reports after that one.
	run := func(base *Log, swap func(*Monitor)) []MonitorReport {
		m, err := NewMonitor(ctx, base, 30*time.Second, nil, Thresholds{}, res.Options())
		if err != nil {
			t.Fatal(err)
		}
		var reports []MonitorReport
		for _, e := range res.L2.Events {
			rep, err := m.Observe(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			if rep != nil {
				if reports = append(reports, *rep); len(reports) == 1 {
					swap(m)
				}
			}
		}
		rep, err := m.Flush(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			reports = append(reports, *rep)
		}
		if len(reports) < 3 {
			t.Fatalf("%d windows, want at least 3", len(reports))
		}
		return reports[1:]
	}
	never := run(res.L1, func(*Monitor) {})
	fresh := run(moved, func(*Monitor) {})
	if reflect.DeepEqual(never, fresh) {
		t.Fatal("the two baselines report alike: the swap is untested")
	}
	swapped := run(res.L1, func(m *Monitor) {
		if err := m.SwapBaseline(ctx, moved); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(swapped, fresh) {
		t.Errorf("after the swap, windows report\n%+v\nwant those of a monitor built on the new baseline\n%+v", swapped, fresh)
	}
	failed := run(res.L1, func(m *Monitor) {
		if err := m.SwapBaseline(ctx, flowlog.New(0, time.Minute)); !errors.Is(err, ErrNoBaseline) {
			t.Errorf("swap to an empty log: %v, want ErrNoBaseline", err)
		}
		if err := m.SwapBaseline(canceledCtx, moved); !errors.Is(err, ErrCanceled) {
			t.Errorf("canceled swap: %v, want ErrCanceled", err)
		}
	})
	if !reflect.DeepEqual(failed, never) {
		t.Errorf("after failed swaps, windows report\n%+v\nwant those of the old baseline\n%+v", failed, never)
	}
}

// TestMonitorFlushSteadyStateAllocs is the allocation ceiling of the
// per-window path, the flush beside the per-event one above: once two
// windows have warmed the pool and the group cache, modeling, diffing
// and diagnosing a 5k-event window allocates flushAllocCeiling objects
// and flushBytesCeiling bytes at most — the measured values plus 15 %.
// A per-window product nothing reads (a stability map for the current
// side was three times the objects), or a flush that hashes flow keys
// again instead of reading their interned ids, fails here before it
// fails the benchmark.
func TestMonitorFlushSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled chunks at random under the race detector")
	}
	const (
		flushAllocCeiling = 33    // measured 29, + 15 %; allocating each window's model anew 103, before the statistics were folded 143, with per-link byte attribution 146, re-sorting the baseline side every window 178
		flushBytesCeiling = 3_120 // measured 2,720, + 15 %; allocating each window's model anew 51,136, before the statistics were folded 114,104, with per-link byte attribution 122,056, keyed by FlowKey 499,480
	)
	// No collection while measuring: one would empty the pool mid-run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P, one pool shard: a chunk put back on another P's private slot
	// would be a 32 KB miss.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	window := time.Minute
	baseline := flowlog.New(0, window)
	baseline.Events = monitorHopEvents(0, window)
	m, err := NewMonitor(context.Background(), baseline, window, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A registry of its own: the span histograms' sample rings grow as
	// they fill, and the Default registry's fill with every test before
	// this one, so only a fresh registry grows them at the same windows
	// in any test order.
	ctx := obs.WithRegistry(context.Background(), obs.New())
	var worst, worstBytes uint64
	for w := 0; w < 6; w++ {
		from := baseline.End + time.Duration(w)*window
		events := monitorHopEvents(from, from+window)
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
		if w >= 2 {
			worst = max(worst, after.Mallocs-before.Mallocs)
			worstBytes = max(worstBytes, after.TotalAlloc-before.TotalAlloc)
		}
	}
	t.Logf("steady-state Flush: %d allocations, %d bytes per 5k-event window", worst, worstBytes)
	if worst > flushAllocCeiling {
		t.Errorf("steady-state Flush allocates %d objects per 5k-event window, want <= %d", worst, flushAllocCeiling)
	}
	if worstBytes > flushBytesCeiling {
		t.Errorf("steady-state Flush allocates %d bytes per 5k-event window, want <= %d", worstBytes, flushBytesCeiling)
	}
}

// TestMonitorHeapFlatInUptime holds a long-running Monitor to memory
// that does not grow with uptime: it keeps nothing it has handed back.
// After 10,000 alarming windows the live heap stays within
// heapGrowthBound of its size after 100; a Monitor that retained every
// report would by then hold several times that.
func TestMonitorHeapFlatInUptime(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled chunks at random under the race detector")
	}
	const (
		windows         = 10_000
		heapGrowthBound = 1 << 20
	)
	ctx := context.Background()
	window := time.Second
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	m, err := NewMonitor(ctx, baseline, window, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every window moves the baseline's chain to other hosts, so every
	// report carries unexplained changes.
	shape := monitorChainEvents(0, window, window/4)
	for i := range shape {
		for _, a := range []*netip.Addr{&shape[i].Flow.Src, &shape[i].Flow.Dst} {
			b := a.As4()
			b[2] = 1
			*a = netip.AddrFrom4(b)
		}
	}
	alarmed := 0
	count := func(rep *MonitorReport, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Report.Unknown) > 0 {
			alarmed++
		}
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	events := make([]flowlog.Event, len(shape))
	var early uint64
	for w := 0; w < windows; w++ {
		for i := range shape {
			events[i] = shape[i]
			events[i].Time += baseline.End + time.Duration(w)*window
		}
		m.ObserveBatch(ctx, events, count)
		if w == 100 {
			early = heapInuse()
		}
	}
	late := heapInuse()
	if snap := m.Snapshot(); snap.Windows != windows-1 || alarmed != windows-1 {
		t.Fatalf("%d windows flushed, %d alarmed; want %d, all alarming", snap.Windows, alarmed, windows-1)
	}
	t.Logf("HeapInuse after 100 windows %d B, after %d windows %d B", early, windows, late)
	if late > early+heapGrowthBound {
		t.Errorf("HeapInuse grew %d B over %d windows, want <= %d", late-early, windows-100, heapGrowthBound)
	}
}

// monitorHopEvents is monitorChainEvents with a second hop and the
// closing FlowRemoved of every flow: 5000 events a minute, and a window
// whose flush models inter-switch latency and flow statistics too.
func monitorHopEvents(from, to time.Duration) []flowlog.Event {
	var out []flowlog.Event
	for _, e := range monitorChainEvents(from, to, 96*time.Millisecond) {
		out = append(out, e)
		if e.Type == flowlog.EventFlowMod {
			out = append(out,
				flowlog.Event{Time: e.Time + time.Millisecond, Type: flowlog.EventPacketIn, Switch: "sw2", Flow: e.Flow},
				flowlog.Event{Time: e.Time + 2*time.Millisecond, Type: flowlog.EventFlowRemoved, Switch: "sw1", Flow: e.Flow, Bytes: 1500, Packets: 1},
			)
		}
	}
	return out
}

// twinRecord is what one of TestObserveBatchMatchesObserve's twins has
// produced so far: every report and every error, in order, and how many
// of the errors were stale events and canceled flushes.
type twinRecord struct {
	reports         []MonitorReport
	errs            []string
	stale, canceled int
}

func (r *twinRecord) add(rep *MonitorReport, err error) {
	if rep != nil {
		r.reports = append(r.reports, *rep)
	}
	if err != nil {
		r.errs = append(r.errs, err.Error())
	}
	switch {
	case errors.Is(err, ErrOutOfOrder):
		r.stale++
	case errors.Is(err, ErrCanceled):
		r.canceled++
	}
}

// TestObserveBatchMatchesObserve holds the batch entry point to the
// per-event one. Two twin monitors see the same stream, one event by
// event through Observe, the other in seeded random batches through
// ObserveBatch; after every batch their reports, error sequences,
// snapshots and "monitor.events" counters must be equal. Batches are
// cut before, on and after grid boundaries, or hold several boundaries;
// stale events sit mid-batch; and one batch starting at a boundary runs
// under a context that cancels mid-flush.
func TestObserveBatchMatchesObserve(t *testing.T) {
	scen, err := RunScenario(Scenario{Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	chainBase := flowlog.New(0, 2*time.Minute)
	chainBase.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	streams := []struct {
		name     string
		baseline *flowlog.Log
		events   []flowlog.Event
		opts     Options
		window   time.Duration
	}{
		{"seed301", scen.L1, scen.L2.Events, scen.Options(), 20 * time.Second},
		{"chain", chainBase, monitorChainEvents(chainBase.End, chainBase.End+5*time.Minute, 100*time.Millisecond), Options{}, 30 * time.Second},
	}
	cuts := 0
	for _, s := range streams {
		for round, randomCuts := range []int{40, 3, 15} {
			rng := rand.New(rand.NewSource(int64(1000*len(s.name) + round)))
			origin := s.baseline.End
			// Stale events (before the grid's origin) mid-stream.
			var events []flowlog.Event
			for i, e := range s.events {
				if i > 0 && rng.Intn(400) == 0 {
					stale := e
					stale.Time = origin - time.Nanosecond
					events = append(events, stale)
				}
				events = append(events, e)
			}
			// Cut points: random ones, plus (except in the sparse round)
			// one just before, on or just after each grid boundary.
			cut := map[int]bool{}
			for len(cut) < randomCuts {
				cut[1+rng.Intn(len(events)-1)] = true
			}
			var crossings []int
			next := origin + s.window
			for i, e := range events {
				if e.Time >= next {
					crossings = append(crossings, i)
					next = origin + ((e.Time-origin)/s.window+1)*s.window
				}
			}
			if len(crossings) < 4 {
				t.Fatalf("%s: only %d grid crossings", s.name, len(crossings))
			}
			if randomCuts > 3 {
				for _, i := range crossings {
					cut[max(1, i+rng.Intn(3)-1)] = true
				}
			}
			// The few events from the second crossing on run under a
			// context that cancels mid-flush; the next batch retries.
			canceledAt := crossings[1]
			cut[canceledAt], cut[canceledAt+1+rng.Intn(5)] = true, true
			bounds := []int{0}
			for i := 1; i < len(events); i++ {
				if cut[i] {
					bounds = append(bounds, i)
				}
			}
			bounds = append(bounds, len(events))
			cuts += len(bounds) - 2

			var ms [2]*Monitor
			var regs [2]*obs.Registry
			for k := range ms {
				if ms[k], err = NewMonitor(context.Background(), s.baseline, s.window, nil, Thresholds{}, s.opts); err != nil {
					t.Fatal(err)
				}
				regs[k] = obs.New()
			}
			var rec [2]twinRecord
			for b := 1; b < len(bounds); b++ {
				lo, hi := bounds[b-1], bounds[b]
				var ctxs [2]context.Context
				for k := range ctxs {
					ctxs[k] = obs.WithRegistry(context.Background(), regs[k])
					if lo == canceledAt {
						ctxs[k] = &cancelAfter{Context: ctxs[k], n: 1}
					}
				}
				observedEach := 0
				for i := lo; i < hi; i++ {
					rep, err := ms[0].Observe(ctxs[0], events[i])
					rec[0].add(rep, err)
					if err == nil {
						observedEach++
					}
				}
				canceledBefore := rec[1].canceled
				observed := ms[1].ObserveBatch(ctxs[1], events[lo:hi], rec[1].add)
				where := fmt.Sprintf("%s round %d, batch [%d,%d)", s.name, round, lo, hi)
				if observed != observedEach {
					t.Fatalf("%s: ObserveBatch observed %d, Observe %d", where, observed, observedEach)
				}
				if !reflect.DeepEqual(rec[1], rec[0]) {
					t.Fatalf("%s: batch twin has %d reports / errors %q, per-event twin %d / %q",
						where, len(rec[1].reports), rec[1].errs, len(rec[0].reports), rec[0].errs)
				}
				if a, b := ms[0].Snapshot(), ms[1].Snapshot(); a != b {
					t.Fatalf("%s: snapshots differ: per-event %+v, batch %+v", where, a, b)
				}
				if a, b := regs[0].Counter("monitor.events").Value(), regs[1].Counter("monitor.events").Value(); a != b {
					t.Fatalf("%s: monitor.events per-event %d, batch %d", where, a, b)
				}
				if lo == canceledAt {
					snap := ms[1].Snapshot()
					if rec[1].canceled == canceledBefore {
						t.Fatalf("%s: the boundary flush under a canceling context reported no ErrCanceled", where)
					}
					if snap.Buffered == 0 || snap.NextFlush > events[lo].Time {
						t.Fatalf("%s: after the canceled flush %+v; want the window and its boundary event still buffered", where, snap)
					}
				}
			}
			for k, m := range ms {
				rep, err := m.Flush(context.Background())
				rec[k].add(rep, err)
			}
			if !reflect.DeepEqual(rec[1], rec[0]) {
				t.Fatalf("%s round %d: final flush differs", s.name, round)
			}
			t.Logf("%s round %d: %d batches, %d reports, %d errors (%d stale, %d canceled)",
				s.name, round, len(bounds)-1, len(rec[0].reports), len(rec[0].errs), rec[0].stale, rec[0].canceled)
			if rec[0].stale == 0 || len(rec[0].reports) < 4 {
				t.Fatalf("%s round %d: %d out-of-order errors and %d reports; the comparison would be vacuous", s.name, round, rec[0].stale, len(rec[0].reports))
			}
		}
	}
	if cuts < 50 {
		t.Fatalf("only %d cuts", cuts)
	}
}

// TestMonitorRecycledModelMatchesOneShot holds every window model a
// long-running Monitor builds into the last window's storage to a
// one-shot BuildSignatures of the window's events: the application and
// infrastructure products, not just the reports. The stream runs a
// healthy stretch into an application crash, so the group set changes
// and some window holds fewer groups, edges and FlowRemoved samples
// than the one before, which a recycled map or slab that kept stale
// entries would show. Each one-shot product is then wrecked, and the
// next window must still match: the two own no storage in common,
// which the test also checks map by map and slice by slice.
func TestMonitorRecycledModelMatchesOneShot(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 301, Faults: []faults.Injector{faults.AppCrash{Host: "S3"}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, opts := context.Background(), res.Options()
	// The baseline is L1's first half; the stream is its second half,
	// then the crash.
	mid := (res.L1.Start + res.L1.End) / 2
	baseline := flowlog.New(res.L1.Start, mid)
	var stream []flowlog.Event
	for _, e := range res.L1.Events {
		if e.Time < mid {
			baseline.Append(e)
		} else {
			stream = append(stream, e)
		}
	}
	stream = append(stream, res.L2.Events...)
	m, err := NewMonitor(ctx, baseline, 20*time.Second, nil, Thresholds{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	type size struct{ groups, edges, samples int }
	var prev size
	var windows, groupChanges, shrinks int
	var prevKeys string
	check := func(to time.Duration, inclusive bool) {
		occs := m.ex.Gather()
		if len(occs) < m.minOcc {
			return
		}
		got, err := m.signaturesFor(ctx, to, occs)
		if err != nil {
			t.Fatal(err)
		}
		wl := flowlog.New(m.start, to)
		for _, e := range stream {
			if e.Time >= m.start && (e.Time < to || inclusive && e.Time == to) {
				wl.Append(e)
			}
		}
		want, err := BuildSignatures(ctx, wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Apps, want.Apps) {
			t.Errorf("window [%v, %v]: recycled application signatures differ from a one-shot build", m.start, to)
		}
		if !reflect.DeepEqual(got.Infra, want.Infra) {
			t.Errorf("window [%v, %v]: recycled infrastructure signature differs from a one-shot build", m.start, to)
		}
		mine := storage(got)
		for p := range storage(want) {
			if mine[p] {
				t.Fatalf("window [%v, %v]: the recycled and the one-shot model share storage", m.start, to)
			}
		}
		cur := size{groups: len(got.Apps)}
		keys := ""
		for _, a := range got.Apps {
			keys += a.Group.Key() + ";"
			cur.edges += len(a.CG)
			for _, fs := range a.FS {
				cur.samples += len(fs.BytesSamples)
			}
		}
		if windows > 0 {
			if keys != prevKeys {
				groupChanges++
			}
			if cur.groups < prev.groups && cur.edges < prev.edges && cur.samples < prev.samples {
				shrinks++
			}
		}
		windows, prev, prevKeys = windows+1, cur, keys
		wreck(want)
	}
	for _, e := range stream {
		if e.Time >= m.next && m.ex.Events() > 0 {
			check(m.next, false)
		}
		if _, err := m.Observe(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	check(m.end, true)
	if rep, err := m.Flush(ctx); rep == nil || err != nil {
		t.Fatalf("final flush: report %v, err %v", rep, err)
	}
	t.Logf("%d windows, %d group-set changes, %d shrinking windows", windows, groupChanges, shrinks)
	if windows < 10 || groupChanges == 0 || shrinks == 0 {
		t.Fatalf("%d windows, %d group-set changes, %d shrinking windows: the stream exercises too little", windows, groupChanges, shrinks)
	}
}

// storage returns the address of every map, array and histogram a
// signature build returned.
func storage(s *Signatures) map[uintptr]bool {
	out := make(map[uintptr]bool)
	add := func(v any) {
		if p := reflect.ValueOf(v).Pointer(); p != 0 {
			out[p] = true
		}
	}
	add(s.Apps)
	for _, a := range s.Apps {
		add(a.CG)
		add(a.FS)
		add(a.CI)
		add(a.DD)
		add(a.PC)
		for _, fs := range a.FS {
			add(fs.BytesSamples)
		}
		for _, ci := range a.CI {
			add(ci.Edges)
			add(ci.Counts)
			add(ci.Fractions)
		}
		for _, dd := range a.DD {
			add(dd.Histogram)
			add(dd.Histogram.Counts)
		}
	}
	add(s.Infra.SwitchAdj)
	add(s.Infra.HostAttach)
	add(s.Infra.HostAttachCount)
	add(s.Infra.ISL)
	add(s.Infra.CRTSamples)
	return out
}

// wreck overwrites everything a signature build returns.
func wreck(s *Signatures) {
	for i := range s.Apps {
		a := &s.Apps[i]
		for _, fs := range a.FS {
			for j := range fs.BytesSamples {
				fs.BytesSamples[j] = -1
			}
		}
		for _, ci := range a.CI {
			clear(ci.Edges)
			for j := range ci.Counts {
				ci.Counts[j], ci.Fractions[j] = -1, -1
			}
		}
		for _, dd := range a.DD {
			for j := range dd.Histogram.Counts {
				dd.Histogram.Counts[j] = -1
			}
		}
		clear(a.CG)
		clear(a.FS)
		clear(a.CI)
		clear(a.DD)
		clear(a.PC)
	}
	for j := range s.Infra.CRTSamples {
		s.Infra.CRTSamples[j] = -1
	}
	clear(s.Infra.SwitchAdj)
	clear(s.Infra.HostAttach)
	clear(s.Infra.HostAttachCount)
	clear(s.Infra.ISL)
}
