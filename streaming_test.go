package flowdiff_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
)

// writeColumnar serializes a log to an FDC1 file in a test temp dir.
func writeColumnar(t testing.TB, log *flowdiff.Log) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.fdc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := colseg.Write(f, log, colseg.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func openColumnar(t testing.TB, path string) (*colseg.Reader, func()) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := colseg.NewReaderContext(context.Background(), f, colseg.ReaderOptions{})
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	return r, func() { f.Close() }
}

// TestBuildSignaturesReaderMatchesInMemory pins the streaming build's
// headline contract: signatures built by streaming an on-disk columnar
// capture are byte-identical (reflect.DeepEqual over float-carrying
// structs) to BuildSignatures over the same log in memory.
func TestBuildSignaturesReaderMatchesInMemory(t *testing.T) {
	log := synthThreeTierLog(30_000)
	path := writeColumnar(t, log)
	ref, err := flowdiff.BuildSignatures(context.Background(), log, flowdiff.Options{})
	if err != nil {
		t.Fatal(err)
	}

	r, done := openColumnar(t, path)
	got, err := flowdiff.BuildSignaturesReader(context.Background(), r, flowdiff.Options{})
	done()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Apps, ref.Apps) {
		t.Error("app signatures differ from the in-memory build")
	}
	if !reflect.DeepEqual(got.Infra, ref.Infra) {
		t.Error("infra signatures differ from the in-memory build")
	}
	if !reflect.DeepEqual(got.Stability, ref.Stability) {
		t.Error("stability results differ from the in-memory build")
	}
	if got.Log.Start != log.Start || got.Log.End != log.End {
		t.Errorf("stub log bounds [%v,%v], want [%v,%v]", got.Log.Start, got.Log.End, log.Start, log.End)
	}
	if len(got.Log.Events) != 0 {
		t.Errorf("streaming build materialized %d events", len(got.Log.Events))
	}
}

// The public source constructor must serve the same streamed build as
// opening the internal reader directly, and reject non-FDC1 input.
func TestNewColumnarSource(t *testing.T) {
	log := synthThreeTierLog(2_000)
	path := writeColumnar(t, log)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := flowdiff.NewColumnarSourceOptions(context.Background(), f, flowdiff.ColumnarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := flowdiff.BuildSignaturesReader(context.Background(), src, flowdiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := flowdiff.BuildSignatures(context.Background(), log, flowdiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Apps, want.Apps) {
		t.Error("public source constructor: app signatures differ from the in-memory build")
	}
	if _, err := flowdiff.NewColumnarSourceOptions(context.Background(), bytes.NewReader([]byte("not a columnar log")), flowdiff.ColumnarOptions{}); err == nil {
		t.Error("want error for non-FDC1 input")
	}
}

func TestBuildSignaturesReaderEmpty(t *testing.T) {
	if _, err := flowdiff.BuildSignaturesReader(context.Background(), nil, flowdiff.Options{}); !errors.Is(err, flowdiff.ErrEmptyLog) {
		t.Errorf("nil source: err = %v, want ErrEmptyLog", err)
	}
	path := writeColumnar(t, flowlog.New(0, time.Minute))
	r, done := openColumnar(t, path)
	defer done()
	if _, err := flowdiff.BuildSignaturesReader(context.Background(), r, flowdiff.Options{}); !errors.Is(err, flowdiff.ErrEmptyLog) {
		t.Errorf("empty source: err = %v, want ErrEmptyLog", err)
	}
}

// TestStreamingBuildBoundedHeap is the tentpole's memory acceptance: a
// 10M-event on-disk capture streams through the full signature build
// with peak heap bounded far below the ~1.2 GiB the materialized event
// slice alone would cost. The capture is mostly PortStatus churn (the
// shape of a long idle capture) with a three-tier control workload
// sprinkled through, so the build does real extraction work while the
// event volume dominates.
func TestStreamingBuildBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-event streaming build; skipped with -short")
	}
	const (
		nEvents = 10_000_000
		dur     = 10 * time.Minute
		budget  = 320 << 20 // bytes of peak HeapAlloc; the event slice alone would be ~1.2 GiB
	)
	path := filepath.Join(t.TempDir(), "big.fdc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := colseg.NewWriter(f, 0, dur, colseg.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	host := func(g, role byte) netip.Addr { return netip.AddrFrom4([4]byte{10, g, role, 1}) }
	for i := 0; i < nEvents; i++ {
		at := dur * time.Duration(i) / nEvents
		e := flowlog.Event{Time: at, Type: flowlog.EventPortStatus, Switch: "sw-core", Reason: 2, InPort: uint16(i % 48)}
		if i%1000 < 3 {
			g := byte(i / 1000 % 8)
			k := flowlog.FlowKey{Proto: 6, Src: host(g, 1), Dst: host(g, 2), SrcPort: uint16(1024 + i/1000%50000), DstPort: 80}
			switch i % 1000 {
			case 0:
				e = flowlog.Event{Time: at, Type: flowlog.EventPacketIn, Switch: "sw-edge", Flow: k, InPort: 1}
			case 1:
				e = flowlog.Event{Time: at, Type: flowlog.EventFlowMod, Switch: "sw-edge", Flow: k, OutPort: 2}
			case 2:
				e = flowlog.Event{Time: at, Type: flowlog.EventFlowRemoved, Switch: "sw-edge", Flow: k, Bytes: 30000, Packets: 40, FlowDuration: 300 * time.Millisecond}
			}
		}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := peak.Load()
			if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				sample()
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	r, closeFile := openColumnar(t, path)
	sigs, err := flowdiff.BuildSignaturesReader(context.Background(), r, flowdiff.Options{})
	closeFile()
	sample()
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs.Apps) == 0 {
		t.Error("streaming build found no app signatures in the control workload")
	}
	if got := peak.Load(); got > budget {
		t.Errorf("peak HeapAlloc %d MiB exceeds the %d MiB streaming budget", got>>20, budget>>20)
	} else {
		t.Logf("peak HeapAlloc %d MiB (budget %d MiB, materialized slice ~1.2 GiB)", got>>20, budget>>20)
	}
}

// TestScenarioCaptureCompressionRatio is the format's size acceptance:
// on a canonical scenario capture, FDC1 must be at least 1.5x smaller
// than the retired row-binary FDL1, whose exact size was a 24-byte
// header plus 60 bytes and the switch name per event.
func TestScenarioCaptureCompressionRatio(t *testing.T) {
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed: 301, Case: 1,
		BaselineDur: 30 * time.Second, FaultDur: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fdc, js bytes.Buffer
	if err := colseg.Write(&fdc, res.L1, colseg.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := res.L1.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	fdl := 24
	for _, e := range res.L1.Events {
		fdl += 60 + len(e.Switch)
	}
	ratio := float64(fdl) / float64(fdc.Len())
	t.Logf("scenario capture: %d events, FDC1=%d bytes, FDL1=%d bytes (%.2fx), JSON=%d bytes (%.2fx)",
		len(res.L1.Events), fdc.Len(), fdl, ratio, js.Len(), float64(js.Len())/float64(fdc.Len()))
	if ratio < 1.5 {
		t.Errorf("FDC1/FDL1 ratio %.2f < 1.5 on the canonical scenario capture", ratio)
	}
}

// BenchmarkBuildFromReader measures the full streaming build — open,
// decode, extract, all signature products — over an on-disk columnar
// capture.
func BenchmarkBuildFromReader(b *testing.B) {
	log := synthThreeTierLog(100_000)
	path := writeColumnar(b, log)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		r, err := colseg.NewReaderContext(context.Background(), f, colseg.ReaderOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sigs, err := flowdiff.BuildSignaturesReader(context.Background(), r, flowdiff.Options{})
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(sigs.Apps) == 0 {
			b.Fatal("no app signatures")
		}
	}
}

// drainSource pulls every batch out of an EventSource.
func drainSource(t testing.TB, src flowdiff.EventSource) []flowdiff.Event {
	t.Helper()
	var all []flowdiff.Event
	for {
		batch, err := src.Next()
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
}

// TestQueryReadsEquivalentOnScenarioCapture is the equivalence suite on
// the canonical scenario capture through the public API: filtered reads
// must agree with the full read (reflect.DeepEqual).
func TestQueryReadsEquivalentOnScenarioCapture(t *testing.T) {
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed: 301, Case: 1,
		BaselineDur: 30 * time.Second, FaultDur: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := colseg.Write(&buf, res.L1, colseg.WriterOptions{SegmentDuration: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	drain := func(o flowdiff.ColumnarOptions) []flowdiff.Event {
		src, err := flowdiff.NewColumnarSourceOptions(context.Background(), bytes.NewReader(raw), o)
		if err != nil {
			t.Fatal(err)
		}
		return drainSource(t, src)
	}

	full := drain(flowdiff.ColumnarOptions{})
	if !reflect.DeepEqual(full, res.L1.Events) {
		t.Fatalf("full read returned %d events, capture has %d", len(full), len(res.L1.Events))
	}

	// A host-pair time window matches the in-memory reference filter.
	var hosts []netip.Addr
	for _, e := range full {
		if e.Flow.Src.IsValid() {
			hosts = []netip.Addr{e.Flow.Src, e.Flow.Dst}
			break
		}
	}
	if hosts == nil {
		t.Fatal("no flow events in the scenario capture")
	}
	f := flowdiff.ReadFilter{From: 10 * time.Second, To: 25 * time.Second, Hosts: hosts}
	got := drain(flowdiff.ColumnarOptions{Filter: f})
	hostSet := map[netip.Addr]bool{hosts[0]: true, hosts[1]: true}
	want := []flowdiff.Event{}
	for _, e := range full {
		if e.Time < f.From || e.Time >= f.To {
			continue
		}
		if !hostSet[e.Flow.Src] && !hostSet[e.Flow.Dst] {
			continue
		}
		want = append(want, e)
	}
	if len(want) == 0 {
		t.Fatal("reference filter kept no events; widen the fixture window")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("filtered read: %d events diverge from the %d-event reference", len(got), len(want))
	}

	// A time-filtered source reports the window from Bounds, so a
	// signature build over it covers exactly the queried interval.
	src, err := flowdiff.NewColumnarSourceOptions(context.Background(), bytes.NewReader(raw), flowdiff.ColumnarOptions{Filter: f})
	if err != nil {
		t.Fatal(err)
	}
	if from, to := src.Bounds(); from != f.From || to != f.To {
		t.Errorf("filtered source Bounds() = [%v, %v], want the filter window", from, to)
	}
}
