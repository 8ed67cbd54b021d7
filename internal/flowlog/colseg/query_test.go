package colseg

import (
	"bytes"
	"context"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// skewedLog is the multi-segment equivalence capture: long quiet
// stretches, one dense burst (so segment sizes are heavily skewed and
// the event cap cuts mid-range), and host/switch populations that shift
// over time (so membership summaries actually differ per segment).
func skewedLog(t testing.TB) *flowlog.Log {
	t.Helper()
	l := flowlog.New(0, 2*time.Minute)
	add := func(at time.Duration, g byte, port uint16) {
		k := testKey(g, 1, port)
		sw := "sw-a"
		if g >= 2 {
			sw = "sw-b"
		}
		l.Append(flowlog.Event{Time: at, Type: flowlog.EventPacketIn, Switch: sw, DPID: uint64(g), Flow: k, InPort: 1})
		l.Append(flowlog.Event{Time: at + time.Millisecond, Type: flowlog.EventFlowMod, Switch: sw, DPID: uint64(g), Flow: k, OutPort: 2})
		l.Append(flowlog.Event{Time: at + 200*time.Millisecond, Type: flowlog.EventFlowRemoved, Switch: sw, DPID: uint64(g), Flow: k,
			Bytes: 10_000 + uint64(port), Packets: 17, FlowDuration: 150 * time.Millisecond, Reason: 1})
	}
	// Sparse first half: groups 0 and 1 only.
	for i := 0; i < 40; i++ {
		add(time.Duration(i)*1250*time.Millisecond, byte(i%2), uint16(1024+i))
	}
	// Dense burst in [52s, 56s): groups 2 and 3, thousands of events in
	// a few segments.
	for i := 0; i < 1500; i++ {
		add(52*time.Second+time.Duration(i)*2500*time.Microsecond, byte(2+i%2), uint16(2000+i))
	}
	// Sparse tail: group 3 only, plus PortStatus noise with no flow key.
	for i := 0; i < 30; i++ {
		at := 70*time.Second + time.Duration(i)*1500*time.Millisecond
		add(at, 3, uint16(4000+i))
		if i%3 == 0 {
			l.Append(flowlog.Event{Time: at + 2*time.Millisecond, Type: flowlog.EventPortStatus, Reason: 2, InPort: 9})
		}
	}
	l.Sort()
	return l
}

// readEvents drains a reader over raw with the given options.
func readEvents(t testing.TB, ctx context.Context, raw []byte, opts ReaderOptions) []flowlog.Event {
	t.Helper()
	r, err := NewReaderContext(ctx, bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	var all []flowlog.Event
	for {
		batch, err := r.Next()
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
}

// applyFilter is the in-memory reference for Filter semantics.
func applyFilter(evs []flowlog.Event, f Filter) []flowlog.Event {
	hosts := make(map[netip.Addr]bool, len(f.Hosts))
	for _, a := range f.Hosts {
		hosts[a] = true
	}
	out := []flowlog.Event{}
	for _, e := range evs {
		if f.timeActive() && (e.Time < f.From || e.Time >= f.To) {
			continue
		}
		if len(hosts) > 0 && !hosts[e.Flow.Src] && !hosts[e.Flow.Dst] {
			continue
		}
		out = append(out, e)
	}
	return out
}

var queryCases = []struct {
	name string
	f    Filter
}{
	{"full", Filter{}},
	{"time window", Filter{From: 40 * time.Second, To: 60 * time.Second}},
	{"host pair", Filter{Hosts: []netip.Addr{
		netip.AddrFrom4([4]byte{10, 2, 1, 1}), netip.AddrFrom4([4]byte{10, 2, 2, 1}),
	}}},
	{"host+window", Filter{
		From: 50 * time.Second, To: 70 * time.Second,
		Hosts: []netip.Addr{netip.AddrFrom4([4]byte{10, 3, 1, 1})},
	}},
}

// TestQueryReadsMatchReference pins filtered reads against the
// in-memory reference semantics.
func TestQueryReadsMatchReference(t *testing.T) {
	l := skewedLog(t)
	raw := encode(t, l, WriterOptions{SegmentDuration: 5 * time.Second, MaxSegmentEvents: 700})
	for _, tc := range queryCases {
		want := applyFilter(l.Events, tc.f)
		got := readEvents(t, context.Background(), raw, ReaderOptions{Filter: tc.f})
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d events diverge from reference (%d)", tc.name, len(got), len(want))
		}
	}
}

// TestOutOfRangeEventsDroppedAtDecodeTime pins the fix for the PR 7
// time-range path: segments overlapping the window must filter
// out-of-range events during decode — never materialize then drop them.
// The counter contract makes the distinction observable:
// events.decoded counts only materialized (returned) events and
// events.filtered the ones dropped at decode time.
func TestOutOfRangeEventsDroppedAtDecodeTime(t *testing.T) {
	l := testLog(2*time.Minute, 3000)
	raw := encode(t, l, WriterOptions{SegmentDuration: 10 * time.Second})

	// A window straddling segment boundaries: overlapping segments hold
	// both in-window and out-of-window events.
	f := Filter{From: 12 * time.Second, To: 38 * time.Second}
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	got := readEvents(t, ctx, raw, ReaderOptions{Filter: f})
	want := applyFilter(l.Events, f)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windowed read: %d events, reference %d", len(got), len(want))
	}
	for _, e := range got {
		if e.Time < f.From || e.Time >= f.To {
			t.Fatalf("out-of-window event at %v materialized", e.Time)
		}
	}

	decoded := reg.Counter("colseg.events.decoded").Value()
	filtered := reg.Counter("colseg.events.filtered").Value()
	if decoded != int64(len(got)) {
		t.Errorf("events.decoded = %d, want exactly the %d materialized events", decoded, len(got))
	}
	if filtered == 0 {
		t.Error("events.filtered = 0: overlapping segments held no out-of-range events to drop?")
	}
	// decoded+filtered is every event in the segments that were read;
	// everything else was pruned whole.
	read := reg.Counter("colseg.segments.read").Value()
	pruned := reg.Counter("colseg.segments.pruned").Value()
	if read == 0 || pruned == 0 {
		t.Errorf("segments.read = %d, segments.pruned = %d: want both nonzero", read, pruned)
	}
}

// TestMembershipPruning: a host filter must prune segments
// whose index summary proves absence — without touching their payload —
// and return what decode-time filtering alone would.
func TestMembershipPruning(t *testing.T) {
	l := skewedLog(t)
	// Group 3 hosts appear only from the burst onward: the sparse first
	// half's segments must prune by index.
	f := Filter{Hosts: []netip.Addr{netip.AddrFrom4([4]byte{10, 3, 1, 1})}}
	want := applyFilter(l.Events, f)
	if len(want) == 0 {
		t.Fatal("bad fixture: no events for the filtered host")
	}
	raw := encode(t, l, WriterOptions{SegmentDuration: 5 * time.Second, MaxSegmentEvents: 700})
	reg := obs.New()
	got := readEvents(t, obs.WithRegistry(context.Background(), reg), raw, ReaderOptions{Filter: f})
	if !reflect.DeepEqual(got, want) {
		t.Error("host-filtered read diverges from reference")
	}
	if reg.Counter("colseg.segments.pruned_by_index").Value() == 0 {
		t.Error("no segments pruned by index for a host absent from the first half")
	}
}

// TestPrunedScanBytesAcceptance is the perf acceptance pin: an
// index-pruned host-pair time-window scan over the canonical
// multi-segment capture must decode >= 5x fewer payload bytes than a
// full read, measured by the colseg.bytes.decoded counter.
func TestPrunedScanBytesAcceptance(t *testing.T) {
	l := testLog(2*time.Minute, 20_000)
	raw := encode(t, l, WriterOptions{SegmentDuration: 10 * time.Second})

	fullReg := obs.New()
	full := readEvents(t, obs.WithRegistry(context.Background(), fullReg), raw, ReaderOptions{})
	if len(full) != len(l.Events) {
		t.Fatalf("full read returned %d of %d events", len(full), len(l.Events))
	}
	fullBytes := fullReg.Counter("colseg.bytes.decoded").Value()

	q := ReaderOptions{
		Filter: Filter{
			From: 40 * time.Second, To: 60 * time.Second,
			Hosts: []netip.Addr{
				netip.AddrFrom4([4]byte{10, 0, 1, 1}),
				netip.AddrFrom4([4]byte{10, 0, 2, 1}),
			},
		},
	}
	qReg := obs.New()
	got := readEvents(t, obs.WithRegistry(context.Background(), qReg), raw, q)
	want := applyFilter(l.Events, q.Filter)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query read diverges from reference (%d vs %d events)", len(got), len(want))
	}
	qBytes := qReg.Counter("colseg.bytes.decoded").Value()
	if qBytes == 0 {
		t.Fatal("query read decoded zero bytes")
	}
	ratio := float64(fullBytes) / float64(qBytes)
	t.Logf("payload bytes decoded: full=%d query=%d (%.1fx fewer; skipped=%d, segments pruned=%d)",
		fullBytes, qBytes, ratio,
		qReg.Counter("colseg.bytes.skipped").Value(),
		qReg.Counter("colseg.segments.pruned").Value())
	if ratio < 5 {
		t.Errorf("pruned scan decoded only %.1fx fewer payload bytes, want >= 5x", ratio)
	}
}

// TestFutureVersionRejected: a file whose version byte is anything but
// the current one — the retired version 1, a zero byte, or a future
// revision — fails at the header with a version error from every FDC1
// entry point.
func TestFutureVersionRejected(t *testing.T) {
	raw := encode(t, testLog(time.Second, 20), WriterOptions{})
	for _, version := range []byte{0, 1, formatVersion + 1} {
		other := append([]byte(nil), raw...)
		other[4] = version
		check := func(entry string, err error) {
			if err == nil || !strings.Contains(err.Error(), "unsupported version") {
				t.Errorf("version %d: %s returned %v, want an unsupported version error", version, entry, err)
			}
		}
		_, err := NewReaderContext(context.Background(), bytes.NewReader(other), ReaderOptions{})
		check("NewReaderContext", err)
		_, err = ReadAnyInto(context.Background(), bytes.NewReader(other), ReaderOptions{}, nil)
		check("ReadAnyInto", err)
		_, err = Inspect(bytes.NewReader(other))
		check("Inspect", err)
	}
}

// TestReaderBoundsWithFilter: a time-filtered reader reports the filter
// window, so downstream consumers (streamed signature builds) cover
// exactly the queried interval.
func TestReaderBoundsWithFilter(t *testing.T) {
	raw := encode(t, testLog(time.Minute, 600), WriterOptions{})
	r, err := NewReaderContext(context.Background(), bytes.NewReader(raw), ReaderOptions{Filter: Filter{From: 10 * time.Second, To: 20 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if from, to := r.Bounds(); from != 10*time.Second || to != 20*time.Second {
		t.Errorf("Bounds() = [%v, %v], want the filter window", from, to)
	}
	r2, err := NewReaderContext(context.Background(), bytes.NewReader(raw), ReaderOptions{Filter: Filter{Hosts: []netip.Addr{netip.AddrFrom4([4]byte{10, 0, 1, 1})}}})
	if err != nil {
		t.Fatal(err)
	}
	if from, to := r2.Bounds(); from != 0 || to != time.Minute {
		t.Errorf("Bounds() = [%v, %v], want the file bounds when no time filter is set", from, to)
	}
}

// TestInspectReportsSegmentMetadata: Inspect's metadata must agree with
// the writer's segmentation, and its per-column sizes must tile the
// payload exactly.
func TestInspectReportsSegmentMetadata(t *testing.T) {
	l := skewedLog(t)
	raw := encode(t, l, WriterOptions{SegmentDuration: 5 * time.Second, MaxSegmentEvents: 700})
	info, err := Inspect(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.NumColumns != numColumns {
		t.Errorf("version %d / %d columns, want 2 / %d", info.Version, info.NumColumns, numColumns)
	}
	if info.SegmentDuration != 5*time.Second {
		t.Errorf("segment duration %v, want 5s", info.SegmentDuration)
	}
	if info.Events != len(l.Events) {
		t.Errorf("aggregate events %d, want %d", info.Events, len(l.Events))
	}
	if len(info.Segments) < 3 {
		t.Fatalf("only %d segments for a 2m skewed capture", len(info.Segments))
	}
	for i, seg := range info.Segments {
		if seg.Events <= 0 || seg.Events > 700 {
			t.Errorf("seg %d: %d events violates the 700 cap", i, seg.Events)
		}
		if seg.MinTime > seg.MaxTime {
			t.Errorf("seg %d: min %v > max %v", i, seg.MinTime, seg.MaxTime)
		}
		if seg.IndexLen < indexFixedLen {
			t.Errorf("seg %d: index of %d bytes, shorter than its fixed part", i, seg.IndexLen)
		}
		if seg.Hosts < 0 || seg.Switches < 0 {
			t.Errorf("seg %d: summaries overflowed on a small capture", i)
		}
		sum := 0
		for _, col := range seg.Columns {
			sum += col.Size
		}
		if sum != seg.PayloadLen {
			t.Errorf("seg %d: column sizes sum to %d, payload is %d", i, sum, seg.PayloadLen)
		}
	}
}
