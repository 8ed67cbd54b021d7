package colseg

import (
	"bytes"
	"context"
	"io"
	"net/netip"
	"reflect"
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
	switches := make(map[string]bool, len(f.Switches))
	for _, s := range f.Switches {
		switches[s] = true
	}
	out := []flowlog.Event{}
	for _, e := range evs {
		if f.timeActive() && (e.Time < f.From || e.Time >= f.To) {
			continue
		}
		if len(hosts) > 0 && !hosts[e.Flow.Src] && !hosts[e.Flow.Dst] {
			continue
		}
		if len(switches) > 0 && !switches[e.Switch] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// project is the in-memory reference for ColumnSet semantics:
// unprojected fields read as the zero value.
func project(evs []flowlog.Event, cols ColumnSet) []flowlog.Event {
	cols = cols.normalized()
	out := make([]flowlog.Event, len(evs))
	for i, e := range evs {
		p := flowlog.Event{Time: e.Time}
		if cols.has(columnType) {
			p.Type = e.Type
		}
		if cols.has(columnReason) {
			p.Reason = e.Reason
		}
		if cols.has(columnProto) {
			p.Flow.Proto = e.Flow.Proto
		}
		if cols.has(columnSrc) {
			p.Flow.Src = e.Flow.Src
		}
		if cols.has(columnDst) {
			p.Flow.Dst = e.Flow.Dst
		}
		if cols.has(columnSrcPort) {
			p.Flow.SrcPort = e.Flow.SrcPort
		}
		if cols.has(columnDstPort) {
			p.Flow.DstPort = e.Flow.DstPort
		}
		if cols.has(columnInPort) {
			p.InPort = e.InPort
		}
		if cols.has(columnOutPort) {
			p.OutPort = e.OutPort
		}
		if cols.has(columnDPID) {
			p.DPID = e.DPID
		}
		if cols.has(columnBytes) {
			p.Bytes = e.Bytes
		}
		if cols.has(columnPackets) {
			p.Packets = e.Packets
		}
		if cols.has(columnFlowDur) {
			p.FlowDuration = e.FlowDuration
		}
		if cols.has(columnSwitch) {
			p.Switch = e.Switch
		}
		out[i] = p
	}
	return out
}

var queryCases = []struct {
	name string
	f    Filter
	cols ColumnSet
}{
	{"full", Filter{}, 0},
	{"flow columns", Filter{}, FlowColumns},
	{"endpoints only", Filter{}, ColSrc | ColDst},
	{"counters only", Filter{}, ColBytes | ColPackets | ColFlowDuration},
	{"switch only", Filter{}, ColSwitch},
	{"time window", Filter{From: 40 * time.Second, To: 60 * time.Second}, 0},
	{"host pair", Filter{Hosts: []netip.Addr{
		netip.AddrFrom4([4]byte{10, 2, 1, 1}), netip.AddrFrom4([4]byte{10, 2, 2, 1}),
	}}, 0},
	{"switch filter", Filter{Switches: []string{"sw-b"}}, 0},
	{"host+window+projection", Filter{
		From: 50 * time.Second, To: 70 * time.Second,
		Hosts: []netip.Addr{netip.AddrFrom4([4]byte{10, 3, 1, 1})},
	}, ColSrc | ColDst},
	{"switch+window", Filter{
		From: 0, To: 55 * time.Second, Switches: []string{"sw-a"},
	}, ColSwitch | ColType},
}

// TestQueryReadsMatchReference pins projected and filtered reads, on
// both on-disk versions, against the in-memory reference semantics.
func TestQueryReadsMatchReference(t *testing.T) {
	l := skewedLog(t)
	v2 := encode(t, l, WriterOptions{SegmentDuration: 5 * time.Second, MaxSegmentEvents: 700})
	for ver, raw := range map[int][]byte{1: toV1(t, v2), 2: v2} {
		for _, tc := range queryCases {
			want := project(applyFilter(l.Events, tc.f), tc.cols)
			got := readEvents(t, context.Background(), raw, ReaderOptions{Filter: tc.f, Columns: tc.cols})
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("v%d %s: %d events diverge from reference (%d)", ver, tc.name, len(got), len(want))
			}
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

// TestMembershipPruning: a host (or switch) filter must prune segments
// whose index summary proves absence — without touching their payload —
// on version-2 files, and degrade to decode-time filtering (same
// results, no index pruning) on version-1 files.
func TestMembershipPruning(t *testing.T) {
	l := skewedLog(t)
	// Group 3 hosts appear only from the burst onward: the sparse first
	// half's segments must prune by index.
	f := Filter{Hosts: []netip.Addr{netip.AddrFrom4([4]byte{10, 3, 1, 1})}}
	want := applyFilter(l.Events, f)
	if len(want) == 0 {
		t.Fatal("bad fixture: no events for the filtered host")
	}

	v2 := encode(t, l, WriterOptions{SegmentDuration: 5 * time.Second, MaxSegmentEvents: 700})
	for _, tc := range []struct {
		ver       int
		raw       []byte
		wantIndex bool
	}{{2, v2, true}, {1, toV1(t, v2), false}} {
		raw := tc.raw
		reg := obs.New()
		ctx := obs.WithRegistry(context.Background(), reg)
		got := readEvents(t, ctx, raw, ReaderOptions{Filter: f})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("v%d: host-filtered read diverges from reference", tc.ver)
		}
		prunedX := reg.Counter("colseg.segments.pruned_by_index").Value()
		if tc.wantIndex && prunedX == 0 {
			t.Errorf("v%d: no segments pruned by index for a host absent from the first half", tc.ver)
		}
		if !tc.wantIndex && prunedX != 0 {
			t.Errorf("v%d: %d segments pruned by index on a version without summaries", tc.ver, prunedX)
		}
	}

	// Switch membership prunes too: sw-b never appears before the burst.
	fsw := Filter{Switches: []string{"sw-b"}}
	raw := encode(t, l, WriterOptions{SegmentDuration: 5 * time.Second, MaxSegmentEvents: 700})
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	got := readEvents(t, ctx, raw, ReaderOptions{Filter: fsw})
	if !reflect.DeepEqual(got, applyFilter(l.Events, fsw)) {
		t.Error("switch-filtered read diverges from reference")
	}
	if reg.Counter("colseg.segments.pruned_by_index").Value() == 0 {
		t.Error("no segments pruned by switch membership")
	}
}

// TestProjectedPrunedScanBytesAcceptance is the perf acceptance pin: a
// projected + index-pruned host-pair time-window scan over the
// canonical multi-segment capture must decode >= 5x fewer payload bytes
// than a full read, measured by the colseg.bytes.decoded counter.
func TestProjectedPrunedScanBytesAcceptance(t *testing.T) {
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
		Columns: ColTime | ColSrc | ColDst,
	}
	qReg := obs.New()
	got := readEvents(t, obs.WithRegistry(context.Background(), qReg), raw, q)
	want := project(applyFilter(l.Events, q.Filter), q.Columns)
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
		t.Errorf("projected+pruned scan decoded only %.1fx fewer payload bytes, want >= 5x", ratio)
	}
}

// TestV1FilesRemainReadable: the legacy format round-trips through the
// new reader bit-for-bit.
func TestV1FilesRemainReadable(t *testing.T) {
	l := testLog(2*time.Minute, 2000)
	raw := toV1(t, encode(t, l, WriterOptions{SegmentDuration: 10 * time.Second}))
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatal("v1 round trip mismatch through the new reader")
	}
}

// TestFutureVersionRejected: a file from a future format revision fails
// at open with a version error — the forward-compat contract.
func TestFutureVersionRejected(t *testing.T) {
	raw := encode(t, testLog(time.Second, 20), WriterOptions{})
	future := append([]byte(nil), raw...)
	future[4] = formatVersion2 + 1
	if _, err := NewReaderContext(context.Background(), bytes.NewReader(future), ReaderOptions{}); err == nil {
		t.Error("want version error for a future-format file")
	}
	if _, err := Inspect(bytes.NewReader(future)); err == nil {
		t.Error("Inspect: want version error for a future-format file")
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
		if !seg.HasStats || seg.IndexLen <= 0 {
			t.Errorf("seg %d: v2 segment without stats/index", i)
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

	// Version 1: no index, no stats, unknown cardinalities — but the
	// sizes still come from the footer offsets.
	rawV1 := toV1(t, raw)
	infoV1, err := Inspect(bytes.NewReader(rawV1))
	if err != nil {
		t.Fatal(err)
	}
	if infoV1.Version != 1 || infoV1.Events != len(l.Events) {
		t.Errorf("v1 inspect: version %d, events %d", infoV1.Version, infoV1.Events)
	}
	for i, seg := range infoV1.Segments {
		if seg.HasStats || seg.IndexLen != 0 || seg.Hosts != -1 || seg.Switches != -1 {
			t.Errorf("v1 seg %d: reported v2-only metadata", i)
		}
		sum := 0
		for _, col := range seg.Columns {
			sum += col.Size
		}
		if sum != seg.PayloadLen {
			t.Errorf("v1 seg %d: column sizes sum to %d, payload is %d", i, sum, seg.PayloadLen)
		}
	}
}
