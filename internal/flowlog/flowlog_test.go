package flowlog

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func key(srcLast, dstLast byte, sp, dp uint16) FlowKey {
	return FlowKey{
		Proto:   6,
		Src:     netip.AddrFrom4([4]byte{10, 0, 0, srcLast}),
		Dst:     netip.AddrFrom4([4]byte{10, 0, 0, dstLast}),
		SrcPort: sp,
		DstPort: dp,
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := key(1, 2, 1000, 80)
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Errorf("Reverse() = %+v", r)
	}
	if r.Reverse() != k {
		t.Error("double reverse should be identity")
	}
}

func TestFlowKeyReverseProperty(t *testing.T) {
	f := func(s, d byte, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Proto: proto,
			Src: netip.AddrFrom4([4]byte{10, 1, 0, s}), Dst: netip.AddrFrom4([4]byte{10, 2, 0, d}),
			SrcPort: sp, DstPort: dp}
		return k.Reverse().Reverse() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortAndWindow(t *testing.T) {
	l := New(0, 10*time.Second)
	for _, ts := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 9 * time.Second} {
		l.Append(Event{Time: ts, Type: EventPacketIn, Switch: "sw1", Flow: key(1, 2, 1, 2)})
	}
	l.Sort()
	for i := 1; i < len(l.Events); i++ {
		if l.Events[i].Time < l.Events[i-1].Time {
			t.Fatal("not sorted")
		}
	}
	w := l.Window(2*time.Second, 6*time.Second)
	if len(w.Events) != 2 {
		t.Errorf("window has %d events, want 2", len(w.Events))
	}
	if w.Start != 2*time.Second || w.End != 6*time.Second {
		t.Errorf("window bounds = [%v,%v)", w.Start, w.End)
	}
}

func TestSegment(t *testing.T) {
	l := New(0, 10*time.Second)
	for i := 0; i < 100; i++ {
		l.Append(Event{Time: time.Duration(i) * 100 * time.Millisecond, Type: EventPacketIn})
	}
	segs, err := l.Segment(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("got %d segments", len(segs))
	}
	total := 0
	for _, s := range segs {
		total += len(s.Events)
	}
	if total != 100 {
		t.Errorf("segments cover %d events, want all 100", total)
	}
	if segs[4].End != 10*time.Second {
		t.Errorf("last segment end = %v", segs[4].End)
	}
	if _, err := l.Segment(0); err == nil {
		t.Error("want error for n=0")
	}
	empty := New(5, 5)
	if _, err := empty.Segment(2); err == nil {
		t.Error("want error for zero-duration log")
	}
}

// Regression: an event stamped exactly at the log's End used to vanish
// from every segment (Window is half-open), so stability intervals
// collectively saw fewer events than the whole-log build.
func TestSegmentIncludesEndEvent(t *testing.T) {
	l := New(0, 10*time.Second)
	for _, ts := range []time.Duration{0, 5 * time.Second, 10 * time.Second} {
		l.Append(Event{Time: ts, Type: EventPacketIn})
	}
	segs, err := l.Segment(2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range segs {
		total += len(s.Events)
	}
	if total != 3 {
		t.Errorf("segments cover %d events, want all 3 (End-stamped event must not vanish)", total)
	}
	last := segs[len(segs)-1]
	if len(last.Events) == 0 || last.Events[len(last.Events)-1].Time != 10*time.Second {
		t.Errorf("last segment %v misses the event at End", last.Events)
	}
}

// Property: the binary-search window over a sorted log selects exactly
// the events a brute-force scan selects, and the unsorted fallback
// agrees too.
func TestWindowMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dur := time.Duration(1+rng.Intn(1000)) * time.Millisecond
		l := New(0, dur)
		for i, n := 0, rng.Intn(200); i < n; i++ {
			l.Append(Event{Time: time.Duration(rng.Int63n(int64(dur)))})
		}
		if rng.Intn(2) == 0 {
			l.Sort()
		}
		from := time.Duration(rng.Int63n(int64(dur)))
		to := from + time.Duration(rng.Int63n(int64(dur)))
		got := l.Window(from, to)
		want := 0
		for _, e := range l.Events {
			if e.Time >= from && e.Time < to {
				want++
			}
		}
		if len(got.Events) != want {
			return false
		}
		for _, e := range got.Events {
			if e.Time < from || e.Time >= to {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSegmentPartition(t *testing.T) {
	// Property: segmentation covers every event exactly once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dur := time.Duration(1+rng.Intn(1000)) * time.Millisecond
		l := New(0, dur)
		n := 1 + rng.Intn(30)
		events := 1 + rng.Intn(200)
		for i := 0; i < events; i++ {
			l.Append(Event{Time: time.Duration(rng.Int63n(int64(dur)))})
		}
		segs, err := l.Segment(n)
		if err != nil {
			return true // degenerate (interval shorter than n ns)
		}
		total := 0
		for _, s := range segs {
			total += len(s.Events)
		}
		return total == events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	a := New(0, 5*time.Second)
	a.Append(Event{Time: 4 * time.Second, Switch: "sw1"})
	b := New(3*time.Second, 9*time.Second)
	b.Append(Event{Time: 3 * time.Second, Switch: "sw2"})
	m := Merge(a, b)
	if m.Start != 0 || m.End != 9*time.Second {
		t.Errorf("merged bounds [%v,%v)", m.Start, m.End)
	}
	if len(m.Events) != 2 || m.Events[0].Switch != "sw2" {
		t.Errorf("merged events = %+v", m.Events)
	}
	if e := Merge(); e.Duration() != 0 || len(e.Events) != 0 {
		t.Error("empty merge should be empty")
	}
}

func TestFlowsAndFirstPacketIns(t *testing.T) {
	l := New(0, time.Minute)
	k1 := key(1, 2, 100, 80)
	k2 := key(2, 3, 200, 3306)
	l.Append(Event{Time: 2 * time.Second, Type: EventPacketIn, Switch: "sw2", Flow: k1})
	l.Append(Event{Time: 1 * time.Second, Type: EventPacketIn, Switch: "sw1", Flow: k1})
	l.Append(Event{Time: 3 * time.Second, Type: EventPacketIn, Switch: "sw1", Flow: k2})
	l.Append(Event{Time: 4 * time.Second, Type: EventFlowRemoved, Switch: "sw1", Flow: k2})
	flows := l.Flows()
	if len(flows) != 2 {
		t.Fatalf("Flows() = %v", flows)
	}
	first := l.FirstPacketIns()
	if first[k1].Time != time.Second || first[k1].Switch != "sw1" {
		t.Errorf("first PacketIn for k1 = %+v", first[k1])
	}
	if first[k2].Time != 3*time.Second {
		t.Errorf("first PacketIn for k2 = %+v", first[k2])
	}
}

func TestByTypeAndFilter(t *testing.T) {
	l := New(0, time.Minute)
	l.Append(Event{Type: EventPacketIn, Switch: "a"})
	l.Append(Event{Type: EventFlowMod, Switch: "a"})
	l.Append(Event{Type: EventFlowRemoved, Switch: "b"})
	if got := len(l.ByType(EventPacketIn).Events); got != 1 {
		t.Errorf("ByType(PacketIn) = %d events", got)
	}
	onB := l.Filter(func(e Event) bool { return e.Switch == "b" })
	if len(onB.Events) != 1 || onB.Events[0].Type != EventFlowRemoved {
		t.Errorf("Filter = %+v", onB.Events)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := New(time.Second, time.Minute)
	l.Append(Event{
		Time: 2 * time.Second, Type: EventPacketIn, Switch: "sw1", DPID: 7,
		Flow: key(1, 2, 333, 80), InPort: 4, Reason: 0,
	})
	l.Append(Event{
		Time: 30 * time.Second, Type: EventFlowRemoved, Switch: "sw1", DPID: 7,
		Flow: key(1, 2, 333, 80), Bytes: 9999, Packets: 12, FlowDuration: 28 * time.Second,
	})
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, l)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("{nope"))); err == nil {
		t.Error("want error on malformed JSON")
	}
}

func TestEventTypeJSON(t *testing.T) {
	names := map[EventType]string{
		EventPacketIn: "PacketIn", EventFlowMod: "FlowMod",
		EventFlowRemoved: "FlowRemoved", EventPortStatus: "PortStatus",
	}
	// Every type the name table knows, and nothing it doesn't.
	for et := EventType(0); et <= EventPortStatus+1; et++ {
		name, known := names[et]
		b, err := et.MarshalJSON()
		if !known {
			if err == nil {
				t.Errorf("marshal %d = %s, want error for unknown type value", int(et), b)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+name+`"` || et.String() != name {
			t.Errorf("marshal %d = %s, String %s, want %s", int(et), b, et, name)
		}
		var back EventType
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != et {
			t.Errorf("round trip %v -> %v", et, back)
		}
	}
	if got := EventType(99).String(); got != "EventType(99)" {
		t.Errorf("String of unknown type = %q", got)
	}
	var escaped EventType
	if err := escaped.UnmarshalJSON([]byte(" \"Flow\\u004dod\"\n")); err != nil || escaped != EventFlowMod {
		t.Errorf("escaped name: %v, %v", escaped, err)
	}
	for _, bad := range []string{`"Bogus"`, `""`, `null`, `"packetin"`, `"PACKETIN"`, `1`, `{}`, `"PacketIn" x`, `"PacketIn`, ``} {
		got := EventFlowMod
		if err := got.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("unmarshal %s = %v, want error", bad, got)
		} else if got != EventFlowMod {
			t.Errorf("unmarshal %s failed but wrote %v", bad, got)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	l := New(time.Second, time.Minute)
	l.Append(Event{
		Time: 2 * time.Second, Type: EventPacketIn, Switch: "sw1", DPID: 7,
		Flow: key(1, 2, 333, 80), InPort: 4,
	})
	l.Append(Event{
		Time: 30 * time.Second, Type: EventFlowRemoved, Switch: "sw1", DPID: 7,
		Flow: key(1, 2, 333, 80), Bytes: 9999, Packets: 12, FlowDuration: 28 * time.Second,
		Reason: 1,
	})
	l.Append(Event{ // PortStatus with zero flow key
		Time: 31 * time.Second, Type: EventPortStatus, Switch: "sw2", InPort: 9, Reason: 2,
	})
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("binary round trip:\n got %+v\nwant %+v", got, l)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New(0, time.Duration(1+rng.Intn(1000))*time.Second)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			l.Append(Event{
				Time:         time.Duration(rng.Int63n(int64(l.End))),
				Type:         EventType(1 + rng.Intn(4)),
				Switch:       []string{"sw1", "tor-with-longer-name", ""}[rng.Intn(3)],
				DPID:         rng.Uint64(),
				Flow:         key(byte(rng.Intn(256)), byte(rng.Intn(256)), uint16(rng.Intn(65536)), uint16(rng.Intn(65536))),
				InPort:       uint16(rng.Intn(65536)),
				OutPort:      uint16(rng.Intn(65536)),
				Bytes:        rng.Uint64(),
				Packets:      rng.Uint64(),
				FlowDuration: time.Duration(rng.Int63()),
				Reason:       uint8(rng.Intn(256)),
			})
		}
		var buf bytes.Buffer
		if err := l.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(l.Events) || got.Start != l.Start || got.End != l.End {
			return false
		}
		for i := range l.Events {
			if got.Events[i] != l.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("want error on bad magic")
	}
	// Truncated stream after a valid header.
	l := New(0, time.Minute)
	l.Append(Event{Time: time.Second, Type: EventPacketIn, Switch: "sw1", Flow: key(1, 2, 3, 4)})
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Error("want error on truncated records")
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	l := benchLog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := l.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	l := benchLog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := l.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func benchLog() *Log {
	l := New(0, time.Hour)
	for i := 0; i < 10000; i++ {
		l.Append(Event{
			Time: time.Duration(i) * time.Millisecond, Type: EventPacketIn,
			Switch: "sw1", DPID: 3, Flow: key(byte(i), byte(i>>8), uint16(i), 80), InPort: 2,
		})
	}
	return l
}
