package colseg

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

func testKey(g, role byte, port uint16) flowlog.FlowKey {
	return flowlog.FlowKey{
		Proto:   6,
		Src:     netip.AddrFrom4([4]byte{10, g, role, 1}),
		Dst:     netip.AddrFrom4([4]byte{10, g, role + 1, 1}),
		SrcPort: port,
		DstPort: 80,
	}
}

// testLog synthesizes a representative capture over [0, dur]: a few
// application groups exchanging flows through a handful of switches,
// with per-flow PacketIn/FlowMod/FlowRemoved plus occasional PortStatus
// events carrying a zero flow key and an empty switch name.
func testLog(dur time.Duration, nEvents int) *flowlog.Log {
	l := flowlog.New(0, dur)
	reqs := nEvents / 10
	if reqs < 1 {
		reqs = 1
	}
	step := dur / time.Duration(reqs+1)
	for i := 0; i < reqs; i++ {
		t0 := time.Duration(i+1) * step
		g := byte(i % 4)
		k := testKey(g, 1, uint16(1024+i%5000))
		sw1, sw2 := fmt.Sprintf("sw%d-1", g), fmt.Sprintf("sw%d-2", g)
		l.Append(flowlog.Event{Time: t0, Type: flowlog.EventPacketIn, Switch: sw1, DPID: uint64(g), Flow: k, InPort: 1})
		l.Append(flowlog.Event{Time: t0 + time.Millisecond, Type: flowlog.EventFlowMod, Switch: sw1, DPID: uint64(g), Flow: k, OutPort: 2})
		l.Append(flowlog.Event{Time: t0 + 2*time.Millisecond, Type: flowlog.EventPacketIn, Switch: sw2, DPID: uint64(g) + 10, Flow: k, InPort: 3})
		l.Append(flowlog.Event{Time: t0 + 3*time.Millisecond, Type: flowlog.EventFlowMod, Switch: sw2, DPID: uint64(g) + 10, Flow: k, OutPort: 4})
		l.Append(flowlog.Event{Time: t0 + 400*time.Millisecond, Type: flowlog.EventFlowRemoved, Switch: sw1, DPID: uint64(g), Flow: k,
			Bytes: 30000 + uint64(i), Packets: 40, FlowDuration: 300 * time.Millisecond, Reason: 1})
		if i%7 == 0 {
			// Port status with a zero flow key and an empty switch name.
			l.Append(flowlog.Event{Time: t0 + 5*time.Millisecond, Type: flowlog.EventPortStatus, Reason: 2, InPort: 9})
		}
	}
	l.Sort()
	return l
}

func encode(t testing.TB, l *flowlog.Log, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, l, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	l := testLog(2*time.Minute, 2000)
	raw := encode(t, l, WriterOptions{})
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("round trip mismatch: got %d events, want %d", len(got.Events), len(l.Events))
	}
}

func TestRoundTripSegmentCuts(t *testing.T) {
	// Tiny segments: both the time boundary and the event cap must cut.
	l := testLog(2*time.Minute, 2000)
	for _, opts := range []WriterOptions{
		{SegmentDuration: time.Second},
		{MaxSegmentEvents: 7},
		{SegmentDuration: 5 * time.Second, MaxSegmentEvents: 33},
	} {
		got, err := Read(bytes.NewReader(encode(t, l, opts)))
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("%+v: round trip mismatch", opts)
		}
	}
}

func TestRoundTripUnsortedLogIsSorted(t *testing.T) {
	l := flowlog.New(0, time.Minute)
	l.Append(flowlog.Event{Time: 30 * time.Second, Type: flowlog.EventPacketIn, Switch: "b", Flow: testKey(1, 1, 10)})
	l.Append(flowlog.Event{Time: 10 * time.Second, Type: flowlog.EventPacketIn, Switch: "a", Flow: testKey(2, 1, 11)})
	l.Append(flowlog.Event{Time: 10 * time.Second, Type: flowlog.EventFlowMod, Switch: "a", Flow: testKey(2, 1, 11)})
	raw := encode(t, l, WriterOptions{})

	want := &flowlog.Log{Start: l.Start, End: l.End, Events: append([]flowlog.Event(nil), l.Events...)}
	want.Sort()
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant sorted %+v", got.Events, want.Events)
	}
	// The original log was left untouched (Write sorts a copy).
	if l.Events[0].Time != 30*time.Second {
		t.Error("Write mutated the caller's event order")
	}
}

func TestRoundTripEmptyLog(t *testing.T) {
	l := flowlog.New(3*time.Second, 9*time.Second)
	got, err := Read(bytes.NewReader(encode(t, l, WriterOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("got %+v, want %+v", got, l)
	}
}

func TestWriterRejectsOutOfOrderAppend(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0, time.Minute, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(flowlog.Event{Time: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(flowlog.Event{Time: 2 * time.Second}); err == nil {
		t.Error("want error for out-of-order append")
	}
}

func TestTimeRangeReadPrunesSegments(t *testing.T) {
	l := testLog(2*time.Minute, 3000)
	raw := encode(t, l, WriterOptions{SegmentDuration: 10 * time.Second})

	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	from, to := 40*time.Second, 60*time.Second
	r, err := NewReaderContext(ctx, bytes.NewReader(raw), ReaderOptions{Filter: Filter{From: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := l.Window(from, to)
	if got.Start != want.Start || got.End != want.End || len(got.Events) != len(want.Events) {
		t.Fatalf("window decode: %d events over [%v,%v), want %d over [%v,%v)",
			len(got.Events), got.Start, got.End, len(want.Events), want.Start, want.End)
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}

	read := reg.Counter("colseg.segments.read").Value()
	pruned := reg.Counter("colseg.segments.pruned").Value()
	if pruned == 0 {
		t.Error("no segments pruned for a 20s window over a 2m log")
	}
	// A 20 s window over 10 s segments decodes at most 3 segments
	// (boundary overlap); everything else must be pruned from metadata.
	if read > 3 {
		t.Errorf("decoded %d segments for a 20s window over 10s segments, want <= 3", read)
	}
	if decoded := reg.Counter("colseg.events.decoded").Value(); decoded >= int64(len(l.Events)) {
		t.Errorf("decoded %d of %d events: pruning decoded the whole log", decoded, len(l.Events))
	}
}

func TestReaderBatchSizes(t *testing.T) {
	l := testLog(time.Minute, 1200)
	raw := encode(t, l, WriterOptions{SegmentDuration: 7 * time.Second})
	for _, bs := range []int{1, 7, 100, 8192} {
		r, err := NewReader(bytes.NewReader(raw), ReaderOptions{BatchSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		var all []flowlog.Event
		for {
			batch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("batch=%d: %v", bs, err)
			}
			if len(batch) == 0 || len(batch) > bs {
				t.Fatalf("batch=%d: got a batch of %d", bs, len(batch))
			}
			all = append(all, batch...)
		}
		if !reflect.DeepEqual(all, l.Events) {
			t.Fatalf("batch=%d: concatenated batches diverge from the log", bs)
		}
		// Terminal io.EOF is sticky.
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("batch=%d: post-EOF Next = %v", bs, err)
		}
	}
}

// Corruption must surface as a wrapped error from every entry point —
// never a panic, never an allocation driven by a hostile length field.
func TestReaderCorruption(t *testing.T) {
	l := testLog(time.Minute, 600)
	raw := encode(t, l, WriterOptions{SegmentDuration: 10 * time.Second})

	segStart := headerLen // first segment tag offset
	mutants := map[string]func([]byte) []byte{
		"empty":            func(b []byte) []byte { return nil },
		"bad file magic":   func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":      func(b []byte) []byte { b[4] = 99; return b },
		"bad column count": func(b []byte) []byte { b[5] = numColumns + 3; return b },
		"truncated header": func(b []byte) []byte { return b[:headerLen-5] },
		"bad segment tag":  func(b []byte) []byte { b[segStart] = 'Q'; return b },
		"truncated preamble": func(b []byte) []byte {
			return b[:segStart+4+preambleLenV2-2]
		},
		"truncated index": func(b []byte) []byte {
			return b[:segStart+4+preambleLenV2+10]
		},
		"zero event count": func(b []byte) []byte {
			b[segStart+4+16] = 0
			b[segStart+4+17] = 0
			b[segStart+4+18] = 0
			b[segStart+4+19] = 0
			return b
		},
		"implausible event count": func(b []byte) []byte {
			b[segStart+4+16] = 0xff
			b[segStart+4+17] = 0xff
			b[segStart+4+18] = 0xff
			b[segStart+4+19] = 0xff
			return b
		},
		"implausible payload length": func(b []byte) []byte {
			b[segStart+4+20] = 0xff
			b[segStart+4+21] = 0xff
			b[segStart+4+22] = 0xff
			b[segStart+4+23] = 0xff
			return b
		},
		"implausible index length": func(b []byte) []byte {
			b[segStart+4+24] = 0xff
			b[segStart+4+25] = 0xff
			b[segStart+4+26] = 0xff
			b[segStart+4+27] = 0xff
			return b
		},
		"payload bit flip fails CRC": func(b []byte) []byte {
			idxLen := int(uint32(b[segStart+4+24])<<24 | uint32(b[segStart+4+25])<<16 |
				uint32(b[segStart+4+26])<<8 | uint32(b[segStart+4+27]))
			b[segStart+4+preambleLenV2+idxLen+5] ^= 0x40
			return b
		},
		"index bit flip fails offset or CRC check": func(b []byte) []byte {
			b[segStart+4+preambleLenV2+2] ^= 0x40
			return b
		},
		"missing end marker": func(b []byte) []byte {
			return b[:len(b)-4]
		},
	}
	for name, mutate := range mutants {
		t.Run(name, func(t *testing.T) {
			b := mutate(append([]byte(nil), raw...))
			if _, err := Read(bytes.NewReader(b)); err == nil {
				t.Errorf("%s: decode succeeded on corrupted input", name)
			}
		})
	}
}

func TestReaderCorruptOffsetsAndDict(t *testing.T) {
	// Rebuild a one-segment legacy (version-1) file and corrupt footer
	// offsets / dictionary indexes directly: the bounds-checked cursor
	// must error, not panic.
	l := testLog(time.Second, 40)
	raw := encode(t, l, WriterOptions{FormatVersion: 1})
	// footer offsets start at: header + tag + preamble + payloadLen
	pre := headerLen + 4
	payloadLen := int(uint32(raw[pre+20])<<24 | uint32(raw[pre+21])<<16 | uint32(raw[pre+22])<<8 | uint32(raw[pre+23]))
	footer := pre + preambleLenV1 + payloadLen
	corrupt := append([]byte(nil), raw...)
	// Out-of-range first offset (but keep CRC valid: offsets are outside
	// the checksummed payload).
	corrupt[footer] = 0xff
	corrupt[footer+1] = 0xff
	corrupt[footer+2] = 0xff
	corrupt[footer+3] = 0xff
	if _, err := Read(bytes.NewReader(corrupt)); err == nil {
		t.Error("decode succeeded with a corrupt offset table")
	}

	// Decreasing offsets.
	corrupt = append([]byte(nil), raw...)
	copy(corrupt[footer+4:footer+8], []byte{0, 0, 0, 0})
	corrupt[footer+4+4] = 0 // third offset smaller than second is fine; force second < first instead
	if _, err := Read(bytes.NewReader(corrupt)); err == nil {
		// The first offset is 0, so zeroing the second can be a no-op;
		// only fail the test when the mutation really reordered offsets.
		t.Log("offset mutation was a no-op; covered by the out-of-range case")
	}
}

func FuzzReadSegment(f *testing.F) {
	l := testLog(30*time.Second, 200)
	valid := encode(f, l, WriterOptions{SegmentDuration: 5 * time.Second})
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add(valid[:headerLen+2])
	f.Add([]byte("FDC1"))
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+4+preambleLenV2+3] ^= 0x10
	f.Add(flipped)
	counted := append([]byte(nil), valid...)
	counted[headerLen+4+16] = 0xff
	f.Add(counted)
	// Legacy layout seeds: a valid version-1 file and a bit-flipped one.
	validV1 := encode(f, l, WriterOptions{SegmentDuration: 5 * time.Second, FormatVersion: 1})
	f.Add(validV1)
	flippedV1 := append([]byte(nil), validV1...)
	flippedV1[headerLen+4+preambleLenV1+3] ^= 0x10
	f.Add(flippedV1)
	// Mixed-version mutants: a v2 body under a v1 header byte and vice
	// versa — the reader must fail with a wrapped error, not misparse.
	crossA := append([]byte(nil), valid...)
	crossA[4] = formatVersion1
	f.Add(crossA)
	crossB := append([]byte(nil), validV1...)
	crossB[4] = formatVersion2
	f.Add(crossB)
	// A future revision must be rejected from the header.
	future := append([]byte(nil), valid...)
	future[4] = formatVersion2 + 1
	f.Add(future)
	// The largest plausible event count declared over a small payload,
	// in both layouts: it passes the preamble checks (the count is not
	// covered by a CRC) and must fail in the column decode.
	f.Add(hostileCount(valid))
	f.Add(hostileCount(validV1))

	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadAll decodes straight into the log it returns; batch by
		// batch or all at once, the outcome must be the same.
		all, allErr := Read(bytes.NewReader(data))
		r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
		if err != nil {
			if allErr == nil {
				t.Fatalf("NewReader failed (%v) where Read succeeded", err)
			}
			return
		}
		var events []flowlog.Event
		for {
			batch, err := r.Next()
			if err != nil {
				// io.EOF or a decode error; both are fine, panics are not.
				if (err == io.EOF) != (allErr == nil) {
					t.Fatalf("Next ended with %v, Read with %v", err, allErr)
				}
				break
			}
			events = append(events, batch...)
		}
		if allErr == nil && !reflect.DeepEqual(events, all.Events) {
			t.Fatalf("batched read decoded %d events, ReadAll %d, or they differ", len(events), len(all.Events))
		}
	})
}

// hostileCount returns file with its first segment's event count raised
// to maxSegmentEvents.
func hostileCount(file []byte) []byte {
	out := append([]byte(nil), file...)
	binary.BigEndian.PutUint32(out[headerLen+4+16:], maxSegmentEvents)
	return out
}

// TestHostileSegmentCountFailsBeforeEventAllocation: a header declaring
// the largest plausible count over a tiny payload must fail with a
// wrapped error in the column decode, before anything is allocated at
// 144 bytes an event — ReadAll sizes the log it returns from the count
// only once the time, address and switch columns have decoded to that
// many rows. What may be allocated is what always was: the per-row
// scratch of the columns decoded so far (8 bytes a row for the times).
func TestHostileSegmentCountFailsBeforeEventAllocation(t *testing.T) {
	l := testLog(30*time.Second, 200)
	for _, version := range []int{formatVersion1, formatVersion2} {
		file := hostileCount(encode(t, l, WriterOptions{FormatVersion: version}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.HasPrefix(err.Error(), "colseg: ") {
			t.Fatalf("v%d: Read returned %v, want a colseg decode error", version, err)
		}
		const ceiling = 16 * maxSegmentEvents // twice the time scratch; the events would be 144x
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("v%d: %d bytes allocated before %q", version, got, err)
		if got > ceiling {
			t.Errorf("v%d: hostile count allocated %d bytes before failing, want <= %d", version, got, ceiling)
		}
	}
}

func TestColumnarCompressionRatio(t *testing.T) {
	l := testLog(5*time.Minute, 50_000)
	var fdc, fdl, js bytes.Buffer
	if err := Write(&fdc, l, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteBinary(&fdl); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	ratio := float64(fdl.Len()) / float64(fdc.Len())
	t.Logf("sizes: FDC1=%d FDL1=%d JSON=%d (FDC1 is %.2fx smaller than FDL1, %.2fx than JSON)",
		fdc.Len(), fdl.Len(), js.Len(), ratio, float64(js.Len())/float64(fdc.Len()))
	if ratio < 1.5 {
		t.Errorf("FDC1/FDL1 compression ratio %.2f < 1.5", ratio)
	}
}

func BenchmarkWriteColumnar(b *testing.B) {
	l := testLog(5*time.Minute, 100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, l, WriterOptions{}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkReadColumnar(b *testing.B) {
	l := testLog(5*time.Minute, 100_000)
	var buf bytes.Buffer
	if err := Write(&buf, l, WriterOptions{}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(raw), ReaderOptions{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += len(batch)
		}
		if n != len(l.Events) {
			b.Fatalf("decoded %d events, want %d", n, len(l.Events))
		}
	}
}

// BenchmarkCompressionRatio reports the on-disk size of the three
// serializations as benchmark metrics (bytes per event and the
// FDC1-vs-FDL1 / FDC1-vs-JSON ratios land in BENCH_<n>.json).
func BenchmarkCompressionRatio(b *testing.B) {
	l := testLog(5*time.Minute, 100_000)
	var fdc, fdl, js bytes.Buffer
	for i := 0; i < b.N; i++ {
		fdc.Reset()
		fdl.Reset()
		js.Reset()
		if err := Write(&fdc, l, WriterOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := l.WriteBinary(&fdl); err != nil {
			b.Fatal(err)
		}
		if err := l.WriteJSON(&js); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fdc.Len())/float64(len(l.Events)), "fdc1-bytes/event")
	b.ReportMetric(float64(fdl.Len())/float64(fdc.Len()), "fdl1/fdc1-ratio")
	b.ReportMetric(float64(js.Len())/float64(fdc.Len()), "json/fdc1-ratio")
}
