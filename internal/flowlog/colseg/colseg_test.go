package colseg

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// TestWriterRejectsWhatFDC1CannotCarry: an address that is not IPv4
// (IPv4-mapped IPv6 included, which would decode as plain IPv4) and an
// over-long switch name fail Append, Check and Write with an error,
// not a panic in the encoder; the zero Addr still encodes.
func TestWriterRejectsWhatFDC1CannotCarry(t *testing.T) {
	v4 := netip.MustParseAddr("10.0.0.1")
	for name, e := range map[string]flowlog.Event{
		"ipv6 src":    {Flow: flowlog.FlowKey{Src: netip.MustParseAddr("2001:db8::1"), Dst: v4}},
		"ipv6 dst":    {Flow: flowlog.FlowKey{Src: v4, Dst: netip.IPv6Loopback()}},
		"4in6":        {Flow: flowlog.FlowKey{Src: netip.MustParseAddr("::ffff:10.0.0.2"), Dst: v4}},
		"long switch": {Switch: strings.Repeat("s", maxNameLen+1)},
	} {
		w, err := NewWriter(io.Discard, 0, time.Minute, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(e); err == nil {
			t.Errorf("%s: Append accepted an event FDC1 cannot carry", name)
		}
		l := &flowlog.Log{Events: []flowlog.Event{{}, e}}
		if err := Check(l); err == nil || !strings.Contains(err.Error(), "event 1") {
			t.Errorf("%s: Check = %v, want an error naming event 1", name, err)
		}
		if err := Write(io.Discard, l, WriterOptions{}); err == nil {
			t.Errorf("%s: Write accepted an event FDC1 cannot carry", name)
		}
	}
	zero := &flowlog.Log{Events: []flowlog.Event{{Type: flowlog.EventPortStatus}}}
	if err := Check(zero); err != nil {
		t.Errorf("Check rejected the zero flow key: %v", err)
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

// TestReaderBatchSizes: an unfiltered Next serves one whole segment a
// call, so the batch sizes are Inspect's per-segment event counts, and
// the batches concatenate to the log.
func TestReaderBatchSizes(t *testing.T) {
	l := testLog(time.Minute, 1200)
	raw := encode(t, l, WriterOptions{SegmentDuration: 7 * time.Second, MaxSegmentEvents: 100})
	info, err := Inspect(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReaderContext(context.Background(), bytes.NewReader(raw), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var all []flowlog.Event
	var sizes, want []int
	for _, seg := range info.Segments {
		want = append(want, seg.Events)
	}
	for {
		batch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(batch))
		all = append(all, batch...)
	}
	if len(want) < 2 || !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch sizes %v, want the segment counts %v", sizes, want)
	}
	if !reflect.DeepEqual(all, l.Events) {
		t.Fatal("concatenated batches diverge from the log")
	}
	// Terminal io.EOF is sticky.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next = %v", err)
	}
}

// The reader's decode state is borrowed from a pool and handed back when
// the stream ends; the tests below pin what a reader keeps after that,
// and that a reader still streaming keeps its state to itself.

// TestReaderEndsCleanly: after io.EOF the state goes back, another
// reader decodes on it, and the first reader still answers io.EOF and
// the same Bounds.
func TestReaderEndsCleanly(t *testing.T) {
	ctx := context.Background()
	l, other := testLog(time.Minute, 1200), testLog(2*time.Minute, 900)
	raw := encode(t, l, WriterOptions{MaxSegmentEvents: 100})
	otherRaw := encode(t, other, WriterOptions{MaxSegmentEvents: 100})
	f := Filter{From: 5 * time.Second, To: 50 * time.Second}
	r, err := NewReaderContext(ctx, bytes.NewReader(raw), ReaderOptions{Filter: f})
	if err != nil {
		t.Fatal(err)
	}
	from, to := r.Bounds()
	var got []flowlog.Event
	for {
		batch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	if !reflect.DeepEqual(got, applyFilter(l.Events, f)) {
		t.Fatal("filtered read diverges from the in-memory filter")
	}
	if !reflect.DeepEqual(readEvents(t, ctx, otherRaw, ReaderOptions{}), other.Events) {
		t.Error("a read on the state an ended reader handed back diverges from its log")
	}
	for range 2 {
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("Next after io.EOF = %v, want io.EOF", err)
		}
	}
	if f2, t2 := r.Bounds(); f2 != from || t2 != to {
		t.Errorf("Bounds after the end = [%v, %v], want [%v, %v]", f2, t2, from, to)
	}
}

// TestReaderErrorStaysSticky: a CRC error in the third segment ends the
// stream there; after the state goes back and serves another read, the
// reader returns the same error.
func TestReaderErrorStaysSticky(t *testing.T) {
	ctx := context.Background()
	l := testLog(time.Minute, 1200)
	raw := encode(t, l, WriterOptions{MaxSegmentEvents: 100})
	info, err := Inspect(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	off := headerLen
	for _, seg := range info.Segments[:2] {
		off += len(segMagic) + preambleLen + seg.IndexLen + seg.PayloadLen
	}
	bad := append([]byte(nil), raw...)
	bad[off+len(segMagic)+preambleLen+info.Segments[2].IndexLen+1] ^= 0x40
	r, err := NewReaderContext(ctx, bytes.NewReader(bad), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for err == nil {
		_, err = r.Next()
		served++
	}
	if served != 3 || err == io.EOF || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("Next %d ended with %v; want a CRC mismatch at the third segment", served, err)
	}
	if !reflect.DeepEqual(readEvents(t, ctx, raw, ReaderOptions{}), l.Events) {
		t.Error("a read on the state a failed reader handed back diverges from its log")
	}
	for range 2 {
		if _, again := r.Next(); again != err {
			t.Fatalf("Next after the error = %v, want the same %v", again, err)
		}
	}
}

// TestReaderAbandonedMidStream: a reader left mid-stream keeps its state,
// so other readers decoding meanwhile neither read nor overwrite it, and
// an abandoned reader disturbs none after it.
func TestReaderAbandonedMidStream(t *testing.T) {
	ctx := context.Background()
	l, other := testLog(time.Minute, 1200), testLog(2*time.Minute, 900)
	raw := encode(t, l, WriterOptions{MaxSegmentEvents: 100})
	otherRaw := encode(t, other, WriterOptions{MaxSegmentEvents: 100})
	paused, err := NewReaderContext(ctx, bytes.NewReader(raw), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := paused.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]flowlog.Event(nil), first...)
	abandoned, err := NewReaderContext(ctx, bytes.NewReader(otherRaw), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abandoned.Next(); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if !reflect.DeepEqual(readEvents(t, ctx, otherRaw, ReaderOptions{}), other.Events) {
			t.Fatal("a read beside a reader left mid-stream diverges from its log")
		}
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatal("the batch of a reader left mid-stream changed while other readers decoded")
	}
	got := want
	for {
		batch, err := paused.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	if !reflect.DeepEqual(got, l.Events) {
		t.Error("a reader resumed after other reads diverges from its log")
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
			return b[:segStart+4+preambleLen-2]
		},
		"truncated index": func(b []byte) []byte {
			return b[:segStart+4+preambleLen+10]
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
			b[segStart+4+preambleLen+idxLen+5] ^= 0x40
			return b
		},
		"index bit flip fails offset or CRC check": func(b []byte) []byte {
			b[segStart+4+preambleLen+2] ^= 0x40
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

// TestReaderCorruptOffsetsAndDict: an index offset table that is out of
// range or decreasing must fail with an error, not a panic. The offsets
// are not covered by any CRC, so only the offset check stands between
// them and the block slicing.
func TestReaderCorruptOffsetsAndDict(t *testing.T) {
	raw := encode(t, testLog(time.Second, 40), WriterOptions{})
	offs := headerLen + 4 + preambleLen // the first segment's offset table
	for name, mutant := range map[string][]byte{
		"out of range": putUint32(raw, offs, 0xffffffff),
		"decreasing":   putUint32(raw, offs+(numColumns-1)*4, 0),
	} {
		if _, err := Read(bytes.NewReader(mutant)); err == nil {
			t.Errorf("%s: decode succeeded with a corrupt offset table", name)
		}
	}
}

// putUint32 returns a copy of file with v written big-endian at off.
func putUint32(file []byte, off int, v uint32) []byte {
	out := append([]byte(nil), file...)
	binary.BigEndian.PutUint32(out[off:], v)
	return out
}

// metadataMutants derives from valid, a capture of at least one segment,
// captures whose first segment's tag, preamble or index is corrupt: each
// must fail in the segment-metadata walk, before any payload byte.
func metadataMutants(valid []byte) []struct {
	name string
	raw  []byte
} {
	seg := headerLen + 4 // the first segment's preamble
	badTag := append([]byte(nil), valid...)
	badTag[headerLen] = 'Q'
	return []struct {
		name string
		raw  []byte
	}{
		{"bad segment tag", badTag},
		{"count 0", hostileCount(valid, 0)},
		{"count above maxSegmentEvents", hostileCount(valid, maxSegmentEvents+1)},
		{"payloadLen above maxPayloadLen", putUint32(valid, seg+20, maxPayloadLen+1)},
		{"indexLen above maxIndexLen", putUint32(valid, seg+24, maxIndexLen+1)},
		{"truncated index", valid[:seg+preambleLen+10]},
		{"decreasing offset table", putUint32(valid, seg+preambleLen+(numColumns-1)*4, 0)},
	}
}

// TestInspectSharesReaderParser: Inspect walks segment metadata with the
// Reader's own parser, so on every metadata mutant it fails exactly as a
// full read does, with the same error text.
func TestInspectSharesReaderParser(t *testing.T) {
	valid := encode(t, testLog(30*time.Second, 200), WriterOptions{SegmentDuration: 5 * time.Second})
	for _, m := range metadataMutants(valid) {
		t.Run(m.name, func(t *testing.T) {
			_, inspectErr := Inspect(bytes.NewReader(m.raw))
			r, err := NewReaderContext(context.Background(), bytes.NewReader(m.raw), ReaderOptions{})
			if err != nil {
				t.Fatalf("the header is intact, yet opening failed: %v", err)
			}
			_, readErr := r.ReadAll()
			if inspectErr == nil || readErr == nil {
				t.Fatalf("Inspect returned %v, ReadAll %v: want both to fail", inspectErr, readErr)
			}
			if inspectErr.Error() != readErr.Error() {
				t.Errorf("Inspect failed with %q, ReadAll with %q", inspectErr, readErr)
			}
		})
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
	flipped[headerLen+4+preambleLen+3] ^= 0x10
	f.Add(flipped)
	counted := append([]byte(nil), valid...)
	counted[headerLen+4+16] = 0xff
	f.Add(counted)
	// A valid body under the retired version-1 header byte, and under a
	// future one: both must be rejected from the header, not misparsed.
	for _, version := range []byte{1, formatVersion + 1} {
		other := append([]byte(nil), valid...)
		other[4] = version
		f.Add(other)
	}
	// The largest plausible event count declared over a small payload: it
	// passes the preamble checks (the count is not covered by a CRC) and
	// must fail in the column decode.
	f.Add(hostileCount(valid, maxSegmentEvents))
	// A run longer than the segment, under a valid CRC: the run-length
	// check, not the checksum, must reject it.
	f.Add(overlongRun(encode(f, testLog(time.Second, 40), WriterOptions{})))
	for _, m := range metadataMutants(valid) {
		f.Add(m.raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadAll decodes straight into the log it returns; segment by
		// segment or all at once, the outcome must be the same.
		all, allErr := Read(bytes.NewReader(data))
		if allErr == nil && data[4] != formatVersion {
			t.Fatalf("decoded a file with version byte %d", data[4])
		}
		r, err := NewReaderContext(context.Background(), bytes.NewReader(data), ReaderOptions{})
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
			t.Fatalf("segment-by-segment read decoded %d events, ReadAll %d, or they differ", len(events), len(all.Events))
		}
		// The one-pass kernel against the column passes it replaced, onto
		// dirty batches, under every queryCases filter.
		var sc decodeScratch
		for _, tc := range queryCases {
			opts := ReaderOptions{Filter: tc.f}
			got, gotFiltered, gotErr := decodeWith(data, opts, decodeBlocks, &sc, dirtyBatch(t))
			want, wantFiltered, wantErr := decodeWith(data, opts, decodeBlocksReference, &sc, dirtyBatch(t))
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: kernel error %v, column passes %v", tc.name, gotErr, wantErr)
			}
			if gotErr == nil && (gotFiltered != wantFiltered || !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: kernel kept %d (filtered %d), column passes %d (filtered %d), or they differ",
					tc.name, len(got), gotFiltered, len(want), wantFiltered)
			}
		}
	})
}

// decodeFunc is the shape of decodeBlocks.
type decodeFunc func(*[numColumns][]byte, int, *querySpec, map[string]string, *decodeScratch, []flowlog.Event) ([]flowlog.Event, int, error)

// decodeWith reads a whole FDC1 stream as Reader does, decoding every
// unpruned segment with decode, through sc, onto dst[:0]; it returns the
// kept events and the decode-time filtered count.
func decodeWith(data []byte, opts ReaderOptions, decode decodeFunc, sc *decodeScratch, dst []flowlog.Event) ([]flowlog.Event, int, error) {
	r, err := NewReaderContext(context.Background(), bytes.NewReader(data), opts)
	if err != nil {
		return nil, 0, err
	}
	out, filtered := dst[:0], 0
	for {
		meta, done, err := r.readMeta()
		if err != nil || done {
			return out, filtered, err
		}
		if pruned, byIndex := r.prune(&meta); pruned {
			if err := r.skipSegment(&meta, byIndex); err != nil {
				return nil, 0, err
			}
			continue
		}
		if err := r.loadBlocks(&meta); err != nil {
			return nil, 0, err
		}
		var f int
		if out, f, err = decode(&r.blocks, meta.count, r.spec, r.names, sc, out); err != nil {
			return nil, 0, err
		}
		filtered += f
	}
}

// dirtyBatch is a recycled batch: every field of every event garbage.
func dirtyBatch(t *testing.T) []flowlog.Event {
	b := make([]flowlog.Event, 256)
	for i := range b {
		b[i] = garbageEvent(t)
	}
	return b
}

// hostileCount returns a copy of file with its first segment's event
// count set to count.
func hostileCount(file []byte, count uint32) []byte {
	return putUint32(file, headerLen+4+16, count)
}

// overlongRun returns a one-segment file with the type
// column's first run stretched past the segment's event count (which
// must be under 127, so the run length stays one byte) and the column
// CRC recomputed.
func overlongRun(file []byte) []byte {
	out := append([]byte(nil), file...)
	seg := out[headerLen+4:]
	count := binary.BigEndian.Uint32(seg[16:])
	index := seg[preambleLen:][:binary.BigEndian.Uint32(seg[24:])]
	payload := seg[preambleLen+len(index):]
	block := payload[binary.BigEndian.Uint32(index[columnType*4:]):binary.BigEndian.Uint32(index[(columnType+1)*4:])]
	block[0] = byte(count + 1)
	binary.BigEndian.PutUint32(index[(numColumns+columnType)*4:], crc32.ChecksumIEEE(block))
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
	file := hostileCount(encode(t, testLog(30*time.Second, 200), WriterOptions{}), maxSegmentEvents)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "colseg: ") {
		t.Fatalf("Read returned %v, want a colseg decode error", err)
	}
	const ceiling = 16 * maxSegmentEvents // twice the time scratch; the events would be 144x
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated before %q", got, err)
	if got > ceiling {
		t.Errorf("hostile count allocated %d bytes before failing, want <= %d", got, ceiling)
	}
}

// fdl1Size is the exact size of l in FDL1, the retired fixed-width row
// binary the >= 1.5x compression bound was set against: a 24-byte
// header, then 60 bytes plus the switch name per event.
func fdl1Size(l *flowlog.Log) (n int) {
	for _, e := range l.Events {
		n += 60 + len(e.Switch)
	}
	return 24 + n
}

func TestColumnarCompressionRatio(t *testing.T) {
	l := testLog(5*time.Minute, 50_000)
	var fdc, js bytes.Buffer
	if err := Write(&fdc, l, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	fdl := fdl1Size(l)
	ratio := float64(fdl) / float64(fdc.Len())
	t.Logf("sizes: FDC1=%d FDL1=%d JSON=%d (FDC1 is %.2fx smaller than FDL1, %.2fx than JSON)",
		fdc.Len(), fdl, js.Len(), ratio, float64(js.Len())/float64(fdc.Len()))
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
		r, err := NewReaderContext(context.Background(), bytes.NewReader(raw), ReaderOptions{})
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

// BenchmarkCompressionRatio reports the on-disk size of FDC1 as
// benchmark metrics (bytes per event, and the ratios to FDL1's size
// and to JSON).
func BenchmarkCompressionRatio(b *testing.B) {
	l := testLog(5*time.Minute, 100_000)
	var fdc, js bytes.Buffer
	for i := 0; i < b.N; i++ {
		fdc.Reset()
		js.Reset()
		if err := Write(&fdc, l, WriterOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := l.WriteJSON(&js); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fdc.Len())/float64(len(l.Events)), "fdc1-bytes/event")
	b.ReportMetric(float64(fdl1Size(l))/float64(fdc.Len()), "fdl1/fdc1-ratio")
	b.ReportMetric(float64(js.Len())/float64(fdc.Len()), "json/fdc1-ratio")
}
