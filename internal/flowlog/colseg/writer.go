package colseg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"sort"
	"time"

	"flowdiff/internal/flowlog"
)

// Writer streams events into the FDC1 format. Events must arrive in
// nondecreasing time order (the canonical state of a capture; Write
// sorts unsorted logs before appending). A segment is cut whenever an
// event crosses the current fixed time-range boundary or the per-segment
// event cap is reached, so writer memory is bounded by one segment.
type Writer struct {
	bw     *bufio.Writer
	start  time.Duration
	end    time.Duration
	opts   WriterOptions
	events []flowlog.Event
	// boundary is the exclusive time limit of the open segment: the next
	// multiple of SegmentDuration past the segment's first event.
	boundary time.Duration
	last     time.Duration
	n        int
	closed   bool
	scratch  []byte
	seg      []byte
}

// NewWriter writes the file header for a log covering [start, end] and
// returns a writer ready for Append.
func NewWriter(w io.Writer, start, end time.Duration, opts WriterOptions) (*Writer, error) {
	opts = opts.withDefaults()
	bw := bufio.NewWriter(w)
	var hdr [headerLen]byte
	copy(hdr[0:4], fileMagic)
	hdr[4] = formatVersion
	hdr[5] = numColumns
	binary.BigEndian.PutUint64(hdr[6:14], uint64(start))
	binary.BigEndian.PutUint64(hdr[14:22], uint64(end))
	binary.BigEndian.PutUint64(hdr[22:30], uint64(opts.SegmentDuration))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("colseg: writing header: %w", err)
	}
	return &Writer{bw: bw, start: start, end: end, opts: opts}, nil
}

// floorDiv is integer division rounding toward negative infinity, so
// segment boundaries stay aligned for events before the declared start.
func floorDiv(a, b time.Duration) time.Duration {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Append adds one event to the open segment, cutting a new segment at
// time-range boundaries and at the event cap. Out-of-order events are
// rejected: segmentation relies on time making forward progress.
func (w *Writer) Append(e flowlog.Event) error {
	if w.closed {
		return fmt.Errorf("colseg: append after Close")
	}
	if w.n > 0 && e.Time < w.last {
		return fmt.Errorf("colseg: out-of-order event at %v after %v", e.Time, w.last)
	}
	if err := checkEvent(&e); err != nil {
		return err
	}
	if len(w.events) > 0 && (e.Time >= w.boundary || len(w.events) >= w.opts.MaxSegmentEvents) {
		if err := w.flushSegment(); err != nil {
			return err
		}
	}
	if len(w.events) == 0 {
		k := floorDiv(e.Time-w.start, w.opts.SegmentDuration)
		w.boundary = w.start + (k+1)*w.opts.SegmentDuration
	}
	w.events = append(w.events, e)
	w.last = e.Time
	w.n++
	return nil
}

// checkEvent reports why FDC1 cannot carry e, if it cannot: addresses
// are IPv4 or the zero Addr, switch names at most maxNameLen bytes.
func checkEvent(e *flowlog.Event) error {
	for _, a := range [2]netip.Addr{e.Flow.Src, e.Flow.Dst} {
		if a.IsValid() && !a.Is4() {
			return fmt.Errorf("colseg: address %v is not IPv4; FDC1 carries IPv4 flows only", a)
		}
	}
	if len(e.Switch) > maxNameLen {
		return fmt.Errorf("colseg: switch name %d bytes exceeds format cap", len(e.Switch))
	}
	return nil
}

// Check reports the first event of log that FDC1 cannot carry, so a
// caller can refuse the log before committing to write it.
func Check(log *flowlog.Log) error {
	for i := range log.Events {
		if err := checkEvent(&log.Events[i]); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Close flushes the open segment and writes the end marker. The Writer
// is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.events) > 0 {
		if err := w.flushSegment(); err != nil {
			return err
		}
	}
	if _, err := w.bw.WriteString(endMagic); err != nil {
		return fmt.Errorf("colseg: writing end marker: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("colseg: flushing: %w", err)
	}
	return nil
}

// flushSegment encodes the buffered events as one segment and writes it.
func (w *Writer) flushSegment() error {
	evs := w.events
	payload, offs, sum := encodeColumns(evs, w.scratch[:0])
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("colseg: segment payload %d bytes exceeds format cap", len(payload))
	}

	seg := w.seg[:0]
	seg = append(seg, segMagic...)
	seg = binary.BigEndian.AppendUint64(seg, uint64(evs[0].Time))
	seg = binary.BigEndian.AppendUint64(seg, uint64(evs[len(evs)-1].Time))
	seg = binary.BigEndian.AppendUint32(seg, uint32(len(evs)))
	seg = binary.BigEndian.AppendUint32(seg, uint32(len(payload)))
	index := encodeIndex(evs, payload, offs, sum)
	if len(index) > maxIndexLen {
		return fmt.Errorf("colseg: segment index %d bytes exceeds format cap", len(index))
	}
	seg = binary.BigEndian.AppendUint32(seg, uint32(len(index)))
	seg = append(seg, index...)
	seg = append(seg, payload...)
	if _, err := w.bw.Write(seg); err != nil {
		return fmt.Errorf("colseg: writing segment: %w", err)
	}

	w.scratch = payload[:0]
	w.seg = seg[:0]
	w.events = w.events[:0]
	return nil
}

// segSummary carries what encodeColumns learns about a segment's
// dictionaries while building them, so the index writer does not
// re-derive it from the events.
type segSummary struct {
	srcOrder [][4]byte
	dstOrder [][4]byte
	swOrder  []string
}

// encodeIndex serializes a segment index: per-column offsets,
// per-column CRCs, per-column value ranges, and the membership
// summaries.
func encodeIndex(evs []flowlog.Event, payload []byte, offs [numColumns]int, sum segSummary) []byte {
	idx := make([]byte, 0, indexFixedLen+64)
	for _, off := range offs {
		idx = binary.BigEndian.AppendUint32(idx, uint32(off))
	}
	for c := 0; c < numColumns; c++ {
		end := len(payload)
		if c+1 < numColumns {
			end = offs[c+1]
		}
		idx = binary.BigEndian.AppendUint32(idx, crc32.ChecksumIEEE(payload[offs[c]:end]))
	}
	for c := 0; c < numColumns; c++ {
		lo, hi := columnRange(c, evs, sum)
		idx = binary.BigEndian.AppendUint64(idx, lo)
		idx = binary.BigEndian.AppendUint64(idx, hi)
	}

	// Host summary: sorted union of the src and dst dictionaries,
	// invalid (zero) addresses excluded.
	hosts := make([][4]byte, 0, len(sum.srcOrder)+len(sum.dstOrder))
	seen := make(map[[4]byte]bool, len(sum.srcOrder)+len(sum.dstOrder))
	for _, order := range [2][][4]byte{sum.srcOrder, sum.dstOrder} {
		for _, a4 := range order {
			if a4 == ([4]byte{}) || seen[a4] {
				continue
			}
			seen[a4] = true
			hosts = append(hosts, a4)
		}
	}
	sort.Slice(hosts, func(i, j int) bool {
		return string(hosts[i][:]) < string(hosts[j][:])
	})
	if len(hosts) > summaryCap {
		idx = append(idx, 1) // overflowed: membership pruning disabled
		idx = binary.AppendUvarint(idx, 0)
	} else {
		idx = append(idx, 0)
		idx = binary.AppendUvarint(idx, uint64(len(hosts)))
		for _, a4 := range hosts {
			idx = append(idx, a4[:]...)
		}
	}

	// Switch summary: the sorted name dictionary (the empty name is a
	// legitimate entry — PortStatus events carry no switch).
	switches := append([]string(nil), sum.swOrder...)
	sort.Strings(switches)
	if len(switches) > summaryCap {
		idx = append(idx, 1)
		idx = binary.AppendUvarint(idx, 0)
	} else {
		idx = append(idx, 0)
		idx = binary.AppendUvarint(idx, uint64(len(switches)))
		for _, name := range switches {
			idx = binary.AppendUvarint(idx, uint64(len(name)))
			idx = append(idx, name...)
		}
	}
	return idx
}

// columnRange computes one column's index stats: the (min, max) value
// range for value columns, the dictionary cardinality (in both fields)
// for dictionary columns.
func columnRange(col int, evs []flowlog.Event, sum segSummary) (lo, hi uint64) {
	switch col {
	case columnSrc:
		return uint64(len(sum.srcOrder)), uint64(len(sum.srcOrder))
	case columnDst:
		return uint64(len(sum.dstOrder)), uint64(len(sum.dstOrder))
	case columnSwitch:
		return uint64(len(sum.swOrder)), uint64(len(sum.swOrder))
	}
	get := columnValue(col)
	lo, hi = get(&evs[0]), get(&evs[0])
	for i := 1; i < len(evs); i++ {
		v := get(&evs[i])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// columnValue returns the accessor for a value column's uint64 view.
func columnValue(col int) func(*flowlog.Event) uint64 {
	switch col {
	case columnTime:
		return func(e *flowlog.Event) uint64 { return uint64(e.Time) }
	case columnType:
		return func(e *flowlog.Event) uint64 { return uint64(e.Type) }
	case columnReason:
		return func(e *flowlog.Event) uint64 { return uint64(e.Reason) }
	case columnProto:
		return func(e *flowlog.Event) uint64 { return uint64(e.Flow.Proto) }
	case columnSrcPort:
		return func(e *flowlog.Event) uint64 { return uint64(e.Flow.SrcPort) }
	case columnDstPort:
		return func(e *flowlog.Event) uint64 { return uint64(e.Flow.DstPort) }
	case columnInPort:
		return func(e *flowlog.Event) uint64 { return uint64(e.InPort) }
	case columnOutPort:
		return func(e *flowlog.Event) uint64 { return uint64(e.OutPort) }
	case columnDPID:
		return func(e *flowlog.Event) uint64 { return e.DPID }
	case columnBytes:
		return func(e *flowlog.Event) uint64 { return e.Bytes }
	case columnPackets:
		return func(e *flowlog.Event) uint64 { return e.Packets }
	case columnFlowDur:
		return func(e *flowlog.Event) uint64 { return uint64(e.FlowDuration) }
	}
	panic(fmt.Sprintf("colseg: columnValue on dictionary column %d", col))
}

// encodeColumns serializes one segment's events column by column into
// buf, returning the payload, the start offset of each column, and the
// dictionary summary the index needs.
func encodeColumns(evs []flowlog.Event, buf []byte) ([]byte, [numColumns]int, segSummary) {
	var offs [numColumns]int
	var sum segSummary

	// time: zigzag varint of the delta from the previous event.
	offs[columnTime] = len(buf)
	prev := int64(0)
	for i := range evs {
		t := int64(evs[i].Time)
		buf = binary.AppendVarint(buf, t-prev)
		prev = t
	}

	// type / reason / proto: run-length encoded byte columns.
	rle := func(get func(*flowlog.Event) byte) {
		for i := 0; i < len(evs); {
			v := get(&evs[i])
			j := i + 1
			for j < len(evs) && get(&evs[j]) == v {
				j++
			}
			buf = binary.AppendUvarint(buf, uint64(j-i))
			buf = append(buf, v)
			i = j
		}
	}
	offs[columnType] = len(buf)
	rle(func(e *flowlog.Event) byte { return byte(e.Type) })
	offs[columnReason] = len(buf)
	rle(func(e *flowlog.Event) byte { return e.Reason })
	offs[columnProto] = len(buf)
	rle(func(e *flowlog.Event) byte { return e.Flow.Proto })

	// src / dst: per-segment IPv4 dictionary + per-event index.
	addrCol := func(get func(*flowlog.Event) netip.Addr) [][4]byte {
		dict := make(map[[4]byte]int)
		var order [][4]byte
		idxs := make([]int, len(evs))
		for i := range evs {
			var a4 [4]byte
			if a := get(&evs[i]); a.IsValid() {
				a4 = a.As4()
			}
			id, ok := dict[a4]
			if !ok {
				id = len(order)
				dict[a4] = id
				order = append(order, a4)
			}
			idxs[i] = id
		}
		buf = binary.AppendUvarint(buf, uint64(len(order)))
		for _, a4 := range order {
			buf = append(buf, a4[:]...)
		}
		for _, id := range idxs {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		return order
	}
	offs[columnSrc] = len(buf)
	sum.srcOrder = addrCol(func(e *flowlog.Event) netip.Addr { return e.Flow.Src })
	offs[columnDst] = len(buf)
	sum.dstOrder = addrCol(func(e *flowlog.Event) netip.Addr { return e.Flow.Dst })

	// Plain uvarint columns.
	uvar := func(get func(*flowlog.Event) uint64) {
		for i := range evs {
			buf = binary.AppendUvarint(buf, get(&evs[i]))
		}
	}
	offs[columnSrcPort] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return uint64(e.Flow.SrcPort) })
	offs[columnDstPort] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return uint64(e.Flow.DstPort) })
	offs[columnInPort] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return uint64(e.InPort) })
	offs[columnOutPort] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return uint64(e.OutPort) })
	offs[columnDPID] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return e.DPID })
	offs[columnBytes] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return e.Bytes })
	offs[columnPackets] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return e.Packets })
	offs[columnFlowDur] = len(buf)
	uvar(func(e *flowlog.Event) uint64 { return uint64(e.FlowDuration) })

	// switch: per-segment string dictionary + per-event index.
	offs[columnSwitch] = len(buf)
	sdict := make(map[string]int)
	var sorder []string
	sidxs := make([]int, len(evs))
	for i := range evs {
		name := evs[i].Switch
		id, ok := sdict[name]
		if !ok {
			id = len(sorder)
			sdict[name] = id
			sorder = append(sorder, name)
		}
		sidxs[i] = id
	}
	buf = binary.AppendUvarint(buf, uint64(len(sorder)))
	for _, name := range sorder {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	for _, id := range sidxs {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	sum.swOrder = sorder

	return buf, offs, sum
}

// Write serializes a whole log in the FDC1 format. An unsorted log is
// segmented from a time-sorted copy (stable, so same-instant events keep
// their capture order); the on-disk event order is the sorted order.
func Write(w io.Writer, log *flowlog.Log, opts WriterOptions) error {
	cw, err := NewWriter(w, log.Start, log.End, opts)
	if err != nil {
		return err
	}
	events := log.Events
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].Time < events[j].Time }) {
		events = append([]flowlog.Event(nil), events...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	}
	for i := range events {
		if err := cw.Append(events[i]); err != nil {
			return err
		}
	}
	return cw.Close()
}
