package colseg

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"flowdiff/internal/flowlog"
)

// querySpec is a Filter + projection compiled for decode: the
// membership sets as hash lookups and the effective column sets. proj
// is what the caller asked to see; need additionally includes the
// columns the filter must decode to evaluate membership (those are
// decoded but, unless projected, never written to the output events).
type querySpec struct {
	f       Filter
	proj    ColumnSet
	need    ColumnSet
	hostSet map[[4]byte]bool
	swSet   map[string]bool
}

func newQuerySpec(f Filter, cols ColumnSet) *querySpec {
	s := &querySpec{f: f, proj: cols.normalized()}
	s.need = s.proj | f.columns()
	if len(f.Hosts) > 0 {
		s.hostSet = make(map[[4]byte]bool, len(f.Hosts))
		for _, a := range f.Hosts {
			if a.Is4() {
				s.hostSet[a.As4()] = true
			}
			// Non-IPv4 addresses can never match the IPv4-only format;
			// they still keep the filter active, so nothing matches them.
		}
	}
	if len(f.Switches) > 0 {
		s.swSet = make(map[string]bool, len(f.Switches))
		for _, name := range f.Switches {
			s.swSet[name] = true
		}
	}
	return s
}

// grow returns buf resized to n elements, reallocating only when the
// capacity is short. Contents are unspecified; callers overwrite every
// element.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// decodeScratch holds the per-decode working set so repeated segment
// decodes (and parallel pipeline slots) reuse buffers instead of
// reallocating them: peak heap is bounded by the widest segment seen.
type decodeScratch struct {
	times   []int64
	keep    []bool
	srcIDs  []uint32
	dstIDs  []uint32
	swIDs   []uint32
	srcDict []netip.Addr
	dstDict []netip.Addr
	swDict  []string
}

// decodeAddrBlock decodes one address column into its dictionary and
// the per-event dictionary indexes, reusing the caller's buffers.
func decodeAddrBlock(block []byte, count int, name string, dictBuf *[]netip.Addr, idsBuf *[]uint32) ([]netip.Addr, []uint32, error) {
	c := cursor{b: block}
	n, err := c.uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("colseg: %s column: %w", name, err)
	}
	if n > uint64(count) {
		return nil, nil, fmt.Errorf("colseg: %s column: implausible dictionary size %d", name, n)
	}
	dict := grow(*dictBuf, int(n))
	*dictBuf = dict
	for i := range dict {
		b, err := c.bytes(4)
		if err != nil {
			return nil, nil, fmt.Errorf("colseg: %s column: %w", name, err)
		}
		if a4 := [4]byte(b); a4 != ([4]byte{}) {
			dict[i] = netip.AddrFrom4(a4)
		} else {
			dict[i] = netip.Addr{}
		}
	}
	ids := grow(*idsBuf, count)
	*idsBuf = ids
	for i := range ids {
		id, err := c.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("colseg: %s column: %w", name, err)
		}
		if id >= uint64(len(dict)) {
			return nil, nil, fmt.Errorf("colseg: %s column: dictionary index %d out of range", name, id)
		}
		ids[i] = uint32(id)
	}
	return dict, ids, nil
}

// decodeSwitchBlock decodes the switch column into its name dictionary
// and the per-event indexes. names, when non-nil, interns dictionary
// entries across segments (the serial reader's cross-segment cache;
// parallel decodes pass nil and intern per segment only).
func decodeSwitchBlock(block []byte, count int, names map[string]string, dictBuf *[]string, idsBuf *[]uint32) ([]string, []uint32, error) {
	c := cursor{b: block}
	n, err := c.uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("colseg: switch column: %w", err)
	}
	if n > uint64(count) {
		return nil, nil, fmt.Errorf("colseg: switch column: implausible dictionary size %d", n)
	}
	dict := grow(*dictBuf, int(n))
	*dictBuf = dict
	for i := range dict {
		l, err := c.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("colseg: switch column: %w", err)
		}
		if l > maxNameLen {
			return nil, nil, fmt.Errorf("colseg: switch column: implausible name length %d", l)
		}
		b, err := c.bytes(int(l))
		if err != nil {
			return nil, nil, fmt.Errorf("colseg: switch column: %w", err)
		}
		if names != nil {
			name, ok := names[string(b)]
			if !ok {
				name = string(b)
				names[name] = name
			}
			dict[i] = name
		} else {
			dict[i] = string(b)
		}
	}
	ids := grow(*idsBuf, count)
	*idsBuf = ids
	for i := range ids {
		id, err := c.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("colseg: switch column: %w", err)
		}
		if id >= uint64(len(dict)) {
			return nil, nil, fmt.Errorf("colseg: switch column: dictionary index %d out of range", id)
		}
		ids[i] = uint32(id)
	}
	return dict, ids, nil
}

// decodeBlocks decodes one segment's needed column blocks into events
// appended to dst — the caller's batch buffer, or the tail of the log
// ReadAll returns, so no scratch copy is taken out — applying the query
// at decode time: out-of-window or non-member events are never
// materialized (exactly the kept rows are appended), and unprojected
// columns are never decoded. The event-sized allocation comes only
// after the time, address and switch columns decoded count plausible
// rows. filtered is the count of events dropped by the per-event filter.
func decodeBlocks(blocks *[numColumns][]byte, count int, spec *querySpec, names map[string]string, sc *decodeScratch, dst []flowlog.Event) (out []flowlog.Event, filtered int, err error) {
	// Pass 1: the time column (always decoded — time orders the batch
	// and drives windowed filtering).
	times := grow(sc.times, count)
	sc.times = times
	c := cursor{b: blocks[columnTime]}
	prev := int64(0)
	for i := range times {
		d, err := c.varint()
		if err != nil {
			return nil, 0, fmt.Errorf("colseg: time column: %w", err)
		}
		prev += d
		times[i] = prev
	}

	// Pass 2: the keep mask, refined by each active filter dimension.
	kept := count
	var keep []bool
	ensureKeep := func() {
		if keep == nil {
			keep = grow(sc.keep, count)
			sc.keep = keep
			for i := range keep {
				keep[i] = true
			}
		}
	}
	if spec.f.timeActive() {
		ensureKeep()
		from, to := int64(spec.f.From), int64(spec.f.To)
		for i, t := range times {
			if keep[i] && (t < from || t >= to) {
				keep[i] = false
				kept--
			}
		}
	}

	var (
		srcDict, dstDict []netip.Addr
		srcIDs, dstIDs   []uint32
		swDict           []string
		swIDs            []uint32
	)
	if spec.need.has(columnSrc) {
		srcDict, srcIDs, err = decodeAddrBlock(blocks[columnSrc], count, "src", &sc.srcDict, &sc.srcIDs)
		if err != nil {
			return nil, 0, err
		}
	}
	if spec.need.has(columnDst) {
		dstDict, dstIDs, err = decodeAddrBlock(blocks[columnDst], count, "dst", &sc.dstDict, &sc.dstIDs)
		if err != nil {
			return nil, 0, err
		}
	}
	if spec.need.has(columnSwitch) {
		swDict, swIDs, err = decodeSwitchBlock(blocks[columnSwitch], count, names, &sc.swDict, &sc.swIDs)
		if err != nil {
			return nil, 0, err
		}
	}
	if len(spec.hostSet) > 0 {
		ensureKeep()
		// Membership is resolved once per dictionary entry, then applied
		// per event as two slice lookups.
		srcMatch := make([]bool, len(srcDict))
		for j, a := range srcDict {
			srcMatch[j] = a.IsValid() && spec.hostSet[a.As4()]
		}
		dstMatch := make([]bool, len(dstDict))
		for j, a := range dstDict {
			dstMatch[j] = a.IsValid() && spec.hostSet[a.As4()]
		}
		for i := 0; i < count; i++ {
			if keep[i] && !srcMatch[srcIDs[i]] && !dstMatch[dstIDs[i]] {
				keep[i] = false
				kept--
			}
		}
	}
	if len(spec.swSet) > 0 {
		ensureKeep()
		swMatch := make([]bool, len(swDict))
		for j, name := range swDict {
			swMatch[j] = spec.swSet[name]
		}
		for i := 0; i < count; i++ {
			if keep[i] && !swMatch[swIDs[i]] {
				keep[i] = false
				kept--
			}
		}
	}

	// Pass 3: materialize exactly the kept rows. dst may be a recycled
	// buffer, so unless every field is about to be overwritten reset the
	// rows to zero — unprojected fields must read as the zero value, not
	// a stale one.
	out = slices.Grow(dst, kept)[:len(dst)+kept]
	evs := out[len(dst):]
	if spec.proj != AllColumns {
		clear(evs)
	}
	j := 0
	for i := 0; i < count; i++ {
		if keep != nil && !keep[i] {
			continue
		}
		evs[j].Time = time.Duration(times[i])
		if spec.proj.has(columnSrc) {
			evs[j].Flow.Src = srcDict[srcIDs[i]]
		}
		if spec.proj.has(columnDst) {
			evs[j].Flow.Dst = dstDict[dstIDs[i]]
		}
		if spec.proj.has(columnSwitch) {
			evs[j].Switch = swDict[swIDs[i]]
		}
		j++
	}

	rle := func(col int, name string, set func(*flowlog.Event, byte)) error {
		c := cursor{b: blocks[col]}
		j := 0
		for i := 0; i < count; {
			run, err := c.uvarint()
			if err != nil {
				return fmt.Errorf("colseg: %s column: %w", name, err)
			}
			v, err := c.byte()
			if err != nil {
				return fmt.Errorf("colseg: %s column: %w", name, err)
			}
			if run == 0 || run > uint64(count-i) {
				return fmt.Errorf("colseg: %s column: implausible run length %d", name, run)
			}
			for k := 0; k < int(run); k++ {
				if keep == nil || keep[i+k] {
					set(&evs[j], v)
					j++
				}
			}
			i += int(run)
		}
		return nil
	}
	if spec.proj.has(columnType) {
		if err := rle(columnType, "type", func(e *flowlog.Event, v byte) { e.Type = flowlog.EventType(v) }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnReason) {
		if err := rle(columnReason, "reason", func(e *flowlog.Event, v byte) { e.Reason = v }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnProto) {
		if err := rle(columnProto, "proto", func(e *flowlog.Event, v byte) { e.Flow.Proto = v }); err != nil {
			return nil, 0, err
		}
	}

	uvar := func(col int, name string, set func(*flowlog.Event, uint64)) error {
		c := cursor{b: blocks[col]}
		j := 0
		for i := 0; i < count; i++ {
			v, err := c.uvarint()
			if err != nil {
				return fmt.Errorf("colseg: %s column: %w", name, err)
			}
			if keep == nil || keep[i] {
				set(&evs[j], v)
				j++
			}
		}
		return nil
	}
	if spec.proj.has(columnSrcPort) {
		if err := uvar(columnSrcPort, "srcPort", func(e *flowlog.Event, v uint64) { e.Flow.SrcPort = uint16(v) }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnDstPort) {
		if err := uvar(columnDstPort, "dstPort", func(e *flowlog.Event, v uint64) { e.Flow.DstPort = uint16(v) }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnInPort) {
		if err := uvar(columnInPort, "inPort", func(e *flowlog.Event, v uint64) { e.InPort = uint16(v) }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnOutPort) {
		if err := uvar(columnOutPort, "outPort", func(e *flowlog.Event, v uint64) { e.OutPort = uint16(v) }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnDPID) {
		if err := uvar(columnDPID, "dpid", func(e *flowlog.Event, v uint64) { e.DPID = v }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnBytes) {
		if err := uvar(columnBytes, "bytes", func(e *flowlog.Event, v uint64) { e.Bytes = v }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnPackets) {
		if err := uvar(columnPackets, "packets", func(e *flowlog.Event, v uint64) { e.Packets = v }); err != nil {
			return nil, 0, err
		}
	}
	if spec.proj.has(columnFlowDur) {
		if err := uvar(columnFlowDur, "flowDuration", func(e *flowlog.Event, v uint64) { e.FlowDuration = time.Duration(v) }); err != nil {
			return nil, 0, err
		}
	}

	return out, count - kept, nil
}
