package colseg

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"flowdiff/internal/flowlog"
)

// querySpec is a Filter compiled for decode: the host set as a hash
// lookup.
type querySpec struct {
	f       Filter
	hostSet map[[4]byte]bool
}

func newQuerySpec(f Filter) *querySpec {
	s := &querySpec{f: f}
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
	ids, err := decodeIDs(&c, count, len(dict), name, idsBuf)
	return dict, ids, err
}

// decodeIDs decodes a dictionary column's count per-event indexes,
// each checked against the dictionary's size, into the caller's buffer.
func decodeIDs(c *cursor, count, dictLen int, name string, idsBuf *[]uint32) ([]uint32, error) {
	ids := grow(*idsBuf, count)
	*idsBuf = ids
	for i := range ids {
		id, ok := c.uvarint1()
		if !ok {
			var err error
			if id, err = c.uvarint(); err != nil {
				return nil, fmt.Errorf("colseg: %s column: %w", name, err)
			}
		}
		if id >= uint64(dictLen) {
			return nil, fmt.Errorf("colseg: %s column: dictionary index %d out of range", name, id)
		}
		ids[i] = uint32(id)
	}
	return ids, nil
}

// decodeSwitchBlock decodes the switch column into its name dictionary
// and the per-event indexes. names interns dictionary entries across
// segments (the reader's cross-segment cache).
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
		name, ok := names[string(b)]
		if !ok {
			name = string(b)
			names[name] = name
		}
		dict[i] = name
	}
	ids, err := decodeIDs(&c, count, len(dict), "switch", idsBuf)
	return dict, ids, err
}

// segRows is what a segment's rows carry before their value columns:
// each row's time, whether the query keeps it, and the dictionaries and
// per-row indexes of the address and switch columns.
type segRows struct {
	times            []int64
	keep             []bool // nil keeps every row
	kept             int
	srcDict, dstDict []netip.Addr
	srcIDs, dstIDs   []uint32
	swDict           []string
	swIDs            []uint32
}

// decodeRows decodes the time column and the three dictionary columns
// into the caller's scratch, and narrows the keep mask by each active
// filter dimension.
func decodeRows(blocks *[numColumns][]byte, count int, spec *querySpec, names map[string]string, sc *decodeScratch) (rows segRows, err error) {
	times := grow(sc.times, count)
	sc.times = times
	c := cursor{b: blocks[columnTime]}
	prev := int64(0)
	for i := range times {
		d, err := c.varint()
		if err != nil {
			return rows, fmt.Errorf("colseg: time column: %w", err)
		}
		prev += d
		times[i] = prev
	}
	rows.times, rows.kept = times, count

	if rows.srcDict, rows.srcIDs, err = decodeAddrBlock(blocks[columnSrc], count, "src", &sc.srcDict, &sc.srcIDs); err != nil {
		return rows, err
	}
	if rows.dstDict, rows.dstIDs, err = decodeAddrBlock(blocks[columnDst], count, "dst", &sc.dstDict, &sc.dstIDs); err != nil {
		return rows, err
	}
	if rows.swDict, rows.swIDs, err = decodeSwitchBlock(blocks[columnSwitch], count, names, &sc.swDict, &sc.swIDs); err != nil {
		return rows, err
	}
	if !spec.f.active() {
		return rows, nil
	}

	keep := grow(sc.keep, count)
	sc.keep, rows.keep = keep, keep
	timed, from, to := spec.f.timeActive(), int64(spec.f.From), int64(spec.f.To)
	// Host membership is resolved once per dictionary entry, then
	// applied per event as slice lookups.
	var srcMatch, dstMatch []bool
	if spec.hostSet != nil {
		srcMatch = make([]bool, len(rows.srcDict))
		for j, a := range rows.srcDict {
			srcMatch[j] = a.IsValid() && spec.hostSet[a.As4()]
		}
		dstMatch = make([]bool, len(rows.dstDict))
		for j, a := range rows.dstDict {
			dstMatch[j] = a.IsValid() && spec.hostSet[a.As4()]
		}
	}
	for i, t := range times {
		keep[i] = (!timed || t >= from && t < to) &&
			(srcMatch == nil || srcMatch[rows.srcIDs[i]] || dstMatch[rows.dstIDs[i]])
		if !keep[i] {
			rows.kept--
		}
	}
	return rows, nil
}

// valueCursor walks one value column row by row: a uvarint
// column one value at a time, a run-length column one run at a time.
type valueCursor struct {
	cursor
	col int
	run uint64 // rows left in the current run
	v   byte   // the current run's value
}

// shortRun reads a run with a one-byte length, the common case, inline;
// on false the cursor is untouched and the run is nextRun's.
func (c *valueCursor) shortRun(left int) bool {
	if c.off+1 >= len(c.b) {
		return false
	}
	n := c.b[c.off]
	if n == 0 || n >= 0x80 || int(n) > left {
		return false
	}
	c.run, c.v = uint64(n), c.b[c.off+1]
	c.off += 2
	return true
}

// nextRun reads the cursor's next run, which must cover between one and
// left rows.
func (c *valueCursor) nextRun(left int) error {
	run, err := c.uvarint()
	if err == nil {
		c.v, err = c.byte()
	}
	if err != nil {
		return fmt.Errorf("colseg: %s column: %w", columnNames[c.col], err)
	}
	if run == 0 || run > uint64(left) {
		return fmt.Errorf("colseg: %s column: implausible run length %d", columnNames[c.col], run)
	}
	c.run = run
	return nil
}

// decodeBlocks decodes one segment's column blocks into events
// appended to dst — the caller's batch buffer, or the tail of the log
// ReadAll returns, so no scratch copy is taken out — applying the query
// at decode time: out-of-window or non-member events are never
// materialized (exactly the kept rows are appended). The event-sized
// allocation comes only after the time, address and switch columns
// decoded count plausible rows. filtered is the count of events dropped
// by the per-event filter.
//
// The value columns decode in one pass over the rows: each column keeps
// a cursor, every row advances every cursor, and a kept row is written
// once, every field of it, so a recycled dst needs no clearing.
func decodeBlocks(blocks *[numColumns][]byte, count int, spec *querySpec, names map[string]string, sc *decodeScratch, dst []flowlog.Event) (out []flowlog.Event, filtered int, err error) {
	rows, err := decodeRows(blocks, count, spec, names, sc)
	if err != nil {
		return nil, 0, err
	}
	var runBuf, uvarBuf [numColumns]valueCursor
	runs, uvars := runBuf[:0], uvarBuf[:0]
	for col := columnType; col < numColumns; col++ {
		c := valueCursor{cursor: cursor{b: blocks[col]}, col: col}
		switch {
		case col <= columnProto:
			runs = append(runs, c)
		case col >= columnSrcPort && col <= columnFlowDur:
			uvars = append(uvars, c)
		}
	}

	out = slices.Grow(dst, rows.kept)[:len(dst)+rows.kept]
	evs := out[len(dst):]
	// v holds the current row's value columns.
	var v [numColumns]uint64
	j := 0
	for i := 0; i < count; i++ {
		for k := range runs {
			c := &runs[k]
			if c.run == 0 && !c.shortRun(count-i) {
				if err := c.nextRun(count - i); err != nil {
					return nil, 0, err
				}
			}
			c.run--
			v[c.col] = uint64(c.v)
		}
		for k := range uvars {
			c := &uvars[k]
			x, ok := c.uvarint1()
			if !ok {
				if x, err = c.uvarint(); err != nil {
					return nil, 0, fmt.Errorf("colseg: %s column: %w", columnNames[c.col], err)
				}
			}
			v[c.col] = x
		}
		if rows.keep != nil && !rows.keep[i] {
			continue
		}
		e := &evs[j]
		j++
		e.Time = time.Duration(rows.times[i])
		e.Type = flowlog.EventType(v[columnType])
		e.Switch = rows.swDict[rows.swIDs[i]]
		e.DPID = v[columnDPID]
		e.Flow.Proto = uint8(v[columnProto])
		e.Flow.Src = rows.srcDict[rows.srcIDs[i]]
		e.Flow.Dst = rows.dstDict[rows.dstIDs[i]]
		e.Flow.SrcPort = uint16(v[columnSrcPort])
		e.Flow.DstPort = uint16(v[columnDstPort])
		e.InPort = uint16(v[columnInPort])
		e.OutPort = uint16(v[columnOutPort])
		e.Bytes = v[columnBytes]
		e.Packets = v[columnPackets]
		e.FlowDuration = time.Duration(v[columnFlowDur])
		e.Reason = uint8(v[columnReason])
	}
	return out, count - rows.kept, nil
}
