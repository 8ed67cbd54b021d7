// Package colseg implements FDC1, the segmented columnar on-disk
// flow-log format, and the query-aware streaming reader that feeds
// signature builds without materializing the full event slice.
//
// A capture is split into segments, one per fixed time range (plus an
// event-count cap, so a burst cannot produce an unbounded segment), and
// each segment stores its events column by column:
//
//	file    := header segment* "FEND"
//	header  := "FDC1" | version u8 | ncols u8 |
//	           start i64 | end i64 | segWidth i64
//
// Version 2 (current) places the segment index ahead of the payload, so
// every pruning and projection decision is made before a single payload
// byte is read:
//
//	segment := "FSEG" | minTime i64 | maxTime i64 |
//	           count u32 | payloadLen u32 | indexLen u32 |
//	           index | payload
//	index   := ncols x colOffset u32 |
//	           ncols x colCRC u32 |
//	           ncols x (min u64 | max u64) |
//	           hostFlag u8 | hostCount uvarint | hostCount x 4 bytes |
//	           swFlag u8 | swCount uvarint | swCount x (len uvarint | bytes)
//	payload := column blocks, concatenated in column order
//
// The index carries, per column, its offset into the payload, a CRC32
// (IEEE) over its block (checked per decoded block, so unprojected
// blocks can be skipped without reading them), and the block's value
// range (for dictionary columns: the dictionary cardinality in both
// fields). The host summary is the sorted union of the segment's src
// and dst dictionaries (zero/invalid addresses excluded); the switch
// summary is the sorted switch-name dictionary. A summary whose
// cardinality exceeds summaryCap is written as overflowed (flag 1,
// count 0), which disables membership pruning for that segment but
// never affects correctness. A membership or time filter that proves a
// segment irrelevant prunes it from the index alone: the payload is
// skipped with Discard, never decoded.
//
// Version 1 (still readable) kept the offsets and a whole-payload CRC
// in a footer after the payload:
//
//	segment := "FSEG" | minTime i64 | maxTime i64 |
//	           count u32 | payloadLen u32 | payload | footer
//	footer  := ncols x colOffset u32 | crc32(payload) u32
//
// v1 files support time pruning (the preamble carries min/max time) and
// column-projected decode, but not membership pruning (no summaries)
// and not partial payload reads (the CRC covers the whole payload, so
// the payload must be read to reach the footer). Readers at version 1
// reject version-2 files from the header's version byte with a wrapped
// error — the forward-compat contract.
//
// Fixed-width integers are big-endian (matching FDL1).
//
// Column encodings (in payload order):
//
//	time                  delta from previous event, zigzag varint
//	type, reason, proto   run-length (uvarint run, value byte)
//	src, dst              per-segment IPv4 dictionary (first-appearance
//	                      order; 0.0.0.0 encodes the zero netip.Addr),
//	                      then one uvarint dictionary index per event
//	srcPort, dstPort,
//	inPort, outPort,
//	dpid, bytes, packets,
//	flowDuration          uvarint per event
//	switch                per-segment string dictionary + uvarint index
//
// Measured on the canonical scenario capture, FDC1 is >= 1.5x smaller
// than the row-oriented FDL1 format (see TestColumnarCompressionRatio
// and BenchmarkCompressionRatio).
package colseg

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"
)

const (
	fileMagic = "FDC1"
	segMagic  = "FSEG"
	endMagic  = "FEND"

	formatVersion1 = 1
	formatVersion2 = 2
	// formatVersion is what the writer emits by default.
	formatVersion = formatVersion2
)

// Column order inside a segment payload. numColumns is written to the
// header so a reader can reject files from a different layout revision.
const (
	columnTime = iota
	columnType
	columnReason
	columnProto
	columnSrc
	columnDst
	columnSrcPort
	columnDstPort
	columnInPort
	columnOutPort
	columnDPID
	columnBytes
	columnPackets
	columnFlowDur
	columnSwitch
	numColumns
)

// columnNames is the inspect/debug name of each column, in payload
// order.
var columnNames = [numColumns]string{
	"time", "type", "reason", "proto", "src", "dst",
	"srcPort", "dstPort", "inPort", "outPort",
	"dpid", "bytes", "packets", "flowDuration", "switch",
}

// ColumnSet selects event fields for a projected read: a bitset with
// one bit per on-disk column. The zero value selects every column (a
// full decode); any non-zero set implicitly includes ColTime, since
// time orders batches and drives windowed filtering. Unprojected
// columns leave their event fields at the zero value and their payload
// blocks are never decoded (on version-2 files, never even read).
type ColumnSet uint32

// Projectable columns. Combine with |: ColTime | ColSrc | ColDst is
// the flow-endpoint projection window counting and suspect-flow
// resolution need.
const (
	ColTime         ColumnSet = 1 << columnTime
	ColType         ColumnSet = 1 << columnType
	ColReason       ColumnSet = 1 << columnReason
	ColProto        ColumnSet = 1 << columnProto
	ColSrc          ColumnSet = 1 << columnSrc
	ColDst          ColumnSet = 1 << columnDst
	ColSrcPort      ColumnSet = 1 << columnSrcPort
	ColDstPort      ColumnSet = 1 << columnDstPort
	ColInPort       ColumnSet = 1 << columnInPort
	ColOutPort      ColumnSet = 1 << columnOutPort
	ColDPID         ColumnSet = 1 << columnDPID
	ColBytes        ColumnSet = 1 << columnBytes
	ColPackets      ColumnSet = 1 << columnPackets
	ColFlowDuration ColumnSet = 1 << columnFlowDur
	ColSwitch       ColumnSet = 1 << columnSwitch

	// AllColumns selects every column — equivalent to the zero value.
	AllColumns ColumnSet = 1<<numColumns - 1

	// FlowColumns is the 5-tuple: proto, src, dst, and both ports.
	FlowColumns = ColProto | ColSrc | ColDst | ColSrcPort | ColDstPort
)

func (s ColumnSet) normalized() ColumnSet {
	if s == 0 {
		return AllColumns
	}
	return (s | ColTime) & AllColumns
}

func (s ColumnSet) has(col int) bool { return s&(1<<col) != 0 }

// Filter restricts a read to a query's events. Restrictions compose
// (logical AND); the zero Filter keeps everything.
//
// Whole segments whose index proves no event can match are pruned
// before any payload byte is read; inside segments that may overlap,
// non-matching events are dropped at decode time — they are never
// materialized into the output batch.
type Filter struct {
	// From/To restrict the read to events in [From, To) — the same
	// half-open semantics as flowlog.Window. The time filter is active
	// only when To > From.
	From, To time.Duration
	// Hosts keeps only events whose flow source or destination address
	// is in the set (PortStatus-style events with no flow key never
	// match). Empty means no host restriction.
	Hosts []netip.Addr
	// Switches keeps only events reported by one of the named switches.
	// Empty means no switch restriction.
	Switches []string
}

func (f Filter) timeActive() bool { return f.To > f.From }

func (f Filter) active() bool {
	return f.timeActive() || len(f.Hosts) > 0 || len(f.Switches) > 0
}

// columns returns the columns the filter must decode to evaluate
// per-event membership, beyond what the caller projected.
func (f Filter) columns() ColumnSet {
	var need ColumnSet
	if len(f.Hosts) > 0 {
		need |= ColSrc | ColDst
	}
	if len(f.Switches) > 0 {
		need |= ColSwitch
	}
	return need
}

// Sanity bounds: a corrupted or hostile preamble must not drive an
// allocation, so counts and lengths are capped before any make().
const (
	maxSegmentEvents = 1 << 22 // 4M events per segment
	maxPayloadLen    = 1 << 28 // 256 MiB per segment payload
	maxIndexLen      = 1 << 22 // 4 MiB per segment index
	maxNameLen       = 1 << 12 // switch-name dictionary entry
	// summaryCap bounds the index's host/switch membership summaries: a
	// segment with more distinct entries writes an overflowed summary
	// (present but empty), which disables membership pruning for that
	// segment instead of bloating the index.
	summaryCap = 256
)

const (
	headerLen     = 4 + 1 + 1 + 8 + 8 + 8     // magic version ncols start end width
	preambleLenV1 = 8 + 8 + 4 + 4             // minTime maxTime count payloadLen
	preambleLenV2 = preambleLenV1 + 4         // + indexLen
	footerLenV1   = numColumns*4 + 4          // offsets + crc32
	statsLen      = numColumns * (8 + 8)      // min/max per column
	indexFixedLen = numColumns*4*2 + statsLen // offsets + crcs + stats
)

// segIndex is the decoded form of a version-2 segment index (or the
// subset a version-1 footer provides: offsets plus the whole-payload
// CRC carried in crcs[0] with perColumnCRC false).
type segIndex struct {
	offs [numColumns]int
	crcs [numColumns]uint32
	// perColumnCRC: v2 indexes checksum each block independently; a v1
	// footer checksums the whole payload (crcs[0]).
	perColumnCRC bool
	// stats[c] is the column's (min, max) encoded value range; for the
	// dictionary columns (src, dst, switch) both fields carry the
	// dictionary cardinality instead.
	stats [numColumns][2]uint64
	// hosts is the sorted union of the src and dst dictionaries
	// (invalid/zero addresses excluded); hostsExact is false when the
	// summary overflowed and membership pruning must be skipped.
	hosts      [][4]byte
	hostsExact bool
	// switches is the sorted switch-name dictionary; same overflow
	// contract.
	switches      []string
	switchesExact bool
}

// blockLen returns the encoded size of one column's block given the
// total payload length.
func (x *segIndex) blockLen(col, payloadLen int) int {
	end := payloadLen
	if col+1 < numColumns {
		end = x.offs[col+1]
	}
	return end - x.offs[col]
}

// checkOffsets validates the offset table against the payload length:
// offsets must be nondecreasing and in range, so every blockLen is
// non-negative and bounds-checked slicing is safe.
func (x *segIndex) checkOffsets(payloadLen int) error {
	for i := range x.offs {
		if x.offs[i] > payloadLen || (i > 0 && x.offs[i] < x.offs[i-1]) {
			return fmt.Errorf("colseg: corrupt column offset table")
		}
	}
	return nil
}

// parseIndexV2 decodes a version-2 segment index.
func parseIndexV2(b []byte, payloadLen int) (*segIndex, error) {
	if len(b) < indexFixedLen {
		return nil, fmt.Errorf("colseg: segment index truncated at %d bytes", len(b))
	}
	x := &segIndex{perColumnCRC: true}
	c := cursor{b: b}
	for i := range x.offs {
		v, err := c.bytes(4)
		if err != nil {
			return nil, err
		}
		x.offs[i] = int(binary.BigEndian.Uint32(v))
	}
	if err := x.checkOffsets(payloadLen); err != nil {
		return nil, err
	}
	for i := range x.crcs {
		v, err := c.bytes(4)
		if err != nil {
			return nil, err
		}
		x.crcs[i] = binary.BigEndian.Uint32(v)
	}
	for i := range x.stats {
		v, err := c.bytes(16)
		if err != nil {
			return nil, err
		}
		x.stats[i][0] = binary.BigEndian.Uint64(v[0:8])
		x.stats[i][1] = binary.BigEndian.Uint64(v[8:16])
	}
	flag, err := c.byte()
	if err != nil {
		return nil, fmt.Errorf("colseg: host summary: %w", err)
	}
	x.hostsExact = flag == 0
	n, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("colseg: host summary: %w", err)
	}
	if n > summaryCap {
		return nil, fmt.Errorf("colseg: host summary: implausible size %d", n)
	}
	x.hosts = make([][4]byte, n)
	for i := range x.hosts {
		v, err := c.bytes(4)
		if err != nil {
			return nil, fmt.Errorf("colseg: host summary: %w", err)
		}
		x.hosts[i] = [4]byte(v)
	}
	flag, err = c.byte()
	if err != nil {
		return nil, fmt.Errorf("colseg: switch summary: %w", err)
	}
	x.switchesExact = flag == 0
	n, err = c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("colseg: switch summary: %w", err)
	}
	if n > summaryCap {
		return nil, fmt.Errorf("colseg: switch summary: implausible size %d", n)
	}
	x.switches = make([]string, n)
	for i := range x.switches {
		l, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("colseg: switch summary: %w", err)
		}
		if l > maxNameLen {
			return nil, fmt.Errorf("colseg: switch summary: implausible name length %d", l)
		}
		v, err := c.bytes(int(l))
		if err != nil {
			return nil, fmt.Errorf("colseg: switch summary: %w", err)
		}
		x.switches[i] = string(v)
	}
	return x, nil
}

// parseFooterV1 decodes a version-1 footer into the index shape.
func parseFooterV1(b []byte, payloadLen int) (*segIndex, error) {
	if len(b) != footerLenV1 {
		return nil, fmt.Errorf("colseg: segment footer truncated at %d bytes", len(b))
	}
	x := &segIndex{}
	for i := range x.offs {
		x.offs[i] = int(binary.BigEndian.Uint32(b[i*4 : i*4+4]))
	}
	if err := x.checkOffsets(payloadLen); err != nil {
		return nil, err
	}
	x.crcs[0] = binary.BigEndian.Uint32(b[numColumns*4:])
	return x, nil
}

// WriterOptions tunes segmentation. The zero value takes the defaults.
type WriterOptions struct {
	// SegmentDuration is the fixed time range one segment covers.
	// Default 30 s.
	SegmentDuration time.Duration
	// MaxSegmentEvents caps a segment's event count, so a burst inside
	// one time range still yields bounded segments (several segments
	// then share the range; their min/max metadata stays correct).
	// Default 65536, clamped to the format's hard cap.
	MaxSegmentEvents int
	// FormatVersion selects the on-disk revision: 0 (default) writes
	// the current version 2 (pre-payload index with per-column CRCs,
	// value ranges, and membership summaries); 1 writes the legacy
	// post-payload footer for compatibility testing against old
	// readers.
	FormatVersion int
}

func (o WriterOptions) withDefaults() (WriterOptions, error) {
	if o.SegmentDuration <= 0 {
		o.SegmentDuration = 30 * time.Second
	}
	if o.MaxSegmentEvents <= 0 {
		o.MaxSegmentEvents = 1 << 16
	}
	if o.MaxSegmentEvents > maxSegmentEvents {
		o.MaxSegmentEvents = maxSegmentEvents
	}
	switch o.FormatVersion {
	case 0:
		o.FormatVersion = formatVersion
	case formatVersion1, formatVersion2:
	default:
		return o, fmt.Errorf("colseg: unsupported writer format version %d", o.FormatVersion)
	}
	return o, nil
}

// cursor is a bounds-checked decoder over one column block. Every read
// returns an error instead of panicking, so corrupted offsets or
// truncated varints surface as wrapped decode errors.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("colseg: truncated uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("colseg: truncated varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("colseg: truncated byte at offset %d", c.off)
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) {
		return nil, fmt.Errorf("colseg: truncated %d-byte read at offset %d", n, c.off)
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v, nil
}
