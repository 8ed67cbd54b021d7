package colseg

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// ReaderOptions tunes streaming decode: what to return (Columns), what
// to keep (the embedded Filter), and how to decode (BatchSize,
// Parallelism). The zero options read everything serially.
type ReaderOptions struct {
	// Filter restricts the read. Whole segments the index proves
	// irrelevant are pruned before any payload byte is read; inside
	// overlapping segments, non-matching events are dropped at decode
	// time and never materialized.
	Filter
	// Columns projects the decode: only the selected columns' payload
	// blocks are decoded (on version-2 files the others are never even
	// read), and unprojected event fields stay at their zero value. Zero
	// means all columns.
	Columns ColumnSet
	// BatchSize caps the event count of one Next batch. Default 8192.
	BatchSize int
	// Parallelism > 1 decodes that many segments concurrently (clamped
	// to the hardware by parallel.Clamp) behind a bounded-readahead
	// pipeline that delivers batches strictly in file order — output is
	// identical to the serial reader at every worker count. 0 or 1 reads
	// serially.
	Parallelism int
}

func (o ReaderOptions) withDefaults() ReaderOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 8192
	}
	return o
}

// readerMetrics holds the obs handles resolved once at open, so the
// per-segment cost is an atomic add.
//
// Counter semantics: segments.read counts decoded segments;
// segments.pruned counts segments skipped from the preamble time range;
// segments.pruned_by_index counts segments skipped from the index
// membership summaries; events.decoded counts materialized events;
// events.filtered counts events dropped at decode time; columns.skipped
// counts unprojected column blocks never decoded; bytes.decoded /
// bytes.skipped split the payload bytes by whether they fed a decode.
// The readahead.occupancy gauge tracks filled pipeline slots per round
// (Max = the deepest the readahead ever ran).
type readerMetrics struct {
	segsRead    *obs.Counter
	segsPruned  *obs.Counter
	segsPrunedX *obs.Counter
	evsDecoded  *obs.Counter
	evsFiltered *obs.Counter
	colsSkipped *obs.Counter
	bytesDec    *obs.Counter
	bytesSkip   *obs.Counter
	occupancy   *obs.Gauge
}

func newReaderMetrics(reg *obs.Registry) readerMetrics {
	return readerMetrics{
		segsRead:    reg.Counter("colseg.segments.read"),
		segsPruned:  reg.Counter("colseg.segments.pruned"),
		segsPrunedX: reg.Counter("colseg.segments.pruned_by_index"),
		evsDecoded:  reg.Counter("colseg.events.decoded"),
		evsFiltered: reg.Counter("colseg.events.filtered"),
		colsSkipped: reg.Counter("colseg.columns.skipped"),
		bytesDec:    reg.Counter("colseg.bytes.decoded"),
		bytesSkip:   reg.Counter("colseg.bytes.skipped"),
		occupancy:   reg.Gauge("colseg.readahead.occupancy"),
	}
}

// segMeta is everything known about the next segment before its payload:
// the preamble plus, on version-2 files, the decoded index.
type segMeta struct {
	minT, maxT time.Duration
	count      int
	payloadLen int
	index      *segIndex
}

// Reader streams an FDC1 file segment by segment, serving decoded
// events in bounded batches. Peak memory is one decoded segment plus
// the per-segment dictionaries (times Parallelism plus readahead when
// decoding in parallel); the full event slice is never materialized.
//
// Metrics land in the obs registry traveling in the constructor's
// context; see readerMetrics for the counter contract.
type Reader struct {
	br      *bufio.Reader
	ctx     context.Context
	reg     *obs.Registry
	m       readerMetrics
	opts    ReaderOptions
	spec    *querySpec
	version int
	start   time.Duration
	end     time.Duration
	width   time.Duration
	// names interns switch-name dictionary entries across segments, so
	// a capture from N switches allocates N strings however many
	// segments repeat them. Serial decode only: parallel slots intern
	// per segment (value-equal output, no shared map).
	names map[string]string
	// Serial decode state, reused across segments.
	slab    []byte
	blocks  [numColumns][]byte
	sc      decodeScratch
	idxBuf  []byte
	par     *pipeline
	seg     []flowlog.Event
	pos     int
	srcDone bool // end marker consumed from the stream
	done    bool // no batches left to serve
	err     error
}

// NewReader is NewReaderContext with a background context.
func NewReader(r io.Reader, opts ReaderOptions) (*Reader, error) {
	return NewReaderContext(context.Background(), r, opts)
}

// NewReaderContext opens an FDC1 stream: the header is read and
// validated immediately, events decode lazily per Next call. Both
// on-disk versions are readable; files from a future revision are
// rejected here.
func NewReaderContext(ctx context.Context, r io.Reader, opts ReaderOptions) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("colseg: reading header: %w", err)
	}
	if string(hdr[0:4]) != fileMagic {
		return nil, fmt.Errorf("colseg: bad magic %q", hdr[0:4])
	}
	if hdr[4] != formatVersion1 && hdr[4] != formatVersion2 {
		return nil, fmt.Errorf("colseg: unsupported version %d", hdr[4])
	}
	if hdr[5] != numColumns {
		return nil, fmt.Errorf("colseg: unexpected column count %d (want %d)", hdr[5], numColumns)
	}
	opts = opts.withDefaults()
	reg := obs.From(ctx)
	rd := &Reader{
		br:      br,
		ctx:     ctx,
		reg:     reg,
		m:       newReaderMetrics(reg),
		opts:    opts,
		spec:    newQuerySpec(opts.Filter, opts.Columns),
		version: int(hdr[4]),
		start:   time.Duration(binary.BigEndian.Uint64(hdr[6:14])),
		end:     time.Duration(binary.BigEndian.Uint64(hdr[14:22])),
		width:   time.Duration(binary.BigEndian.Uint64(hdr[22:30])),
		names:   make(map[string]string),
	}
	rd.par = newPipeline(opts.Parallelism)
	return rd, nil
}

// Bounds returns the interval the served events cover: the filter
// window when one is set, else the log interval recorded in the file
// header.
func (r *Reader) Bounds() (start, end time.Duration) {
	if r.opts.timeActive() {
		return r.opts.From, r.opts.To
	}
	return r.start, r.end
}

// SegmentDuration returns the fixed time range the file was segmented by.
func (r *Reader) SegmentDuration() time.Duration { return r.width }

// Next returns the next batch of decoded events (at most BatchSize) and
// io.EOF after the last one. The returned slice is only valid until the
// next call. Errors other than io.EOF are terminal.
func (r *Reader) Next() ([]flowlog.Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	for r.pos >= len(r.seg) {
		if r.done {
			r.err = io.EOF
			return nil, io.EOF
		}
		var err error
		if r.par != nil {
			err = r.nextSegmentParallel()
		} else {
			r.seg, err = r.nextSegment(r.seg[:0])
			r.pos = 0
		}
		if err != nil {
			r.err = err
			return nil, err
		}
	}
	n := len(r.seg) - r.pos
	if n > r.opts.BatchSize {
		n = r.opts.BatchSize
	}
	batch := r.seg[r.pos : r.pos+n]
	r.pos += n
	return batch, nil
}

// readMeta consumes the next segment tag and, unless the file ended,
// the preamble and (version 2) the segment index — everything needed to
// decide pruning before any payload byte.
func (r *Reader) readMeta() (meta segMeta, done bool, err error) {
	var tag [4]byte
	if _, err := io.ReadFull(r.br, tag[:]); err != nil {
		return meta, false, fmt.Errorf("colseg: reading segment tag: %w", err)
	}
	switch string(tag[:]) {
	case endMagic:
		return meta, true, nil
	case segMagic:
	default:
		return meta, false, fmt.Errorf("colseg: bad segment tag %q", tag[:])
	}

	preLen := preambleLenV1
	if r.version == formatVersion2 {
		preLen = preambleLenV2
	}
	var pre [preambleLenV2]byte
	if _, err := io.ReadFull(r.br, pre[:preLen]); err != nil {
		return meta, false, fmt.Errorf("colseg: reading segment preamble: %w", err)
	}
	meta.minT = time.Duration(binary.BigEndian.Uint64(pre[0:8]))
	meta.maxT = time.Duration(binary.BigEndian.Uint64(pre[8:16]))
	count := binary.BigEndian.Uint32(pre[16:20])
	payloadLen := binary.BigEndian.Uint32(pre[20:24])
	if count == 0 || count > maxSegmentEvents {
		return meta, false, fmt.Errorf("colseg: implausible segment event count %d", count)
	}
	if payloadLen > maxPayloadLen {
		return meta, false, fmt.Errorf("colseg: implausible segment payload length %d", payloadLen)
	}
	meta.count = int(count)
	meta.payloadLen = int(payloadLen)

	if r.version == formatVersion2 {
		indexLen := binary.BigEndian.Uint32(pre[24:28])
		if indexLen > maxIndexLen {
			return meta, false, fmt.Errorf("colseg: implausible segment index length %d", indexLen)
		}
		r.idxBuf = grow(r.idxBuf, int(indexLen))
		if _, err := io.ReadFull(r.br, r.idxBuf); err != nil {
			return meta, false, fmt.Errorf("colseg: reading segment index: %w", err)
		}
		meta.index, err = parseIndexV2(r.idxBuf, meta.payloadLen)
		if err != nil {
			return meta, false, err
		}
	}
	return meta, false, nil
}

// prune decides from metadata alone whether no event in the segment can
// match the filter: the preamble time range first, then (version 2,
// exact summaries only) host and switch membership.
func (r *Reader) prune(meta *segMeta) (pruned, byIndex bool) {
	if r.opts.timeActive() && (meta.maxT < r.opts.From || meta.minT >= r.opts.To) {
		return true, false
	}
	if x := meta.index; x != nil {
		if len(r.spec.hostSet) > 0 && x.hostsExact {
			hit := false
			for _, a4 := range x.hosts {
				if r.spec.hostSet[a4] {
					hit = true
					break
				}
			}
			if !hit {
				return true, true
			}
		}
		if len(r.spec.swSet) > 0 && x.switchesExact {
			hit := false
			for _, name := range x.switches {
				if r.spec.swSet[name] {
					hit = true
					break
				}
			}
			if !hit {
				return true, true
			}
		}
	}
	return false, false
}

// skipSegment discards a pruned segment's remaining bytes (payload, plus
// the trailing footer on version-1 files) and records the work avoided.
func (r *Reader) skipSegment(meta *segMeta, byIndex bool) error {
	n := meta.payloadLen
	if r.version == formatVersion1 {
		n += footerLenV1
	}
	if _, err := r.br.Discard(n); err != nil {
		return fmt.Errorf("colseg: skipping pruned segment: %w", err)
	}
	if byIndex {
		r.m.segsPrunedX.Inc()
	} else {
		r.m.segsPruned.Inc()
	}
	r.m.bytesSkip.Add(int64(meta.payloadLen))
	return nil
}

// loadBlocks reads the segment body into slab and slices the needed
// column blocks out of it. On version-2 files unneeded blocks are
// skipped with Discard (their bytes never enter memory) and each loaded
// block is CRC-checked independently; version-1 files must read the
// whole payload to reach the footer, so "skipped" there counts decode
// work avoided, not IO. Returns the (possibly regrown) slab.
func (r *Reader) loadBlocks(meta *segMeta, blocks *[numColumns][]byte, slab []byte) ([]byte, error) {
	need := r.spec.need
	if r.version == formatVersion1 {
		slab = grow(slab, meta.payloadLen+footerLenV1)
		if _, err := io.ReadFull(r.br, slab); err != nil {
			return slab, fmt.Errorf("colseg: reading segment body: %w", err)
		}
		payload, footer := slab[:meta.payloadLen], slab[meta.payloadLen:]
		x, err := parseFooterV1(footer, meta.payloadLen)
		if err != nil {
			return slab, err
		}
		if got := crc32.ChecksumIEEE(payload); got != x.crcs[0] {
			return slab, fmt.Errorf("colseg: segment CRC mismatch: computed %08x, footer %08x", got, x.crcs[0])
		}
		meta.index = x
		var dec, skip int64
		for c := 0; c < numColumns; c++ {
			bl := x.blockLen(c, meta.payloadLen)
			if need.has(c) {
				blocks[c] = payload[x.offs[c] : x.offs[c]+bl]
				dec += int64(bl)
			} else {
				blocks[c] = nil
				skip += int64(bl)
				r.m.colsSkipped.Inc()
			}
		}
		r.m.bytesDec.Add(dec)
		r.m.bytesSkip.Add(skip)
		return slab, nil
	}

	x := meta.index
	total := 0
	for c := 0; c < numColumns; c++ {
		if need.has(c) {
			total += x.blockLen(c, meta.payloadLen)
		}
	}
	slab = grow(slab, total)
	off := 0
	var dec, skip int64
	for c := 0; c < numColumns; c++ {
		bl := x.blockLen(c, meta.payloadLen)
		if !need.has(c) {
			if _, err := r.br.Discard(bl); err != nil {
				return slab, fmt.Errorf("colseg: skipping %s column: %w", columnNames[c], err)
			}
			blocks[c] = nil
			skip += int64(bl)
			r.m.colsSkipped.Inc()
			continue
		}
		b := slab[off : off+bl]
		if _, err := io.ReadFull(r.br, b); err != nil {
			return slab, fmt.Errorf("colseg: reading %s column: %w", columnNames[c], err)
		}
		if got := crc32.ChecksumIEEE(b); got != x.crcs[c] {
			return slab, fmt.Errorf("colseg: %s column CRC mismatch: computed %08x, index %08x", columnNames[c], got, x.crcs[c])
		}
		blocks[c] = b
		off += bl
		dec += int64(bl)
	}
	r.m.bytesDec.Add(dec)
	r.m.bytesSkip.Add(skip)
	return slab, nil
}

// nextSegment consumes the next step of the stream — the end marker
// (r.done), a pruned segment, or one segment decoded onto the end of
// dst (possibly nothing after decode-time filtering) — and returns dst
// as extended. Serial path.
func (r *Reader) nextSegment(dst []flowlog.Event) ([]flowlog.Event, error) {
	meta, done, err := r.readMeta()
	if err != nil {
		return dst, err
	}
	if done {
		r.done = true
		return dst, nil
	}
	if pruned, byIndex := r.prune(&meta); pruned {
		return dst, r.skipSegment(&meta, byIndex)
	}
	if r.slab, err = r.loadBlocks(&meta, &r.blocks, r.slab); err != nil {
		return dst, err
	}
	//lint:ignore obsspan same decode stage as the parallel refill path; a reader runs exactly one of the two, so the timeline never sees both and the metric name stays comparable across modes
	sp := r.reg.Span("colseg.decode")
	out, filtered, err := decodeBlocks(&r.blocks, meta.count, r.spec, r.names, &r.sc, dst)
	sp.End()
	if err != nil {
		return dst, err
	}
	r.m.segsRead.Inc()
	r.m.evsDecoded.Add(int64(len(out) - len(dst)))
	r.m.evsFiltered.Add(int64(filtered))
	return out, nil
}

// ReadAll drains the reader into an in-memory log covering the file's
// recorded bounds (or the filter window when one is set). A serial
// reader standing between segments — a fresh one always is — decodes
// each remaining segment straight onto the end of the log it returns;
// otherwise the batches are copied out.
func (r *Reader) ReadAll() (*flowlog.Log, error) {
	start, end := r.Bounds()
	out := flowlog.New(start, end)
	for r.par == nil && r.err == nil && !r.done && r.pos >= len(r.seg) {
		out.Events, r.err = r.nextSegment(out.Events)
	}
	for {
		batch, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Events = append(out.Events, batch...)
	}
}

// Read eagerly deserializes a whole FDC1 stream, the columnar
// counterpart of flowlog.ReadBinary.
func Read(rd io.Reader) (*flowlog.Log, error) {
	r, err := NewReader(rd, ReaderOptions{})
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}
