package colseg

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// ReaderOptions tunes streaming decode: what to keep (the embedded
// Filter). The zero options read everything.
type ReaderOptions struct {
	// Filter restricts the read. Whole segments the index proves
	// irrelevant are pruned before any payload byte is read; inside
	// overlapping segments, non-matching events are dropped at decode
	// time and never materialized.
	Filter
}

// readerMetrics holds the obs handles resolved once at open, so the
// per-segment cost is an atomic add.
//
// Counter semantics: segments.read counts decoded segments;
// segments.pruned counts segments skipped from the preamble time range;
// segments.pruned_by_index counts segments skipped from the index
// membership summaries; events.decoded counts materialized events;
// events.filtered counts events dropped at decode time; bytes.decoded /
// bytes.skipped split the payload bytes by whether they fed a decode
// (a pruned segment's are skipped).
type readerMetrics struct {
	segsRead    *obs.Counter
	segsPruned  *obs.Counter
	segsPrunedX *obs.Counter
	evsDecoded  *obs.Counter
	evsFiltered *obs.Counter
	bytesDec    *obs.Counter
	bytesSkip   *obs.Counter
}

func newReaderMetrics(reg *obs.Registry) readerMetrics {
	return readerMetrics{
		segsRead:    reg.Counter("colseg.segments.read"),
		segsPruned:  reg.Counter("colseg.segments.pruned"),
		segsPrunedX: reg.Counter("colseg.segments.pruned_by_index"),
		evsDecoded:  reg.Counter("colseg.events.decoded"),
		evsFiltered: reg.Counter("colseg.events.filtered"),
		bytesDec:    reg.Counter("colseg.bytes.decoded"),
		bytesSkip:   reg.Counter("colseg.bytes.skipped"),
	}
}

// segMeta is everything known about the next segment before its payload:
// the preamble plus the decoded index.
type segMeta struct {
	minT, maxT time.Duration
	count      int
	payloadLen int
	index      *segIndex
}

// Reader streams an FDC1 file segment by segment, serving each decoded
// segment as one batch. Peak memory is one decoded segment plus
// its dictionaries; the full event slice is never materialized.
//
// Its decode state is borrowed from a pool at open and handed back at
// the Next that returns io.EOF or an error, or at the end of ReadAll;
// Bounds and the sticky error need none of it.
//
// Metrics land in the obs registry traveling in the constructor's
// context; see readerMetrics for the counter contract.
type Reader struct {
	*decodeState // nil once the stream has ended
	reg          *obs.Registry
	m            readerMetrics
	opts         ReaderOptions
	spec         *querySpec
	start        time.Duration
	end          time.Duration
	width        time.Duration
	done         bool // no segments left to serve
	err          error
}

// decodeState is a reader's working set, reused across segments and,
// through states, across readers and ReadAnyInto calls.
type decodeState struct {
	br *bufio.Reader
	// names interns switch-name dictionary entries across segments, so
	// a capture from N switches allocates N strings however many
	// segments repeat them.
	names  map[string]string
	slab   []byte
	blocks [numColumns][]byte
	sc     decodeScratch
	idxBuf []byte
	seg    []flowlog.Event // the batch Next serves
}

// maxPooledSlab and maxPooledRows bound the payload slab, and the
// per-row scratch and batch, a pooled state keeps, so one huge capture
// pins nothing.
const maxPooledSlab, maxPooledRows = 4 << 20, 1 << 16

var states = sync.Pool{New: func() any { return &decodeState{br: bufio.NewReaderSize(nil, 1<<16), names: make(map[string]string)} }}

// borrow takes a pooled decode state reading from r.
func borrow(r io.Reader) *decodeState {
	st := states.Get().(*decodeState)
	st.br.Reset(r)
	return st
}

// release hands the reader's decode state back to states, keeping its
// buffers but no view of the stream it read. It is a no-op once done.
func (r *Reader) release() {
	st := r.decodeState
	if st == nil {
		return
	}
	r.decodeState = nil
	st.br.Reset(nil)
	if len(st.names) > 1024 {
		st.names = make(map[string]string) // a cleared map keeps its buckets
	}
	clear(st.names)
	st.blocks = [numColumns][]byte{}
	if cap(st.slab) > maxPooledSlab {
		st.slab = nil
	}
	if cap(st.sc.times) > maxPooledRows {
		st.sc = decodeScratch{}
	}
	if cap(st.seg) > maxPooledRows {
		st.seg = nil
	}
	states.Put(st)
}

// NewReaderContext opens an FDC1 stream: the header is read and
// validated immediately, events decode lazily per Next call. A file of
// any format version but the current one is rejected here. The decode
// state is pooled (see Reader).
func NewReaderContext(ctx context.Context, r io.Reader, opts ReaderOptions) (*Reader, error) {
	rd := &Reader{decodeState: borrow(r)}
	if err := rd.open(ctx, opts); err != nil {
		rd.release()
		return nil, err
	}
	return rd, nil
}

// open reads and validates the header from r.br. The magic is judged
// first, so a short file in another format is not called truncated.
func (r *Reader) open(ctx context.Context, opts ReaderOptions) error {
	var hdr [headerLen]byte
	n, err := io.ReadFull(r.br, hdr[:])
	if magic := string(hdr[0:4]); n >= len(fileMagic) && magic != fileMagic {
		if magic == retiredMagic {
			return fmt.Errorf("colseg: FDL1 (row binary) is a retired flow-log format; only FDC1 and JSON are read")
		}
		return fmt.Errorf("colseg: bad magic %q", magic)
	}
	if err != nil {
		return fmt.Errorf("colseg: reading header: %w", err)
	}
	if hdr[4] != formatVersion {
		return fmt.Errorf("colseg: unsupported version %d", hdr[4])
	}
	if hdr[5] != numColumns {
		return fmt.Errorf("colseg: unexpected column count %d (want %d)", hdr[5], numColumns)
	}
	r.opts, r.reg = opts, obs.From(ctx)
	r.m, r.spec = newReaderMetrics(r.reg), newQuerySpec(opts.Filter)
	r.start = time.Duration(binary.BigEndian.Uint64(hdr[6:14]))
	r.end = time.Duration(binary.BigEndian.Uint64(hdr[14:22]))
	r.width = time.Duration(binary.BigEndian.Uint64(hdr[22:30]))
	return nil
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

// Next returns the next decoded segment's events — every event of it
// the filter keeps, in one batch — and io.EOF after the last one.
// Segments the filter empties are skipped. The returned slice is only
// valid until the next call. Errors other than io.EOF are terminal: the
// call that returns one hands the decode state back, and every later
// call returns the same error.
func (r *Reader) Next() ([]flowlog.Event, error) {
	for r.err == nil {
		if r.done {
			r.err = io.EOF
			break
		}
		if r.seg, r.err = r.nextSegment(r.seg[:0]); r.err == nil && len(r.seg) > 0 {
			return r.seg, nil
		}
	}
	r.release()
	return nil, r.err
}

// readMeta consumes the next segment tag and, unless the file ended,
// the preamble and the segment index (left in r.idxBuf) — everything
// needed to decide pruning before any payload byte.
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

	var pre [preambleLen]byte
	if _, err := io.ReadFull(r.br, pre[:]); err != nil {
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
	indexLen := binary.BigEndian.Uint32(pre[24:28])
	if indexLen > maxIndexLen {
		return meta, false, fmt.Errorf("colseg: implausible segment index length %d", indexLen)
	}
	meta.count = int(count)
	meta.payloadLen = int(payloadLen)
	r.idxBuf = grow(r.idxBuf, int(indexLen))
	if _, err := io.ReadFull(r.br, r.idxBuf); err != nil {
		return meta, false, fmt.Errorf("colseg: reading segment index: %w", err)
	}
	meta.index, err = parseIndex(r.idxBuf, meta.payloadLen)
	return meta, false, err
}

// prune decides from metadata alone whether no event in the segment can
// match the filter: the preamble time range first, then (exact summary
// only) host membership.
func (r *Reader) prune(meta *segMeta) (pruned, byIndex bool) {
	if r.opts.timeActive() && (meta.maxT < r.opts.From || meta.minT >= r.opts.To) {
		return true, false
	}
	x := meta.index
	if r.spec.hostSet != nil && x.hostsExact {
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
	return false, false
}

// skipSegment discards a pruned segment's payload and records the work
// avoided.
func (r *Reader) skipSegment(meta *segMeta, byIndex bool) error {
	if _, err := r.br.Discard(meta.payloadLen); err != nil {
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

// loadBlocks reads the segment's column blocks into r.slab and slices
// them into r.blocks, each CRC-checked independently.
func (r *Reader) loadBlocks(meta *segMeta) error {
	x := meta.index
	slab := grow(r.slab, meta.payloadLen)
	r.slab = slab
	for c := 0; c < numColumns; c++ {
		b := slab[x.offs[c] : x.offs[c]+x.blockLen(c, meta.payloadLen)]
		if _, err := io.ReadFull(r.br, b); err != nil {
			return fmt.Errorf("colseg: reading %s column: %w", columnNames[c], err)
		}
		if got := crc32.ChecksumIEEE(b); got != x.crcs[c] {
			return fmt.Errorf("colseg: %s column CRC mismatch: computed %08x, index %08x", columnNames[c], got, x.crcs[c])
		}
		r.blocks[c] = b
	}
	r.m.bytesDec.Add(int64(meta.payloadLen))
	return nil
}

// nextSegment consumes the next step of the stream — the end marker
// (r.done), a pruned segment, or one segment decoded onto the end of
// dst (possibly nothing after decode-time filtering) — and returns dst
// as extended.
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
	if err := r.loadBlocks(&meta); err != nil {
		return dst, err
	}
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
// recorded bounds (or the filter window when one is set), decoding each
// remaining segment straight onto the end of the log it returns, and
// hands the decode state back.
func (r *Reader) ReadAll() (*flowlog.Log, error) { return r.readAll(nil) }

// readAll is ReadAll onto dst[:0].
func (r *Reader) readAll(dst []flowlog.Event) (*flowlog.Log, error) {
	defer r.release()
	start, end := r.Bounds()
	out := flowlog.New(start, end)
	out.Events = dst[:0]
	for r.err == nil && !r.done {
		out.Events, r.err = r.nextSegment(out.Events)
	}
	if r.err != nil && r.err != io.EOF {
		return nil, r.err
	}
	return out, nil
}

// Read eagerly deserializes a whole FDC1 stream, the columnar
// counterpart of flowlog.ReadJSON.
func Read(rd io.Reader) (*flowlog.Log, error) {
	r, err := NewReaderContext(context.Background(), rd, ReaderOptions{})
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}
