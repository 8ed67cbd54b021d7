package serve

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
)

// Store is the service's on-disk layout. Everything a tenant needs to
// survive a restart lives under one directory per tenant:
//
//	<dir>/
//	  <tenant>/
//	    baseline.fdc        frozen baseline capture (FDC1)
//	    baseline.json       BaselineMeta sidecar
//	    reports/
//	      0000000000000001.log   a segment of the tenant's report log
//
// A baseline is renamed into place from a dot-prefixed temp file. A
// report is one frame (u32 length | u32 CRC32-IEEE | compact JSON
// ReportRecord) appended to the last segment in one write; a crash can
// tear only that frame, which readers skip and the next append cuts.
// Nothing is fsynced: a report is in the log before its flush is
// acknowledged, not on stable storage.
//
// Store methods are safe for concurrent use. One lock covers the logs,
// held for a frame's I/O or a scan. Each list rereads the directory, so
// another Store's appends and removals are seen, but a tenant has one
// writing Store: an append may cut a frame in flight as torn.
type Store struct {
	dir string
	// mu guards logs; parsed counts the frames scans decoded.
	mu     sync.Mutex
	logs   map[string]*reportLog
	parsed atomic.Int64
}

// segmentBytes is the size past which a report starts a new segment.
const segmentBytes = 4 << 20

const frameHeader = 8 // u32 length, u32 CRC32-IEEE

// reportLog is one tenant's log: its segments, held open, and an index
// from seq to the frame holding the report.
type reportLog struct {
	dir    string
	parsed *atomic.Int64
	segs   []*segment // in name order, which is write order
	index  map[uint64]frame
	tailOK bool // this Store has cut any torn frame off the last segment
}

type segment struct {
	first  uint64 // from the name
	f      *os.File
	info   fs.FileInfo // identity, for os.SameFile
	end    int64       // the end of the last whole frame indexed
	newest int64       // the latest SavedAtUnixNS among its frames
	torn   bool        // the last scan left a partial frame past end
}

// frame locates one report; of two frames with the same seq, the later
// in (segment, offset) order wins.
type frame struct {
	seg *segment
	off int64
	n   uint32 // payload length
	sum ReportSummary
}

// ErrNotFound reports a missing tenant, baseline, or report.
var ErrNotFound = errors.New("serve: not found")

// OpenStore opens (creating if needed) the service data directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("serve: store directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening store: %w", err)
	}
	return &Store{dir: dir, logs: make(map[string]*reportLog)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) tenantDir(tenant string) string {
	return filepath.Join(s.dir, tenant)
}

func (s *Store) reportsDir(tenant string) string {
	return filepath.Join(s.tenantDir(tenant), "reports")
}

// writeFileAtomic writes path through write into a dot-prefixed temp
// file in the same directory, renamed into place once complete.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return err
	}
	err = cmp.Or(write(tmp), tmp.Close())
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Tenants lists tenant IDs present on disk, sorted.
func (s *Store) Tenants() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: listing tenants: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && validTenantID(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// SaveBaseline persists a tenant's baseline capture (as FDC1) and its
// metadata sidecar. The capture is written first so a crash between the
// two writes is detected by the sidecar/capture version check on load.
func (s *Store) SaveBaseline(tenant string, log *flowlog.Log, meta BaselineMeta) error {
	dir := s.tenantDir(tenant)
	err := os.MkdirAll(s.reportsDir(tenant), 0o755)
	if err == nil {
		err = writeFileAtomic(filepath.Join(dir, "baseline.fdc"), func(w io.Writer) error {
			return colseg.Write(w, log, colseg.WriterOptions{})
		})
	}
	if err == nil {
		err = writeFileAtomic(filepath.Join(dir, "baseline.json"), func(w io.Writer) error {
			data, err := json.MarshalIndent(meta, "", "  ")
			if err == nil {
				_, err = w.Write(data)
			}
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("serve: saving baseline for %s: %w", tenant, err)
	}
	return nil
}

// LoadBaseline reads a tenant's persisted baseline and metadata; ctx
// governs the columnar decode.
func (s *Store) LoadBaseline(ctx context.Context, tenant string) (*flowlog.Log, BaselineMeta, error) {
	var meta BaselineMeta
	dir := s.tenantDir(tenant)
	data, err := os.ReadFile(filepath.Join(dir, "baseline.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, meta, fmt.Errorf("serve: baseline for %s: %w", tenant, ErrNotFound)
	}
	if err != nil {
		return nil, meta, fmt.Errorf("serve: loading baseline for %s: %w", tenant, err)
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, meta, fmt.Errorf("serve: loading baseline for %s: %w", tenant, err)
	}
	f, err := os.Open(filepath.Join(dir, "baseline.fdc"))
	if err != nil {
		return nil, meta, fmt.Errorf("serve: loading baseline for %s: %w", tenant, err)
	}
	defer f.Close()
	cr, err := colseg.NewReaderContext(ctx, f, colseg.ReaderOptions{})
	if err != nil {
		return nil, meta, fmt.Errorf("serve: loading baseline for %s: %w", tenant, err)
	}
	log, err := cr.ReadAll()
	if err != nil {
		return nil, meta, fmt.Errorf("serve: loading baseline for %s: %w", tenant, err)
	}
	return log, meta, nil
}

// BaselineBytes returns the raw persisted baseline capture (FDC1) for
// GET /v1/tenants/{id}/baseline.
func (s *Store) BaselineBytes(tenant string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.tenantDir(tenant), "baseline.fdc"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("serve: baseline for %s: %w", tenant, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading baseline for %s: %w", tenant, err)
	}
	return data, nil
}

// SaveReport appends one window diagnosis to the tenant's report log.
// Saving a seq again supersedes the earlier frame.
func (s *Store) SaveReport(tenant string, rec ReportRecord) error {
	data, err := json.Marshal(rec)
	if err == nil {
		lg := s.lockLog(tenant)
		err = lg.append(rec, data)
		s.unlock(tenant, lg, false)
	}
	if err != nil {
		return fmt.Errorf("serve: saving report %d for %s: %w", rec.Seq, tenant, err)
	}
	return nil
}

// LoadReport reads one persisted window diagnosis with one ReadAt.
func (s *Store) LoadReport(tenant string, seq uint64) (ReportRecord, error) {
	var rec ReportRecord
	lg := s.lockLog(tenant)
	fr, ok := lg.index[seq]
	var err error
	if !ok {
		err = lg.refresh()
		fr, ok = lg.index[seq]
	}
	buf := make([]byte, frameHeader+int(fr.n))
	if ok && err == nil {
		_, err = fr.seg.f.ReadAt(buf, fr.off)
	}
	s.unlock(tenant, lg, false)
	switch {
	case err == nil && !ok:
		return rec, fmt.Errorf("serve: report %d for %s: %w", seq, tenant, ErrNotFound)
	case err == nil && crc32.ChecksumIEEE(buf[frameHeader:]) != binary.LittleEndian.Uint32(buf[4:]):
		err = fmt.Errorf("segment %s: frame at offset %d fails its checksum", fr.seg.f.Name(), fr.off)
	case err == nil:
		err = json.Unmarshal(buf[frameHeader:], &rec)
	}
	if err != nil {
		return rec, fmt.Errorf("serve: loading report %d for %s: %w", seq, tenant, err)
	}
	return rec, nil
}

// ListReports summarizes a tenant's persisted reports in sequence
// order. A missing tenant directory lists as empty, not as an error — a
// registered tenant may simply not have flushed yet.
func (s *Store) ListReports(tenant string) ([]ReportSummary, error) {
	lg := s.lockLog(tenant)
	err := lg.refresh()
	var out []ReportSummary
	for _, fr := range lg.index {
		out = append(out, fr.sum)
	}
	s.unlock(tenant, lg, false)
	if err != nil {
		return nil, fmt.Errorf("serve: listing reports for %s: %w", tenant, err)
	}
	slices.SortFunc(out, func(a, b ReportSummary) int { return cmp.Compare(a.Seq, b.Seq) })
	return out, nil
}

// MaxSeq returns the highest persisted report sequence for a tenant (0
// when none), used to resume numbering after a restart.
func (s *Store) MaxSeq(tenant string) (uint64, error) {
	list, err := s.ListReports(tenant)
	if err != nil || len(list) == 0 {
		return 0, err
	}
	return list[len(list)-1].Seq, nil
}

// GCReports removes the tenant's log segments, the tail included, whose
// newest report was saved (SavedAtUnixNS) before cutoff: one unexpired
// report keeps its whole segment. It returns how many reports no longer
// list. The baseline is never collected — only the window reports
// expire.
func (s *Store) GCReports(tenant string, cutoff time.Time) (int, error) {
	lg := s.lockLog(tenant)
	err := lg.refresh()
	before := len(lg.index)
	for _, seg := range lg.segs {
		if err == nil && seg.newest < cutoff.UnixNano() {
			err = os.Remove(seg.f.Name())
		}
	}
	if err == nil {
		// The removed segments vanished: the index starts over, and a
		// frame one of them superseded counts again.
		err = lg.refresh()
	}
	removed := before - len(lg.index)
	s.unlock(tenant, lg, false)
	if err != nil {
		return removed, fmt.Errorf("serve: gc for %s: %w", tenant, err)
	}
	return removed, nil
}

// DeleteTenant removes everything the store holds for a tenant.
func (s *Store) DeleteTenant(tenant string) error {
	lg := s.lockLog(tenant)
	err := os.RemoveAll(s.tenantDir(tenant))
	s.unlock(tenant, lg, true)
	if err != nil {
		return fmt.Errorf("serve: deleting tenant %s: %w", tenant, err)
	}
	return nil
}

// Close closes the report logs; a later call reopens what it touches.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, lg := range s.logs {
		lg.reset()
	}
	s.logs = make(map[string]*reportLog)
	return nil
}

// lockLog takes the lock and returns the tenant's log, made on first use.
func (s *Store) lockLog(tenant string) *reportLog {
	s.mu.Lock()
	lg := s.logs[tenant]
	if lg == nil {
		lg = &reportLog{dir: s.reportsDir(tenant), parsed: &s.parsed, index: make(map[uint64]frame)}
		s.logs[tenant] = lg
	}
	return lg
}

// unlock releases the lock, closing and forgetting a dropped log or one
// holding no segment.
func (s *Store) unlock(tenant string, lg *reportLog, drop bool) {
	if drop || len(lg.segs) == 0 {
		lg.reset()
		delete(s.logs, tenant)
	}
	s.mu.Unlock()
}

// reset closes the segments (no fsync, so no error to lose) and empties
// the index.
func (lg *reportLog) reset() {
	for _, seg := range lg.segs {
		_ = seg.f.Close()
	}
	lg.segs, lg.tailOK = nil, false
	clear(lg.index)
}

// refresh extends the index from the directory, the source of truth,
// scanning new segments and the grown part of known ones. A known
// segment vanished, shrunk or replaced, or a new one before it, starts
// the index over.
func (lg *reportLog) refresh() error {
	entries, err := os.ReadDir(lg.dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	i := 0 // the next known segment
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			return fmt.Errorf("%s holds %s, a report in the per-file layout; reports are read from segment logs only", lg.dir, e.Name())
		}
		first, perr := strconv.ParseUint(strings.TrimSuffix(e.Name(), ".log"), 10, 64)
		info, err := e.Info()
		if perr != nil || !strings.HasSuffix(e.Name(), ".log") || errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if i < len(lg.segs) {
			if seg := lg.segs[i]; seg.first != first || !os.SameFile(info, seg.info) || info.Size() < seg.end {
				lg.reset()
				return lg.refresh()
			}
		} else {
			f, err := os.OpenFile(filepath.Join(lg.dir, e.Name()), os.O_RDWR|os.O_APPEND, 0)
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if err != nil {
				return err
			}
			lg.segs = append(lg.segs, &segment{first: first, f: f, info: info})
		}
		if err := lg.scan(lg.segs[i], info.Size()); err != nil {
			return err
		}
		i++
	}
	if i < len(lg.segs) {
		lg.reset()
		return lg.refresh()
	}
	return nil
}

// scan indexes seg's whole frames up to size. A frame running past size,
// or a last frame failing its checksum, is torn: skipped, no error.
func (lg *reportLog) scan(seg *segment, size int64) error {
	buf := make([]byte, max(size-seg.end, 0))
	n, err := seg.f.ReadAt(buf, seg.end)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	for buf = buf[:n]; len(buf) >= frameHeader; {
		n := int(binary.LittleEndian.Uint32(buf))
		if len(buf)-frameHeader < n {
			break
		}
		payload := buf[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:]) {
			if len(buf) == frameHeader+n {
				break
			}
			return fmt.Errorf("segment %s: frame at offset %d fails its checksum", seg.f.Name(), seg.end)
		}
		var rec ReportRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("segment %s: frame at offset %d: %w", seg.f.Name(), seg.end, err)
		}
		lg.parsed.Add(1)
		lg.put(rec, frame{seg: seg, off: seg.end, n: uint32(n)})
		seg.end += int64(frameHeader + n)
		buf = buf[frameHeader+n:]
	}
	seg.torn = len(buf) > 0
	return nil
}

// put indexes rec's frame unless a later frame holds its seq.
func (lg *reportLog) put(rec ReportRecord, fr frame) {
	fr.seg.newest = max(fr.seg.newest, rec.SavedAtUnixNS)
	if old, ok := lg.index[rec.Seq]; ok && (old.seg.first > fr.seg.first || old.seg == fr.seg && old.off > fr.off) {
		return
	}
	fr.sum = ReportSummary{
		Seq: rec.Seq, From: rec.From, To: rec.To, Known: len(rec.Report.Known),
		Unknown: len(rec.Report.Unknown), Alarm: len(rec.Report.Unknown) > 0,
	}
	lg.index[rec.Seq] = fr
}

// append writes rec, encoded as data, as one frame and indexes it.
func (lg *reportLog) append(rec ReportRecord, data []byte) error {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, frameHeader+len(data)), uint32(len(data)))
	b = append(binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(data)), data...)
	seg, err := lg.tail(rec.Seq, int64(len(b)))
	if err != nil {
		return err
	}
	_, err = seg.f.Write(b)
	end, serr := seg.f.Seek(0, io.SeekCurrent)
	if err = cmp.Or(err, serr); err != nil {
		lg.tailOK = false // a short write leaves a torn frame to cut
		return err
	}
	if end-int64(len(b)) != seg.end {
		// Another Store appended first: scan its frames and this one.
		return lg.scan(seg, end)
	}
	lg.put(rec, frame{seg: seg, off: seg.end, n: uint32(len(data))})
	seg.end = end
	return nil
}

// tail returns the segment for a frame of size bytes: the last one, cut
// of a torn frame once (again if it was replaced behind this Store), or
// a new one, named for seq but after every older segment.
func (lg *reportLog) tail(seq uint64, size int64) (*segment, error) {
	if lg.tailOK && len(lg.segs) > 0 {
		last := lg.segs[len(lg.segs)-1]
		info, err := os.Stat(last.f.Name())
		lg.tailOK = err == nil && os.SameFile(info, last.info)
	}
	if !lg.tailOK {
		if err := lg.refresh(); err != nil {
			return nil, err
		}
		if n := len(lg.segs); n > 0 && lg.segs[n-1].torn {
			if err := lg.segs[n-1].f.Truncate(lg.segs[n-1].end); err != nil {
				return nil, err
			}
		}
		lg.tailOK = true
	}
	if n := len(lg.segs); n > 0 {
		last := lg.segs[n-1]
		if last.end == 0 || last.end+size <= segmentBytes {
			return last, nil
		}
		seq = max(seq, last.first+1)
	}
	// The new segment sorts last, so the refresh opens it as the tail.
	f, err := os.OpenFile(filepath.Join(lg.dir, fmt.Sprintf("%016d.log", seq)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		err = cmp.Or(f.Close(), lg.refresh())
	}
	if err != nil || len(lg.segs) == 0 {
		return nil, cmp.Or(err, fs.ErrNotExist)
	}
	return lg.segs[len(lg.segs)-1], nil
}
