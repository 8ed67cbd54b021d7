package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
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
//	      0000000000000001.json   one ReportRecord per diagnosed window
//
// Every write is write-ahead: the payload lands in a dot-prefixed temp
// file first and is renamed into place, so a crash mid-write leaves
// either the old content or nothing — never a torn file. Readers skip
// dot-prefixed names.
//
// Store methods are safe for concurrent use across tenants; within one
// tenant the server serializes writes through the tenant's worker.
type Store struct {
	dir string
	// summaries caches ListReports: tenant -> seq -> the report file's
	// size, mtime and summary when last parsed. A published per-tenant
	// map is never mutated, so it is read without mu. deletes counts
	// forgets; a list that raced one does not publish.
	mu        sync.Mutex
	summaries map[string]map[uint64]cachedSummary
	deletes   uint64
	// beforeLoad, when set (tests only), runs before ListReports parses.
	beforeLoad func(seq uint64)
}

// cachedSummary is one report file's summary, valid while the file's
// size and modification time are unchanged.
type cachedSummary struct {
	size, mtimeNS int64
	sum           ReportSummary
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
	return &Store{dir: dir, summaries: make(map[string]map[uint64]cachedSummary)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) tenantDir(tenant string) string {
	return filepath.Join(s.dir, tenant)
}

func (s *Store) reportsDir(tenant string) string {
	return filepath.Join(s.tenantDir(tenant), "reports")
}

// reportName formats a sequence number as a fixed-width, lexically
// sortable file name.
func reportName(seq uint64) string {
	return fmt.Sprintf("%016d.json", seq)
}

// writeFileAtomic writes data to path via a temp file + rename in the
// same directory.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
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
	if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
		return fmt.Errorf("serve: saving baseline for %s: %w", tenant, err)
	}
	path := filepath.Join(dir, "baseline.fdc")
	tmp, err := os.CreateTemp(dir, ".baseline.fdc.tmp*")
	if err != nil {
		return fmt.Errorf("serve: saving baseline for %s: %w", tenant, err)
	}
	tmpName := tmp.Name()
	if err := colseg.Write(tmp, log, colseg.WriterOptions{}); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("serve: saving baseline for %s: %w", tenant, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: saving baseline for %s: %w", tenant, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: saving baseline for %s: %w", tenant, err)
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: saving baseline for %s: %w", tenant, err)
	}
	if err := writeFileAtomic(filepath.Join(dir, "baseline.json"), data); err != nil {
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

// SaveReport persists one window diagnosis.
func (s *Store) SaveReport(tenant string, rec ReportRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: saving report %d for %s: %w", rec.Seq, tenant, err)
	}
	path := filepath.Join(s.reportsDir(tenant), reportName(rec.Seq))
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("serve: saving report %d for %s: %w", rec.Seq, tenant, err)
	}
	return nil
}

// LoadReport reads one persisted window diagnosis.
func (s *Store) LoadReport(tenant string, seq uint64) (ReportRecord, error) {
	var rec ReportRecord
	data, err := os.ReadFile(filepath.Join(s.reportsDir(tenant), reportName(seq)))
	if errors.Is(err, fs.ErrNotExist) {
		return rec, fmt.Errorf("serve: report %d for %s: %w", seq, tenant, ErrNotFound)
	}
	if err != nil {
		return rec, fmt.Errorf("serve: loading report %d for %s: %w", seq, tenant, err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("serve: loading report %d for %s: %w", seq, tenant, err)
	}
	return rec, nil
}

// ListReports summarizes a tenant's persisted reports in sequence
// order. A missing tenant directory lists as empty, not as an error —
// a registered tenant may simply not have flushed yet.
//
// The directory is the authority: each call reads it, stats every
// report, and parses one only when its seq is uncached or its size or
// mtime changed, so a write by any Store or process is seen (stat
// before parse: a rewrite in between is parsed again next time). A
// report removed after the directory read (a concurrent GC) is skipped.
func (s *Store) ListReports(tenant string) ([]ReportSummary, error) {
	s.mu.Lock()
	cached, deletes := s.summaries[tenant], s.deletes
	s.mu.Unlock()
	entries, err := os.ReadDir(s.reportsDir(tenant))
	if errors.Is(err, fs.ErrNotExist) {
		s.forget(tenant)
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: listing reports for %s: %w", tenant, err)
	}
	seen := make(map[uint64]cachedSummary, len(entries))
	var out []ReportSummary
	for _, e := range entries {
		seq, ok := parseReportName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("serve: listing reports for %s: %w", tenant, err)
		}
		c, ok := cached[seq]
		if !ok || c.size != info.Size() || c.mtimeNS != info.ModTime().UnixNano() {
			if s.beforeLoad != nil {
				s.beforeLoad(seq)
			}
			rec, err := s.LoadReport(tenant, seq)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, err
			}
			c = cachedSummary{info.Size(), info.ModTime().UnixNano(), ReportSummary{
				Seq: rec.Seq, From: rec.From, To: rec.To, Known: len(rec.Report.Known),
				Unknown: len(rec.Report.Unknown), Alarm: len(rec.Report.Unknown) > 0,
			}}
		}
		seen[seq] = c
		out = append(out, c.sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	s.mu.Lock()
	if s.deletes == deletes {
		s.summaries[tenant] = seen
	}
	s.mu.Unlock()
	return out, nil
}

// forget drops a tenant's cached report summaries.
func (s *Store) forget(tenant string) {
	s.mu.Lock()
	delete(s.summaries, tenant)
	s.deletes++
	s.mu.Unlock()
}

// MaxSeq returns the highest persisted report sequence for a tenant (0
// when none), used to resume numbering after a restart.
func (s *Store) MaxSeq(tenant string) (uint64, error) {
	entries, err := os.ReadDir(s.reportsDir(tenant))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: scanning reports for %s: %w", tenant, err)
	}
	var max uint64
	for _, e := range entries {
		if seq, ok := parseReportName(e.Name()); ok && seq > max {
			max = seq
		}
	}
	return max, nil
}

// parseReportName extracts the sequence number from a report file name.
func parseReportName(name string) (uint64, bool) {
	if len(name) != len("0000000000000000.json") || filepath.Ext(name) != ".json" {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[:16], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// GCReports removes a tenant's reports persisted before cutoff, by file
// modification time. That is wall-clock time while the server's cutoff
// comes from its registry clock, so it matches ReportRecord.SavedAtUnixNS
// only under the real clock. It returns how many files were removed. The
// baseline is never collected — only the window reports expire.
func (s *Store) GCReports(tenant string, cutoff time.Time) (int, error) {
	entries, err := os.ReadDir(s.reportsDir(tenant))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: gc for %s: %w", tenant, err)
	}
	removed := 0
	for _, e := range entries {
		if _, ok := parseReportName(e.Name()); !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.ModTime().Before(cutoff) {
			if err := os.Remove(filepath.Join(s.reportsDir(tenant), e.Name())); err == nil {
				removed++
			}
		}
	}
	return removed, nil
}

// DeleteTenant removes everything the store holds for a tenant.
func (s *Store) DeleteTenant(tenant string) error {
	err := os.RemoveAll(s.tenantDir(tenant))
	s.forget(tenant)
	if err != nil {
		return fmt.Errorf("serve: deleting tenant %s: %w", tenant, err)
	}
	return nil
}
