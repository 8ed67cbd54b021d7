package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"flowdiff"
)

// listReportsReference is ListReports before the summary cache: read
// the directory, parse every report file, fail on the first error. It
// is the oracle the cached list is held to.
func listReportsReference(s *Store, tenant string) ([]ReportSummary, error) {
	entries, err := os.ReadDir(s.reportsDir(tenant))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: listing reports for %s: %w", tenant, err)
	}
	var out []ReportSummary
	for _, e := range entries {
		seq, ok := parseReportName(e.Name())
		if !ok {
			continue
		}
		rec, err := s.LoadReport(tenant, seq)
		if err != nil {
			return nil, err
		}
		out = append(out, ReportSummary{
			Seq:     rec.Seq,
			From:    rec.From,
			To:      rec.To,
			Known:   len(rec.Report.Known),
			Unknown: len(rec.Report.Unknown),
			Alarm:   len(rec.Report.Unknown) > 0,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// testRecord builds a report record with known/unknown changes shaped
// like a real diagnosis, so its JSON decodes with realistic allocation.
func testRecord(seq uint64, known, unknown int) ReportRecord {
	change := func(i int) flowdiff.Change {
		return flowdiff.Change{
			Kind:        "DD",
			Group:       fmt.Sprintf("g%d", i),
			Description: fmt.Sprintf("delay distribution of group g%d shifted", i),
			Components:  []string{"S1", fmt.Sprintf("H%d", i)},
			Before:      1.5,
			After:       float64(i) + 2.25,
			At:          time.Duration(seq) * time.Second,
		}
	}
	rec := ReportRecord{
		Seq:           seq,
		From:          time.Duration(seq) * 10 * time.Second,
		To:            time.Duration(seq+1) * 10 * time.Second,
		SavedAtUnixNS: int64(seq),
	}
	for i := 0; i < known; i++ {
		rec.Report.Known = append(rec.Report.Known, change(i))
	}
	for i := 0; i < unknown; i++ {
		rec.Report.Unknown = append(rec.Report.Unknown, change(known+i))
	}
	return rec
}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// cachedTenant reports whether the store holds a summary cache entry
// for tenant.
func cachedTenant(s *Store, tenant string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.summaries[tenant]
	return ok
}

// TestListReportsCoherent holds the cached ListReports to the parse-
// everything reference across a seeded sequence of every way the
// reports directory changes: saves through this store and through a
// second one, GC, out-of-band rewrites, tenant deletion and re-creation
// with reused seqs, and corrupt files. After each step the cached list
// must equal the reference (or fail exactly when it fails), and a
// second list must parse nothing.
func TestListReportsCoherent(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	other := openTestStore(t, dir)
	const tenant = "t"
	loads := 0
	s.beforeLoad = func(uint64) { loads++ }

	check := func(step int, op string) {
		t.Helper()
		want, wantErr := listReportsReference(s, tenant)
		got, err := s.ListReports(tenant)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("step %d (%s): ListReports err = %v, reference err = %v", step, op, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): ListReports = %+v, reference = %+v", step, op, got, want)
		}
		if err != nil {
			return
		}
		loads = 0
		if _, err := s.ListReports(tenant); err != nil || loads != 0 {
			t.Fatalf("step %d (%s): warm list parsed %d files (err %v), want 0", step, op, loads, err)
		}
	}
	// existing returns the tenant's report seqs on disk, in order.
	existing := func() []uint64 {
		entries, _ := os.ReadDir(s.reportsDir(tenant))
		var seqs []uint64
		for _, e := range entries {
			if seq, ok := parseReportName(e.Name()); ok {
				seqs = append(seqs, seq)
			}
		}
		return seqs
	}
	save := func(st *Store, seq uint64, rng *rand.Rand) {
		t.Helper()
		if err := st.SaveReport(tenant, testRecord(seq, rng.Intn(4), rng.Intn(3))); err != nil {
			t.Fatalf("SaveReport %d: %v", seq, err)
		}
	}
	// grow rewrites seq out of band with one more known change than it
	// holds now (a different size, so the change is visible to a stat).
	grow := func(seq uint64, known, unknown int) {
		t.Helper()
		if err := other.SaveReport(tenant, testRecord(seq, known+1, unknown)); err != nil {
			t.Fatalf("rewriting report %d: %v", seq, err)
		}
	}

	check(-1, "no tenant directory")
	if cachedTenant(s, tenant) {
		t.Fatal("a list that found no reports directory left a cache entry")
	}
	if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	next := uint64(1)
	for step := 0; step < 120; step++ {
		op := []string{"save", "save", "save other", "gc", "rewrite", "delete", "corrupt"}[rng.Intn(7)]
		seqs := existing()
		switch op {
		case "save":
			save(s, next, rng)
			next++
		case "save other":
			save(other, next, rng)
			next++
		case "gc":
			old := time.Now().Add(-2 * time.Hour)
			aged := 0
			for _, seq := range seqs {
				if rng.Intn(3) == 0 {
					path := filepath.Join(s.reportsDir(tenant), reportName(seq))
					if err := os.Chtimes(path, old, old); err != nil {
						t.Fatal(err)
					}
					aged++
				}
			}
			removed, err := s.GCReports(tenant, time.Now().Add(-time.Hour))
			if err != nil || removed != aged {
				t.Fatalf("step %d: GCReports removed %d (err %v), want %d", step, removed, err, aged)
			}
		case "rewrite":
			if len(seqs) == 0 {
				continue
			}
			seq := seqs[rng.Intn(len(seqs))]
			rec, err := s.LoadReport(tenant, seq)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			grow(seq, len(rec.Report.Known), len(rec.Report.Unknown))
		case "delete":
			if err := s.DeleteTenant(tenant); err != nil {
				t.Fatal(err)
			}
			if cachedTenant(s, tenant) {
				t.Fatalf("step %d: a cache entry outlived DeleteTenant", step)
			}
			check(step, "deleted")
			if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
				t.Fatal(err)
			}
			// Re-create the tenant reusing the old seqs.
			for seq := uint64(1); seq <= uint64(len(seqs)); seq++ {
				save(s, seq, rng)
			}
			next = uint64(len(seqs)) + 1
		case "corrupt":
			if len(seqs) == 0 {
				continue
			}
			seq := seqs[rng.Intn(len(seqs))]
			rec, err := s.LoadReport(tenant, seq)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			path := filepath.Join(s.reportsDir(tenant), reportName(seq))
			if err := os.WriteFile(path, []byte(`{"seq": 1, "report": {`), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := listReportsReference(s, tenant); err == nil {
				t.Fatalf("step %d: reference listed a corrupt report", step)
			}
			check(step, op)
			grow(seq, len(rec.Report.Known), len(rec.Report.Unknown))
		}
		check(step, op)
	}
	if err := s.DeleteTenant(tenant); err != nil {
		t.Fatal(err)
	}
	if cachedTenant(s, tenant) {
		t.Error("a cache entry outlived DeleteTenant")
	}
}

// TestListReportsCoherentConcurrent runs lists, saves through two
// stores, GC and tenant deletion concurrently on two tenants (run it
// under -race). No list may fail — a report collected mid-list is left
// out, not an error — and once the writers stop, the cached list equals
// the reference and deleting both tenants empties the cache.
func TestListReportsCoherentConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	other := openTestStore(t, dir)
	tenants := []string{"a", "b"}
	const rounds = 60
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants))
	for i, tenant := range tenants {
		if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
			t.Fatal(err)
		}
		wg.Add(4)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := s.ListReports(tenant); err != nil {
					errs <- err
					return
				}
			}
		}()
		for w, st := range []*Store{s, other} {
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					// Saves racing a delete may find no directory.
					_ = st.SaveReport(tenant, testRecord(uint64(2*r+w+1), r%3, (r+i)%2))
				}
			}()
		}
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch r % 20 {
				case 10:
					_, _ = s.GCReports(tenant, time.Now().Add(time.Hour))
				case 19:
					_ = s.DeleteTenant(tenant)
					_ = os.MkdirAll(s.reportsDir(tenant), 0o755)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent ListReports: %v", err)
	}
	for _, tenant := range tenants {
		want, wantErr := listReportsReference(s, tenant)
		got, err := s.ListReports(tenant)
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %s after the race: ListReports = %+v (%v), reference = %+v (%v)", tenant, got, err, want, wantErr)
		}
		if err := s.DeleteTenant(tenant); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.summaries) != 0 {
		t.Errorf("%d tenants still cached after deleting every tenant", len(s.summaries))
	}
}

// TestListReportsSkipsReportRemovedMidList: a report GC removes between
// the directory read and its load is not part of the listing; the list
// does not fail (it used to, and GET /reports answered 500).
func TestListReportsSkipsReportRemovedMidList(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	const tenant = "t"
	if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.SaveReport(tenant, testRecord(seq, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.beforeLoad = func(seq uint64) {
		if seq == 2 {
			if err := os.Remove(filepath.Join(s.reportsDir(tenant), reportName(seq))); err != nil {
				t.Error(err)
			}
		}
	}
	got, err := s.ListReports(tenant)
	if err != nil {
		t.Fatalf("ListReports with a report removed mid-list: %v", err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 {
		t.Errorf("ListReports = %+v, want seqs 1 and 3", got)
	}
}

// TestListReportsWarmAllocCeiling pins the cached list: a warm list of
// 300 reports costs a directory read and a stat per file, a few
// allocations each, and never a parse — the ceiling sits far below what
// a cold list (which parses every file) costs, and the test checks that
// too.
func TestListReportsWarmAllocCeiling(t *testing.T) {
	const reports = 300
	const ceiling = 8 * reports
	dir := t.TempDir()
	s := openTestStore(t, dir)
	const tenant = "t"
	if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= reports; seq++ {
		if err := s.SaveReport(tenant, testRecord(seq, int(seq%4), int(seq%3))); err != nil {
			t.Fatal(err)
		}
	}
	list := func(st *Store) {
		got, err := st.ListReports(tenant)
		if err != nil || len(got) != reports {
			t.Fatalf("ListReports: %d reports, err %v", len(got), err)
		}
	}
	warm := testing.AllocsPerRun(10, func() { list(s) })
	cold := testing.AllocsPerRun(3, func() { list(openTestStore(t, dir)) })
	t.Logf("warm list: %.0f allocs (%.2f per report); cold: %.0f (%.2f per report)", warm, warm/reports, cold, cold/reports)
	if warm > ceiling {
		t.Errorf("warm ListReports of %d reports = %.0f allocs, ceiling %d", reports, warm, ceiling)
	}
	if cold <= ceiling {
		t.Errorf("cold ListReports = %.0f allocs, under the warm ceiling %d: the ceiling no longer tells a cached list from a parsing one", cold, ceiling)
	}
}

// TestRunGCCountsTenantListError: a GC pass that cannot list the
// tenants removes nothing and says so in serve.gc.errors.
func TestRunGCCountsTenantListError(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	if err := os.RemoveAll(srv.store.Dir()); err != nil {
		t.Fatal(err)
	}
	if removed := srv.RunGC(); removed != 0 {
		t.Errorf("RunGC over a missing store directory removed %d", removed)
	}
	if got := srv.reg.Counter("serve.gc.errors").Value(); got != 1 {
		t.Errorf("serve.gc.errors = %d, want 1", got)
	}
}
