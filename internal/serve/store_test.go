package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// logFrame is one whole frame of a report log segment.
type logFrame struct {
	path string
	off  int64
	n    int  // payload length
	last bool // the segment's last frame
	rec  ReportRecord
}

// readLogReference reads every segment of a report log whole, in name
// order, and decodes every frame: the reference the Store's incremental
// index is held to. A frame running past its segment's end, or a
// segment's last frame failing its checksum, is a torn tail; any other
// bad frame is an error.
func readLogReference(dir string) ([]logFrame, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var frames []logFrame
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for off := 0; off+frameHeader <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			end := off + frameHeader + n
			if end > len(data) {
				break
			}
			payload := data[off+frameHeader : end]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
				if end == len(data) {
					break
				}
				return nil, fmt.Errorf("%s: bad frame at offset %d", path, off)
			}
			var rec ReportRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return nil, fmt.Errorf("%s: frame at offset %d: %w", path, off, err)
			}
			frames = append(frames, logFrame{path, int64(off), n, end == len(data), rec})
			off = end
		}
	}
	return frames, nil
}

// latestFrames maps each seq to its winning frame: the last one read.
func latestFrames(frames []logFrame) map[uint64]logFrame {
	latest := make(map[uint64]logFrame)
	for _, f := range frames {
		latest[f.rec.Seq] = f
	}
	return latest
}

// listReportsReference decodes every frame of the tenant's log and
// summarizes the latest frame of each seq. It is the oracle the indexed
// list is held to.
func listReportsReference(s *Store, tenant string) ([]ReportSummary, error) {
	frames, err := readLogReference(s.reportsDir(tenant))
	if err != nil {
		return nil, err
	}
	var out []ReportSummary
	for _, f := range latestFrames(frames) {
		rec := f.rec
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

// gcReference counts the reports a GC at cutoff removes: those all of
// whose frames sit in segments that every frame was saved before cutoff.
func gcReference(t *testing.T, s *Store, tenant string, cutoff int64) int {
	t.Helper()
	frames, err := readLogReference(s.reportsDir(tenant))
	if err != nil {
		t.Fatal(err)
	}
	newest := make(map[string]int64)
	for _, f := range frames {
		newest[f.path] = max(newest[f.path], f.rec.SavedAtUnixNS)
	}
	kept := make(map[uint64]bool)
	for _, f := range frames {
		kept[f.rec.Seq] = kept[f.rec.Seq] || newest[f.path] >= cutoff
	}
	removed := 0
	for _, k := range kept {
		if !k {
			removed++
		}
	}
	return removed
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
	t.Cleanup(func() { s.Close() })
	return s
}

// indexedTenant reports whether the store holds a report log (index
// and open segments) for tenant.
func indexedTenant(s *Store, tenant string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.logs[tenant]
	return ok
}

// flipByte inverts one byte of a file in place.
func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// TestListReportsCoherent holds the indexed ListReports to the decode-
// every-frame reference across a seeded sequence of every way a report
// log changes: saves through this store and through a second one, GC,
// a later frame for a saved seq, tenant deletion and re-creation with
// reused seqs, and a flipped byte in a frame. After each step the list
// must equal the reference (or fail exactly when it fails), and a
// second list must parse no frame.
func TestListReportsCoherent(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	other := openTestStore(t, dir)
	const tenant = "t"

	check := func(st *Store, step int, op string) error {
		t.Helper()
		want, wantErr := listReportsReference(s, tenant)
		got, err := st.ListReports(tenant)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("step %d (%s): ListReports err = %v, reference err = %v", step, op, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): ListReports = %+v, reference = %+v", step, op, got, want)
		}
		if err != nil {
			return err
		}
		parsed := st.parsed.Load()
		if _, err := st.ListReports(tenant); err != nil || st.parsed.Load() != parsed {
			t.Fatalf("step %d (%s): warm list parsed %d frames (err %v), want 0", step, op, st.parsed.Load()-parsed, err)
		}
		return nil
	}
	frames := func() []logFrame {
		t.Helper()
		frames, err := readLogReference(s.reportsDir(tenant))
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}
	// save requires the report in the log once SaveReport returns: a
	// store whose tail another one removed must not append to it.
	save := func(st *Store, seq uint64, rng *rand.Rand) {
		t.Helper()
		rec := testRecord(seq, rng.Intn(4), rng.Intn(3))
		if err := st.SaveReport(tenant, rec); err != nil {
			t.Fatalf("SaveReport %d: %v", seq, err)
		}
		if f, ok := latestFrames(frames())[seq]; !ok || !reflect.DeepEqual(f.rec, rec) {
			t.Fatalf("SaveReport %d returned, but the log does not hold it", seq)
		}
	}

	check(s, -1, "no tenant directory")
	if indexedTenant(s, tenant) {
		t.Fatal("a list that found no reports directory left an index entry")
	}
	if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	next := uint64(1)
	for step := 0; step < 120; step++ {
		op := []string{"save", "save", "save other", "gc", "rewrite", "delete", "corrupt"}[rng.Intn(7)]
		latest := latestFrames(frames())
		switch op {
		case "save":
			save(s, next, rng)
			next++
		case "save other":
			save(other, next, rng)
			next++
		case "gc":
			// testRecord saves seq n at n ns: expire a random prefix.
			cutoff := int64(rng.Intn(int(next) + 1))
			want := gcReference(t, s, tenant, cutoff)
			removed, err := s.GCReports(tenant, time.Unix(0, cutoff))
			if err != nil || removed != want {
				t.Fatalf("step %d: GCReports removed %d (err %v), want %d", step, removed, err, want)
			}
		case "rewrite":
			if len(latest) == 0 {
				continue
			}
			var seqs []uint64
			for seq := range latest {
				seqs = append(seqs, seq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			// A later frame for the same seq, with one more known change.
			rec := latest[seqs[rng.Intn(len(seqs))]].rec
			if err := other.SaveReport(tenant, testRecord(rec.Seq, len(rec.Report.Known)+1, len(rec.Report.Unknown))); err != nil {
				t.Fatalf("rewriting report %d: %v", rec.Seq, err)
			}
		case "delete":
			// Through either store: the other one, listing only after the
			// re-creation, finds its segments replaced under the same names.
			st := []*Store{s, other}[rng.Intn(2)]
			if err := st.DeleteTenant(tenant); err != nil {
				t.Fatal(err)
			}
			if indexedTenant(st, tenant) {
				t.Fatalf("step %d: an index entry outlived DeleteTenant", step)
			}
			check(st, step, "deleted")
			if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
				t.Fatal(err)
			}
			// Re-create the tenant reusing the old seqs.
			for seq := uint64(1); seq <= uint64(len(latest)); seq++ {
				save(st, seq, rng)
			}
			next = uint64(len(latest)) + 1
		case "corrupt":
			all := frames()
			if len(all) == 0 {
				continue
			}
			f := all[rng.Intn(len(all))]
			at := f.off + frameHeader + int64(rng.Intn(f.n))
			flipByte(t, f.path, at)
			// The warm index does not reread frames it holds; a store that
			// reads the log afresh must fail where the reference fails,
			// or skip a torn last frame as the reference does.
			err := check(openTestStore(t, dir), step, op)
			if !f.last && (err == nil || !strings.Contains(err.Error(), f.path) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", f.off))) {
				t.Fatalf("step %d: corrupt frame at %s offset %d: list err = %v, want one naming both", step, f.path, f.off, err)
			}
			flipByte(t, f.path, at)
		}
		check(s, step, op)
	}
	if err := s.DeleteTenant(tenant); err != nil {
		t.Fatal(err)
	}
	if indexedTenant(s, tenant) {
		t.Error("an index entry outlived DeleteTenant")
	}
}

// TestListReportsCoherentConcurrent runs lists, saves through two
// stores, GC and tenant deletion concurrently on two tenants (run it
// under -race). No list may fail — a segment collected mid-list is left
// out, not an error — and once the writers stop, the indexed list
// equals the reference and deleting both tenants empties the index.
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
	if len(s.logs) != 0 {
		t.Errorf("%d tenants still indexed after deleting every tenant", len(s.logs))
	}
}

// bigRecord is a report of about 200 KB: some twenty fill a segment.
func bigRecord(seq uint64) ReportRecord { return testRecord(seq, 1500, 1) }

// fillSegments saves big records 1, 2, ... until the tenant's log has
// the given number of segments, calling each (when set) after every
// save, and returns the log's frames.
func fillSegments(t *testing.T, s *Store, tenant string, segments int, each func(seq uint64)) []logFrame {
	t.Helper()
	if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); ; seq++ {
		if err := s.SaveReport(tenant, bigRecord(seq)); err != nil {
			t.Fatal(err)
		}
		if each != nil {
			each(seq)
		}
		entries, err := os.ReadDir(s.reportsDir(tenant))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == segments {
			frames, err := readLogReference(s.reportsDir(tenant))
			if err != nil {
				t.Fatal(err)
			}
			return frames
		}
	}
}

// TestReportLogRollsSegments: a full segment rolls to one named for the
// first seq it holds; a later frame for a seq wins across segments, in
// (segment, offset) order even when a second writer appends to an older
// segment; and GC goes a segment at a time, by the newest SavedAtUnixNS
// it holds.
func TestReportLogRollsSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	other := openTestStore(t, dir)
	const tenant = "t"
	frames := fillSegments(t, s, tenant, 2, func(seq uint64) {
		if seq == 1 {
			// other's tail is now the first segment, and stays so.
			if err := other.SaveReport(tenant, bigRecord(1)); err != nil {
				t.Fatal(err)
			}
		}
	})
	first := make(map[string]uint64)
	for _, f := range frames {
		if _, ok := first[f.path]; !ok {
			first[f.path] = f.rec.Seq
		}
	}
	for path, seq := range first {
		if want := fmt.Sprintf("%016d.log", seq); filepath.Base(path) != want {
			t.Errorf("segment %s holds seq %d first, want it named %s", path, seq, want)
		}
	}
	for _, f := range frames {
		if f.off+int64(frameHeader+f.n) > segmentBytes && f.off > 0 {
			t.Errorf("segment %s grew past %d bytes", f.path, segmentBytes)
		}
	}
	// Seq 1 again, from the tail segment.
	if err := s.SaveReport(tenant, testRecord(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	list := func(st *Store) []ReportSummary {
		t.Helper()
		want, err := listReportsReference(s, tenant)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.ListReports(tenant)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ListReports = %+v (%v), reference %+v", got, err, want)
		}
		return got
	}
	if got := list(s); got[0].Known != 2 || got[0].Unknown != 0 {
		t.Errorf("seq 1 after a later frame = %+v, want the later frame's summary", got[0])
	}
	// other appends seq 2 to the first segment, behind its frame in the
	// tail: the tail's frame still wins, in a warm list and a cold one.
	if err := other.SaveReport(tenant, testRecord(2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveReport(tenant, testRecord(2, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := other.SaveReport(tenant, testRecord(2, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if got := list(s); got[1].Known != 4 {
		t.Errorf("seq 2 = %+v, want the tail segment's frame", got[1])
	}
	list(openTestStore(t, dir))
	// The first segment expires. Seqs 1 and 2 have frames in the tail,
	// so they stay listed; the rest of the first segment's reports go.
	var newest int64
	for _, f := range frames {
		if f.path == frames[0].path {
			newest = max(newest, f.rec.SavedAtUnixNS)
		}
	}
	want, before := gcReference(t, s, tenant, newest+1), len(list(s))
	removed, err := s.GCReports(tenant, time.Unix(0, newest+1))
	if err != nil || removed != want || want == 0 {
		t.Fatalf("GCReports past the first segment removed %d (err %v), want %d", removed, err, want)
	}
	if got := list(s); len(got) != before-removed || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("after GC: %d of %d reports listed, from seq %d", len(got), before, got[0].Seq)
	}
}

// TestListReportsSkipsReportRemovedMidList: a segment another Store
// collects between two lists drops out of the next one; the list does
// not fail (a report collected under a list used to answer GET
// /reports with a 500).
func TestListReportsSkipsReportRemovedMidList(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	other := openTestStore(t, dir)
	const tenant = "t"
	frames := fillSegments(t, s, tenant, 2, nil)
	if got, err := s.ListReports(tenant); err != nil || len(got) != len(frames) {
		t.Fatalf("ListReports = %d reports (err %v), want %d", len(got), err, len(frames))
	}
	var kept []uint64
	newest := uint64(0)
	for _, f := range frames {
		if f.path == frames[0].path {
			newest = f.rec.Seq
		} else {
			kept = append(kept, f.rec.Seq)
		}
	}
	if _, err := other.GCReports(tenant, time.Unix(0, int64(newest)+1)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ListReports(tenant)
	if err != nil {
		t.Fatalf("ListReports with a segment removed by another store: %v", err)
	}
	var seqs []uint64
	for _, sum := range got {
		seqs = append(seqs, sum.Seq)
	}
	if !reflect.DeepEqual(seqs, kept) {
		t.Errorf("ListReports = seqs %v, want %v", seqs, kept)
	}
	if _, err := s.LoadReport(tenant, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("LoadReport of a collected report: err %v, want ErrNotFound", err)
	}
}

// TestReportLogTornTail cuts the last frame of a log at every byte
// offset, and separately flips a byte in it: a fresh store lists the
// reports before it, and its next save truncates the torn frame and
// appends cleanly.
func TestReportLogTornTail(t *testing.T) {
	const tenant, n = "t", 3
	src := openTestStore(t, t.TempDir())
	if err := os.MkdirAll(src.reportsDir(tenant), 0o755); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if err := src.SaveReport(tenant, testRecord(seq, 0, int(seq%2))); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := readLogReference(src.reportsDir(tenant))
	if err != nil || len(frames) != n {
		t.Fatalf("reference read %d frames (err %v), want %d", len(frames), err, n)
	}
	data, err := os.ReadFile(frames[0].path)
	if err != nil {
		t.Fatal(err)
	}
	last := frames[n-1]
	flipped := bytes.Clone(data)
	flipped[len(flipped)-1] ^= 0xff
	type tail struct {
		name string
		data []byte
	}
	tails := []tail{{"checksum", flipped}}
	for cut := last.off; cut < int64(len(data)); cut++ {
		tails = append(tails, tail{fmt.Sprintf("cut at %d", cut), data[:cut]})
	}
	for _, tl := range tails {
		name, torn := tl.name, tl.data
		dir := t.TempDir()
		s := openTestStore(t, dir)
		if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(s.reportsDir(tenant), filepath.Base(last.path)), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := s.ListReports(tenant); err != nil || len(got) != n-1 {
			t.Fatalf("%s: ListReports = %d reports (err %v), want %d", name, len(got), err, n-1)
		}
		if err := s.SaveReport(tenant, testRecord(n+1, 1, 1)); err != nil {
			t.Fatalf("%s: SaveReport after a torn tail: %v", name, err)
		}
		want, err := listReportsReference(s, tenant)
		if err != nil {
			t.Fatalf("%s: reference after the next save: %v", name, err)
		}
		got, err := openTestStore(t, dir).ListReports(tenant)
		if err != nil || len(got) != n || got[n-1].Seq != n+1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after the next save ListReports = %+v (err %v), want seqs 1..%d and %d", name, got, err, n-1, n+1)
		}
		s.Close()
	}
}

// TestListReportsFailsOnCorruptFrame: a frame that fails its checksum
// and is not its segment's last fails the list, and the error names the
// segment and the offset.
func TestListReportsFailsOnCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	const tenant = "t"
	s := openTestStore(t, dir)
	if err := os.MkdirAll(s.reportsDir(tenant), 0o755); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.SaveReport(tenant, testRecord(seq, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := readLogReference(s.reportsDir(tenant))
	if err != nil {
		t.Fatal(err)
	}
	bad := frames[1]
	flipByte(t, bad.path, bad.off+frameHeader+int64(bad.n/2))
	_, err = openTestStore(t, dir).ListReports(tenant)
	if err == nil || !strings.Contains(err.Error(), bad.path) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", bad.off)) {
		t.Errorf("ListReports over a corrupt frame: err %v, want one naming %s and offset %d", err, bad.path, bad.off)
	}
	if _, err := s.LoadReport(tenant, 2); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("LoadReport of a corrupt frame: err %v, want a checksum failure", err)
	}
}

// TestRecoveryRejectsPerFileLayout: a reports directory holding a
// report file of the old per-file layout fails that tenant's recovery
// with an error naming the layout; the other tenants come back.
func TestRecoveryRejectsPerFileLayout(t *testing.T) {
	res := capture(t)
	dir := filepath.Join(t.TempDir(), "data")
	store := openTestStore(t, dir)
	persistTenant(t, store, "old", res.L1, 0)
	persistTenant(t, store, "new", res.L1, 2)
	if err := os.WriteFile(filepath.Join(store.reportsDir("old"), "0000000000000001.json"), []byte(`{"seq": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openTestStore(t, dir).MaxSeq("old"); err == nil || !strings.Contains(err.Error(), "per-file layout") {
		t.Errorf("MaxSeq over the per-file layout: err %v, want one naming the layout", err)
	}
	reg := obs.New()
	srv, err := New(context.Background(), Config{Dir: dir, Window: 10 * time.Second, Options: res.Options(), Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if _, ok := srv.tenant("old"); ok {
		t.Error("a tenant in the per-file layout was recovered")
	}
	if tn, ok := srv.tenant("new"); !ok || tn.nextSeq != 2 {
		t.Error("the tenant in the log layout was not recovered with its numbering")
	}
	if got := reg.Counter("serve.recover.errors").Value(); got != 1 {
		t.Errorf("serve.recover.errors = %d, want 1", got)
	}
}

// TestListReportsWarmAllocCeiling pins the indexed list: a warm list of
// 300 reports reads the directory, stats one segment and copies the
// summaries out of the index, parsing no frame. The ceiling sits far
// below what a cold list (which parses every frame) costs, and the
// test checks that too.
func TestListReportsWarmAllocCeiling(t *testing.T) {
	const reports = 300
	const ceiling = 32
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
	parsed := s.parsed.Load()
	warm := testing.AllocsPerRun(10, func() { list(s) })
	if n := s.parsed.Load() - parsed; n != 0 {
		t.Errorf("warm lists parsed %d frames, want 0", n)
	}
	cold := testing.AllocsPerRun(3, func() {
		st := openTestStore(t, dir)
		list(st)
		st.Close()
	})
	t.Logf("warm list: %.0f allocs; cold: %.0f (%.2f per report)", warm, cold, cold/reports)
	if warm > ceiling {
		t.Errorf("warm ListReports of %d reports = %.0f allocs, ceiling %d", reports, warm, ceiling)
	}
	if cold <= ceiling {
		t.Errorf("cold ListReports = %.0f allocs, under the warm ceiling %d: the ceiling no longer tells an indexed list from a parsing one", cold, ceiling)
	}
}

// openFDs counts the process's open file descriptors on files under
// dir (other tests' unclosed files come and go with the collector).
func openFDs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, e := range entries {
		if path, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(path, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestServerReleasesReportLogs: a server's life of tenant creation,
// flushes and deletion leaves no file under its directory open once
// Close returns, and no index entry outlives a deleted tenant.
func TestServerReleasesReportLogs(t *testing.T) {
	res := capture(t)
	dir := filepath.Join(t.TempDir(), "data")
	srv, err := New(context.Background(), Config{
		Dir:         dir,
		Window:      10 * time.Second,
		Options:     res.Options(),
		QueueBudget: len(res.L2.Events) + 1,
		Registry:    obs.New(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	call := func(method, path string, body []byte, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, rec.Code, want, rec.Body)
		}
	}
	events := logBody(t, &flowlog.Log{Events: res.L2.Events})
	for round := 0; round < 3; round++ {
		for _, id := range []string{"a", "b"} {
			call(http.MethodPut, "/v1/tenants/"+id+"/baseline", logBody(t, res.L1), http.StatusCreated)
			call(http.MethodPost, "/v1/tenants/"+id+"/events", events, http.StatusAccepted)
			call(http.MethodPost, "/v1/tenants/"+id+"/flush", nil, http.StatusOK)
			call(http.MethodGet, "/v1/tenants/"+id+"/reports", nil, http.StatusOK)
		}
		call(http.MethodDelete, "/v1/tenants/a", nil, http.StatusNoContent)
		if indexedTenant(srv.store, "a") {
			t.Fatalf("round %d: an index entry outlived DELETE", round)
		}
		if !indexedTenant(srv.store, "b") {
			t.Fatalf("round %d: a live tenant with reports holds no index", round)
		}
		call(http.MethodDelete, "/v1/tenants/b", nil, http.StatusNoContent)
	}
	call(http.MethodPut, "/v1/tenants/c/baseline", logBody(t, res.L1), http.StatusCreated)
	call(http.MethodPost, "/v1/tenants/c/events", events, http.StatusAccepted)
	call(http.MethodPost, "/v1/tenants/c/flush", nil, http.StatusOK)
	if dir, err = filepath.EvalSymlinks(dir); err != nil {
		t.Fatal(err)
	}
	if open := openFDs(t, dir); open == 0 {
		t.Fatal("a live tenant with reports holds no open segment: the probe sees nothing")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if open := openFDs(t, dir); open != 0 {
		t.Errorf("%d files under the server's directory still open after Close", open)
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
