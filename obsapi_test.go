// Tests for the context-aware public API and its observability
// contracts: sentinel errors wrap as documented, a canceled build
// drains its worker pool, obs counters are deterministic across worker
// counts, and instrumentation never changes the report.
package flowdiff_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// taskRuns builds three runs of a toy two-flow task for mining tests.
func taskRuns() [][]flowdiff.FlowKey {
	host := func(n byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 9, n, 1}) }
	mk := func(sp uint16) []flowdiff.FlowKey {
		return []flowdiff.FlowKey{
			{Proto: 6, Src: host(1), Dst: host(2), SrcPort: sp, DstPort: 80},
			{Proto: 6, Src: host(2), Dst: host(3), SrcPort: sp + 1, DstPort: 3306},
		}
	}
	return [][]flowdiff.FlowKey{mk(1000), mk(2000), mk(3000)}
}

// TestSentinelErrors pins every documented error path of the public
// API: which sentinel each entry point returns and what it wraps.
func TestSentinelErrors(t *testing.T) {
	log := synthThreeTierLog(2_000)
	empty := flowlog.New(0, time.Second)
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		call func() error
		want []error
	}{
		{
			"BuildSignatures nil log",
			func() error {
				_, err := flowdiff.BuildSignatures(context.Background(), nil, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrEmptyLog},
		},
		{
			"BuildSignatures empty log",
			func() error {
				_, err := flowdiff.BuildSignatures(context.Background(), empty, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrEmptyLog},
		},
		{
			"Compare nil baseline",
			func() error {
				_, err := flowdiff.Compare(context.Background(), nil, log, nil, flowdiff.Thresholds{}, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrNoBaseline},
		},
		{
			"Compare empty baseline",
			func() error {
				_, err := flowdiff.Compare(context.Background(), empty, log, nil, flowdiff.Thresholds{}, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrNoBaseline},
		},
		{
			"Compare nil current",
			func() error {
				_, err := flowdiff.Compare(context.Background(), log, nil, nil, flowdiff.Thresholds{}, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrEmptyLog},
		},
		{
			"NewMonitor nil baseline",
			func() error {
				_, err := flowdiff.NewMonitor(context.Background(), nil, time.Minute, nil, flowdiff.Thresholds{}, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrNoBaseline},
		},
		{
			"BuildSignaturesContext canceled",
			func() error {
				_, err := flowdiff.BuildSignatures(canceledCtx, log, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrCanceled, context.Canceled},
		},
		{
			"CompareContext canceled",
			func() error {
				_, err := flowdiff.Compare(canceledCtx, log, log, nil, flowdiff.Thresholds{}, flowdiff.Options{})
				return err
			},
			[]error{flowdiff.ErrCanceled, context.Canceled},
		},
		{
			"MineTaskContext canceled",
			func() error {
				_, err := flowdiff.MineTask(canceledCtx, "toy", taskRuns(), flowdiff.TaskConfig{})
				return err
			},
			[]error{flowdiff.ErrCanceled, context.Canceled},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("error %q does not wrap %q", err, want)
				}
			}
		})
	}
}

// TestCanceledBuildDrainsGoroutines checks the pool-drain contract: a
// canceled BuildSignatures returns ErrCanceled and leaves no
// worker goroutines behind.
func TestCanceledBuildDrainsGoroutines(t *testing.T) {
	log := synthThreeTierLog(50_000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := flowdiff.BuildSignatures(ctx, log, flowdiff.Options{Parallelism: 4}); !errors.Is(err, flowdiff.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObsCountersDeterministicAcrossParallelism pins the determinism
// contract stated in the obs package doc: every counter outside the
// "parallel." namespace records a quantity that is identical for every
// Options.Parallelism setting.
func TestObsCountersDeterministicAcrossParallelism(t *testing.T) {
	log := synthThreeTierLog(20_000)
	var want map[string]int64
	wantP := 0
	for _, p := range []int{1, 2, 4, 7} {
		reg := obs.New()
		ctx := obs.WithRegistry(context.Background(), reg)
		if _, err := flowdiff.BuildSignatures(ctx, log, flowdiff.Options{Parallelism: p}); err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		got := make(map[string]int64)
		for name, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "parallel.") {
				// Dispatch counts depend on which fan-out path ran
				// (serial fast paths bypass the pool entirely).
				continue
			}
			got[name] = v
		}
		if len(got) == 0 {
			t.Fatalf("parallelism %d: no deterministic counters recorded", p)
		}
		if want == nil {
			want, wantP = got, p
			continue
		}
		if !maps.Equal(want, got) {
			t.Errorf("counters differ: parallelism %d -> %v, parallelism %d -> %v", wantP, want, p, got)
		}
	}
}

// TestReportIdenticalWithObsOnOff pins the "observability never changes
// behavior" contract: the diagnosis report is identical whether metrics
// are recorded into a live registry or discarded via a nil one.
func TestReportIdenticalWithObsOnOff(t *testing.T) {
	l1 := synthThreeTierStream(0, 2*time.Minute, 10_000)
	l2 := synthThreeTierStream(0, 2*time.Minute, 14_000)
	run := func(ctx context.Context) string {
		rep, err := flowdiff.Compare(ctx, l1, l2, nil, flowdiff.Thresholds{}, flowdiff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", rep)
	}
	on := run(obs.WithRegistry(context.Background(), obs.New()))
	off := run(obs.WithRegistry(context.Background(), nil))
	if on != off {
		t.Errorf("report differs with obs on vs off:\non:  %.400s\noff: %.400s", on, off)
	}
}

// TestMetricsPopulatedAfterCompare checks the end-to-end wiring: one
// Compare leaves non-zero stage timings, pool occupancy, and counters
// in the registry traveling in ctx — what /metrics then serves.
func TestMetricsPopulatedAfterCompare(t *testing.T) {
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	l1 := synthThreeTierLog(10_000)
	l2 := synthThreeTierLog(12_000)
	if _, err := flowdiff.Compare(ctx, l1, l2, nil, flowdiff.Thresholds{}, flowdiff.Options{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, span := range []string{
		"span.flowdiff.compare", "span.flowdiff.build", "span.signature.extract",
		"span.signature.app", "span.signature.infra", "span.signature.stability",
		"span.diff.compare",
	} {
		if h, ok := snap.Histograms[span]; !ok || h.Count == 0 {
			t.Errorf("span %s not recorded (snapshot %+v)", span, h)
		}
	}
	if h := snap.Histograms["span.flowdiff.compare"]; h.SumNS <= 0 {
		t.Errorf("span.flowdiff.compare has zero duration: %+v", h)
	}
	if g := snap.Gauges["parallel.active"]; g.Max < 1 {
		t.Errorf("pool occupancy never observed: %+v", g)
	}
	for _, c := range []string{"signature.occurrences", "signature.groups", "signature.intervals"} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s is zero", c)
		}
	}
	// Stability is the reference side's product: of the two logs a Compare
	// models, only the baseline is analyzed per interval.
	if h := snap.Histograms["span.signature.stability"]; h.Count != 1 {
		t.Errorf("span.signature.stability recorded %d times by one Compare, want 1 (the baseline's)", h.Count)
	}
}

// TestCurrentBuildsSkipStability pins which builds are reference builds.
// The per-interval stability analysis runs once per baseline: Monitor
// windows, a re-diagnosed window and the current log of a Compare are
// current builds and record neither span.signature.stability nor
// signature.intervals, while the public builds still return the full
// product, equal to signature.AnalyzeStability at every pool width.
func TestCurrentBuildsSkipStability(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const intervals = 5 // StabilityConfig's default
	stability := func(reg *obs.Registry) (spans, folded int64) {
		snap := reg.Snapshot()
		return snap.Histograms["span.signature.stability"].Count, snap.Counters["signature.intervals"]
	}
	baseline := synthThreeTierStream(0, 2*time.Minute, 10_000)
	stream := synthThreeTierStream(baseline.End, 2*time.Minute, 12_000)

	regBase := obs.New()
	m, err := flowdiff.NewMonitor(obs.WithRegistry(context.Background(), regBase), baseline, 30*time.Second, nil, flowdiff.Thresholds{}, flowdiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if spans, folded := stability(regBase); spans != 1 || folded != intervals {
		t.Errorf("monitor baseline: %d stability spans over %d intervals, want 1 over %d", spans, folded, intervals)
	}

	regCur := obs.New()
	ctx := obs.WithRegistry(context.Background(), regCur)
	for _, e := range stream.Events {
		if _, err := m.Observe(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if len(m.Reports()) < 3 {
		t.Fatalf("only %d windows flushed; the check would be vacuous", len(m.Reports()))
	}
	capture, err := os.Open(writeColumnar(t, stream))
	if err != nil {
		t.Fatal(err)
	}
	defer capture.Close()
	w := m.Reports()[1]
	if _, err := m.RediagnoseWindow(ctx, capture, w.From, w.To, nil); err != nil {
		t.Fatal(err)
	}
	snap := regCur.Snapshot()
	if snap.Counters["monitor.windows"] != int64(len(m.Reports())) || snap.Histograms["span.signature.app"].Count == 0 {
		t.Fatalf("the windows were not recorded in the private registry: %+v", snap.Counters)
	}
	if spans, folded := stability(regCur); spans != 0 || folded != 0 {
		t.Errorf("%d windows and a rediagnose: %d stability spans over %d intervals, want none", len(m.Reports()), spans, folded)
	}

	regCmp := obs.New()
	if _, err := flowdiff.Compare(obs.WithRegistry(context.Background(), regCmp), baseline, stream, nil, flowdiff.Thresholds{}, flowdiff.Options{}); err != nil {
		t.Fatal(err)
	}
	if spans, folded := stability(regCmp); spans != 1 || folded != intervals {
		t.Errorf("one Compare: %d stability spans over %d intervals, want 1 over %d (the baseline's)", spans, folded, intervals)
	}

	want, err := signature.AnalyzeStability(baseline, appgroup.NewResolver(nil), signature.Config{Parallelism: 1}, signature.StabilityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference stability map is empty")
	}
	path := writeColumnar(t, baseline)
	for _, workers := range []int{1, 2, 4, 7} {
		opts := flowdiff.Options{}.WithWorkers(workers)
		mem, err := flowdiff.BuildSignatures(context.Background(), baseline, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, done := openColumnar(t, path)
		streamed, err := flowdiff.BuildSignaturesReader(context.Background(), r, opts)
		done()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mem.Stability, want) || !reflect.DeepEqual(streamed.Stability, want) {
			t.Errorf("workers=%d: a public build's Stability differs from signature.AnalyzeStability", workers)
		}
	}
}

// TestWithWorkersOverride checks that Options.WithWorkers overrides
// both the top-level knob and an explicit signature-level setting.
func TestWithWorkersOverride(t *testing.T) {
	opts := flowdiff.Options{Parallelism: 4}
	opts.Signature.Parallelism = 2
	got := opts.WithWorkers(1)
	if got.Parallelism != 1 || got.Signature.Parallelism != 1 {
		t.Errorf("WithWorkers(1) = {Parallelism: %d, Signature.Parallelism: %d}, want both 1",
			got.Parallelism, got.Signature.Parallelism)
	}
	if opts.Parallelism != 4 || opts.Signature.Parallelism != 2 {
		t.Errorf("WithWorkers mutated the receiver: %+v", opts)
	}
}

// TestCompareHonorsSignatureParallelism: Compare must decide whether to
// run its two modeling halves concurrently from the same resolved width
// the halves themselves build with. Signature.Parallelism=1 therefore
// means a fully sequential Compare even when Options.Parallelism is
// left at its per-CPU default (which used to start both halves
// concurrently). Observed through the pool-occupancy gauge: one
// sequential build peaks at 2 (a stability interval's serial pool with
// its group builds' serial pool nested inside), so anything above that
// is two builds in flight at once.
func TestCompareHonorsSignatureParallelism(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	l1 := synthThreeTierLog(20_000)
	l2 := synthThreeTierLog(24_000)
	opts := flowdiff.Options{}
	opts.Signature.Parallelism = 1
	if _, err := flowdiff.Compare(ctx, l1, l2, nil, flowdiff.Thresholds{}, opts); err != nil {
		t.Fatal(err)
	}
	if g := reg.Snapshot().Gauges["parallel.active"]; g.Max > 2 {
		t.Errorf("parallel.active max = %d with Signature.Parallelism=1, want <= 2 (sequential halves)", g.Max)
	}
}
