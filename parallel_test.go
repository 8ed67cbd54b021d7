package flowdiff_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/faults"
)

// checkGoroutineLeak snapshots the goroutine count and verifies at
// cleanup, with a settle/retry loop, that it returned to the baseline —
// proof that Compare joins the half it models on a second goroutine.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("goroutine leak: %d before the test, still %d after settling", before, n)
		}
	})
}

// procSweep is the GOMAXPROCS values the determinism tests run Compare
// at: 1 models its two halves one after the other, the rest at once.
var procSweep = []int{1, 2, 4, 7}

// compareAt runs Compare at GOMAXPROCS procs and restores the old value.
func compareAt(t *testing.T, procs int, baseline, current *flowdiff.Log, opts flowdiff.Options) flowdiff.Report {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep, err := flowdiff.Compare(context.Background(), baseline, current, nil, flowdiff.Thresholds{}, opts)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return rep
}

// TestParallelModelingDeterminism is the equivalence gate for Compare's
// one concurrency: the report from concurrent halves must match the
// sequential one report for report.
func TestParallelModelingDeterminism(t *testing.T) {
	checkGoroutineLeak(t)
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:        41,
		BaselineDur: 45 * time.Second,
		FaultDur:    45 * time.Second,
		Faults:      []faults.Injector{faults.HostShutdown{Host: "S3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := compareAt(t, procSweep[0], res.L1, res.L2, res.Options())
	if len(want.Unknown) == 0 {
		t.Fatal("host shutdown produced no unexplained changes; the equivalence check would be vacuous")
	}
	for _, procs := range procSweep[1:] {
		if got := compareAt(t, procs, res.L1, res.L2, res.Options()); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: Compare report differs from sequential:\n got: %+v\nwant: %+v", procs, got, want)
		}
	}
}

// TestSuspectRankingDeterministicAcrossParallelism pins the acceptance
// bar for the evidence-voting ranker: the full suspect ranking —
// order, votes, and coverage-adjusted scores — must be identical
// whether Compare models its halves sequentially or concurrently.
func TestSuspectRankingDeterministicAcrossParallelism(t *testing.T) {
	checkGoroutineLeak(t)
	sc := faults.LocalizationScenarios()[0]
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:        43,
		Specs:       sc.Specs,
		Incast:      sc.Incast,
		Faults:      sc.Faults,
		BaselineDur: 45 * time.Second,
		FaultDur:    45 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []flowdiff.SuspectScore
	for i, procs := range procSweep {
		rep := compareAt(t, procs, res.L1, res.L2, res.Options())
		if len(rep.Suspects) == 0 {
			t.Fatalf("GOMAXPROCS=%d: no suspects; determinism check would be vacuous", procs)
		}
		if i == 0 {
			want = rep.Suspects
			continue
		}
		if !reflect.DeepEqual(rep.Suspects, want) {
			t.Errorf("GOMAXPROCS=%d: suspect ranking differs from sequential:\n%+v\nvs\n%+v",
				procs, rep.Suspects, want)
		}
	}
}
