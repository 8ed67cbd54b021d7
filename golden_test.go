package flowdiff_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/faults"
)

// jsonDigest is sha256 over the value's JSON encoding — the byte-level
// identity a persisted report has.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestReportGoldenDigests pins Compare and Monitor report bytes across
// commits: the digests were taken at the commit before the two modeling
// paths were merged into one, so a refactor of the modeling phase that
// changes any reported byte — at GOMAXPROCS 1, where Compare models its
// halves one after the other, or 4, where it models them at once —
// fails here even when every in-tree route still agrees with every
// other. The capture digests pin the simulator's own output (event
// reasons and flow keys included, which no report field carries); they
// were taken before the flow-table match became a FlowKey.
func TestReportGoldenDigests(t *testing.T) {
	cases := []struct {
		name             string
		scenario         flowdiff.Scenario
		l1, l2           string
		compare, monitor string
		reports          int
	}{
		{
			name:     "clean",
			scenario: flowdiff.Scenario{Seed: 301},
			l1:       "a262d6068f30a52ce369f8ed3f3d26d479c3ffacb05e4e71c0db3483729faf1f",
			l2:       "45ece786ac7663c0eeb41f57e14fe9217260d9a7f4e59b0a5c17cb95fcc23e43",
			compare:  "fe3cb6daac0ff5db35a9b70c0aa0af717ee24ef2187d1749155d8a998d0ba72c",
			monitor:  "fee4558be8b9819ba73dda05528426c9c7d4d49838d04712beb5b83bd8e9e2f7",
			reports:  4,
		},
		{
			name: "logging",
			scenario: flowdiff.Scenario{Seed: 207, Faults: []faults.Injector{
				faults.EnableLogging{Host: "S3", Overhead: 60 * time.Millisecond},
			}},
			l1:      "8c872343050526b0efd4d332bfc35e0fb7e814e60f527dc583173f202588cfe7",
			l2:      "d916d2cd856ce67c200c8bb02b755eb44178cb7f60c5da487cddb471b0a4a05e",
			compare: "6d9b8a14e7cbbeddca6a75d35b97afa9c4c38510cb1e843093292b939e74be78",
			monitor: "e2df35c2bd21a7e92705c90cb78abb634d7476e9e99240bb5d07869eb544641f",
			reports: 4,
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := flowdiff.RunScenario(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			if got := jsonDigest(t, res.L1); got != tc.l1 {
				t.Errorf("L1 capture digest %s, want %s", got, tc.l1)
			}
			if got := jsonDigest(t, res.L2); got != tc.l2 {
				t.Errorf("L2 capture digest %s, want %s", got, tc.l2)
			}
			opts := res.Options()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				rep, err := flowdiff.Compare(ctx, res.L1, res.L2, nil, flowdiff.Thresholds{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := jsonDigest(t, rep); got != tc.compare {
					t.Errorf("GOMAXPROCS=%d: compare digest %s, want %s", procs, got, tc.compare)
				}
				m, err := flowdiff.NewMonitor(ctx, res.L1, 45*time.Second, nil, flowdiff.Thresholds{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				var reports []flowdiff.MonitorReport
				keep := func(rep *flowdiff.MonitorReport, err error) {
					if err != nil {
						t.Fatal(err)
					}
					if rep != nil {
						reports = append(reports, *rep)
					}
				}
				m.ObserveBatch(ctx, res.L2.Events, keep)
				keep(m.Flush(ctx))
				if n := len(reports); n != tc.reports {
					t.Errorf("GOMAXPROCS=%d: %d monitor reports, want %d", procs, n, tc.reports)
				}
				if got := jsonDigest(t, reports); got != tc.monitor {
					t.Errorf("GOMAXPROCS=%d: monitor digest %s, want %s", procs, got, tc.monitor)
				}
			}
		})
	}
}
