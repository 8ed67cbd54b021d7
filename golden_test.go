package flowdiff_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
// changes any reported byte — at either pool width — fails here even
// when every in-tree route still agrees with every other.
func TestReportGoldenDigests(t *testing.T) {
	cases := []struct {
		name             string
		scenario         flowdiff.Scenario
		compare, monitor string
		reports          int
	}{
		{
			name:     "clean",
			scenario: flowdiff.Scenario{Seed: 301},
			compare:  "fe3cb6daac0ff5db35a9b70c0aa0af717ee24ef2187d1749155d8a998d0ba72c",
			monitor:  "fee4558be8b9819ba73dda05528426c9c7d4d49838d04712beb5b83bd8e9e2f7",
			reports:  4,
		},
		{
			name: "logging",
			scenario: flowdiff.Scenario{Seed: 207, Faults: []faults.Injector{
				faults.EnableLogging{Host: "S3", Overhead: 60 * time.Millisecond},
			}},
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
			for _, workers := range []int{1, 4} {
				opts := res.Options()
				opts.Parallelism = workers
				rep, err := flowdiff.Compare(ctx, res.L1, res.L2, nil, flowdiff.Thresholds{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := jsonDigest(t, rep); got != tc.compare {
					t.Errorf("workers=%d: compare digest %s, want %s", workers, got, tc.compare)
				}
				m, err := flowdiff.NewMonitor(ctx, res.L1, 45*time.Second, nil, flowdiff.Thresholds{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range res.L2.Events {
					if _, err := m.Observe(ctx, e); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := m.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if n := len(m.Reports()); n != tc.reports {
					t.Errorf("workers=%d: %d monitor reports, want %d", workers, n, tc.reports)
				}
				if got := jsonDigest(t, m.Reports()); got != tc.monitor {
					t.Errorf("workers=%d: monitor digest %s, want %s", workers, got, tc.monitor)
				}
			}
		})
	}
}
