package taskmine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
)

// trainRuns synthesizes n task runs of length ~k with mild variation.
func trainRuns(n, k int, seed int64) [][]Template {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{}
	var runs [][]Template
	for r := 0; r < n; r++ {
		var keys []flowlog.FlowKey
		for i := 0; i < k; i++ {
			keys = append(keys, flowN(i+1))
			if rng.Float64() < 0.2 { // occasional repeat
				keys = append(keys, flowN(i+1))
			}
		}
		runs = append(runs, Normalize(keys, cfg))
	}
	return runs
}

// BenchmarkMine measures the full mining pipeline (common flows, apriori
// pattern growth, closed pruning, segmentation) at two training-set
// scales. Compare against BenchmarkMineReference: the same inputs through
// the retained naive string-keyed miner.
func BenchmarkMine(b *testing.B) {
	for _, sz := range []struct{ runs, k int }{{20, 12}, {50, 30}} {
		runs := trainRuns(sz.runs, sz.k, 1)
		b.Run(fmt.Sprintf("runs=%d/len=%d", sz.runs, sz.k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(context.Background(), "bench", runs, Config{}, MineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDetect(b *testing.B) {
	runs := trainRuns(50, 8, 1)
	a, err := Mine(context.Background(), "bench", runs, Config{}, MineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// A busy stream: 10 task executions among 2000 interleaved flows.
	rng := rand.New(rand.NewSource(2))
	var flows []TimedFlow
	at := time.Duration(0)
	for i := 0; i < 2000; i++ {
		at += time.Duration(rng.Intn(50)) * time.Millisecond
		flows = append(flows, TimedFlow{Key: flowN(100 + rng.Intn(50)), At: at})
		if i%200 == 0 {
			for j := 1; j <= 8; j++ {
				at += 20 * time.Millisecond
				flows = append(flows, TimedFlow{Key: flowN(j), At: at})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Detect(a, flows)) == 0 {
			b.Fatal("no detections")
		}
	}
}
