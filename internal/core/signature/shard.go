package signature

import (
	"context"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/parallel"
)

// OccurrencesSharded extracts the same episodes as Occurrences with the
// flows shared out among cfg.Parallelism gather workers — the knob
// flowdiff.Options.Parallelism flows into, clamped to GOMAXPROCS by the
// parallel.Clamp contract. It is the extraction every signature build
// runs, applied to a whole log: byte-identical output for every worker
// count, pinned by TestOccurrencesShardedMatchesSerial.
func OccurrencesSharded(log *flowlog.Log, cfg Config) []Occurrence {
	cfg = cfg.withDefaults()
	return occurrencesSharded(context.Background(), log, cfg.OccurrenceGap, cfg.workers())
}

// occurrencesSharded is the unclamped core: workers is taken as given,
// so tests can pin shard counts above GOMAXPROCS. A canceled ctx yields
// a partial result the caller discards on observing ctx.Err().
func occurrencesSharded(ctx context.Context, log *flowlog.Log, gap time.Duration, workers int) []Occurrence {
	occs, _ := controlEvents(log, gap).flushSharded(ctx, workers)
	return occs
}

// flushSharded is Flush with the gather fanned out: flow ids are dense,
// so each worker takes an equal range of them, scans the shared arena
// for its flows' events, and the per-worker results — each in canonical
// order, under a comparator that is a total order — merge into the same
// slice for every worker count. The only possible error is ctx's.
func (x *StreamExtractor) flushSharded(ctx context.Context, workers int) ([]Occurrence, error) {
	parts := make([][]Occurrence, workers)
	flows := len(x.count)
	err := parallel.ForContext(ctx, workers, workers, func(w int) {
		parts[w] = x.gather(new(gatherer), w*flows/workers, (w+1)*flows/workers)
	})
	x.Reset()
	if err != nil {
		return nil, err
	}
	return mergeOccurrences(parts), nil
}

// mergeOccurrences k-way merges per-shard occurrence slices that are
// each sorted in canonical order. The comparator is a total order over
// distinct occurrences, so the merge result does not depend on the
// shard count or shard assignment.
func mergeOccurrences(parts [][]Occurrence) []Occurrence {
	live := parts[:0]
	total := 0
	for _, p := range parts {
		if len(p) > 0 {
			live = append(live, p)
			total += len(p)
		}
	}
	switch len(live) {
	case 0:
		return []Occurrence{}
	case 1:
		return live[0]
	}
	out := make([]Occurrence, 0, total)
	idx := make([]int, len(live))
	for len(out) < total {
		best := -1
		for w := range live {
			if idx[w] >= len(live[w]) {
				continue
			}
			if best < 0 || occLess(live[w][idx[w]], live[best][idx[best]]) {
				best = w
			}
		}
		out = append(out, live[best][idx[best]])
		idx[best]++
	}
	return out
}
