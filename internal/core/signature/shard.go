package signature

import (
	"context"
	"time"

	"flowdiff/internal/flowlog"
)

// hashKey is an FNV-1a hash of the flow 5-tuple, used only to assign
// keys to extraction shards. It must depend on nothing but the key, so
// every event of a key lands in the same shard.
func hashKey(k flowlog.FlowKey) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	mix(k.Proto)
	src := k.Src.As16()
	for _, b := range src {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	dst := k.Dst.As16()
	for _, b := range dst {
		mix(b)
	}
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	return h
}

// OccurrencesSharded extracts the same episodes as Occurrences with the
// flow keys sharded across cfg.Parallelism workers — the knob
// flowdiff.Options.Parallelism flows into, clamped to GOMAXPROCS by the
// parallel.Clamp contract. It is the extractor every signature build
// runs (streamShards), applied to a whole log: byte-identical output
// for every worker count, pinned by TestOccurrencesShardedMatchesSerial.
func OccurrencesSharded(log *flowlog.Log, cfg Config) []Occurrence {
	cfg = cfg.withDefaults()
	return occurrencesSharded(context.Background(), log, cfg.OccurrenceGap, cfg.workers())
}

// occurrencesSharded is the unclamped core: workers is taken as given,
// so tests can pin shard counts above GOMAXPROCS. A canceled ctx yields
// a partial result the caller discards on observing ctx.Err().
func occurrencesSharded(ctx context.Context, log *flowlog.Log, gap time.Duration, workers int) []Occurrence {
	s := newStreamShards(gap, workers)
	for i := range log.Events {
		if s.add(ctx, &log.Events[i]) != nil {
			return nil
		}
	}
	occs, _ := s.finish(ctx)
	return occs
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
