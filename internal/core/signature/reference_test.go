package signature

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
)

// This file retains the batch occurrence extractor — and the whole-log
// scans the in-memory modeling path derived its aggregates with — as
// equivalence oracles, moved here verbatim when the streamed pipeline
// became the only modeling path. StreamExtractor, the flow-hash shards,
// and sourceAgg must reproduce them exactly; without these the
// equivalence tests would compare the one remaining path with itself.

var bg = context.Background()

// splitEpisodesReference splits one key's time-sorted event buffer at
// gaps and appends the resulting episodes to out. Episodes are
// subslices of buf.
func splitEpisodesReference(out []Occurrence, key flowlog.FlowKey, buf []flowlog.Event, gap time.Duration) []Occurrence {
	epStart := 0
	for j := 1; j < len(buf); j++ {
		if buf[j].Time-buf[j-1].Time > gap {
			out = appendEpisode(out, key, buf[epStart:j:j])
			epStart = j
		}
	}
	return appendEpisode(out, key, buf[epStart:len(buf):len(buf)])
}

// extractFromIdxsReference turns a per-key index grouping into the
// start-sorted occurrence slice: per key, copy the events into one
// contiguous buffer (sorting the indices first only when the log is out
// of order) and split it at gaps.
func extractFromIdxsReference(log *flowlog.Log, perKey map[flowlog.FlowKey][]int32, gap time.Duration) []Occurrence {
	out := make([]Occurrence, 0, len(perKey))
	for key, idxs := range perKey {
		// Logs are normally already time-sorted, in which case the
		// scan-order index list is sorted too; only fall back to an
		// explicit sort when needed.
		sorted := true
		for j := 1; j < len(idxs); j++ {
			if log.Events[idxs[j]].Time < log.Events[idxs[j-1]].Time {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.SliceStable(idxs, func(a, b int) bool {
				return log.Events[idxs[a]].Time < log.Events[idxs[b]].Time
			})
		}
		// One contiguous buffer per key; episodes are subslices of it.
		buf := make([]flowlog.Event, len(idxs))
		for j, idx := range idxs {
			buf[j] = log.Events[idx]
		}
		out = splitEpisodesReference(out, key, buf, gap)
	}
	sort.Slice(out, func(i, j int) bool { return compareOccurrences(out[i], out[j]) < 0 })
	return out
}

// occurrencesReference extracts flow episodes from a log. Events are
// grouped per flow key, ordered by time, and split wherever the gap
// between consecutive control events of the key exceeds gap (<=0 uses
// DefaultOccurrenceGap). The result is ordered by start time (ties
// broken by key).
func occurrencesReference(log *flowlog.Log, gap time.Duration) []Occurrence {
	if gap <= 0 {
		gap = DefaultOccurrenceGap
	}
	// Work with indices into log.Events to avoid copying the (large)
	// Event structs while grouping.
	perKey := make(map[flowlog.FlowKey][]int32)
	for i := range log.Events {
		if !relevant(log.Events[i].Type) {
			continue
		}
		perKey[log.Events[i].Flow] = append(perKey[log.Events[i].Flow], int32(i))
	}
	return extractFromIdxsReference(log, perKey, gap)
}

// edgesReference extracts the distinct directed host edges from a log's
// PacketIn traffic (the former appgroup.BuildEdges).
func edgesReference(log *flowlog.Log, r *appgroup.Resolver) map[Edge]int {
	edges := make(map[Edge]int)
	for _, key := range log.Flows() {
		e := Edge{Src: r.Node(key.Src), Dst: r.Node(key.Dst)}
		edges[e]++
	}
	return edges
}

// viewFromLogReference scans a log once for the per-edge FlowRemoved
// samples.
func viewFromLogReference(log *flowlog.Log, r *appgroup.Resolver) appView {
	v := appView{
		meta:    logMeta{Start: log.Start, End: log.End},
		removed: make(map[Edge][]removedSample),
	}
	for i := range log.Events {
		ev := &log.Events[i]
		if ev.Type != flowlog.EventFlowRemoved {
			continue
		}
		e := Edge{Src: r.Node(ev.Flow.Src), Dst: r.Node(ev.Flow.Dst)}
		v.removed[e] = append(v.removed[e], removedSample{Bytes: ev.Bytes, Packets: ev.Packets, Duration: ev.FlowDuration})
	}
	return v
}

// firstRemovalsReference collects each flow key's first FlowRemoved, in
// log order.
func firstRemovalsReference(log *flowlog.Log) []removedFlow {
	var out []removedFlow
	seen := make(map[flowlog.FlowKey]bool)
	for i := range log.Events {
		e := &log.Events[i]
		if e.Type != flowlog.EventFlowRemoved || seen[e.Flow] {
			continue
		}
		seen[e.Flow] = true
		out = append(out, removedFlow{Key: e.Flow, Bytes: e.Bytes})
	}
	return out
}

// pipelineReference models a log the way the former in-memory path did:
// batch-extracted occurrences, group discovery from a log.Flows scan,
// FlowRemoved samples and first removals from whole-log scans, and
// stability intervals from flowlog.Segment views — every build step
// downstream of those inputs is the production code.
type pipelineReference struct {
	log  *flowlog.Log
	r    *appgroup.Resolver
	cfg  Config
	occs []Occurrence
}

func newPipelineReference(log *flowlog.Log, r *appgroup.Resolver, cfg Config) *pipelineReference {
	cfg = cfg.withDefaults()
	return &pipelineReference{log: log, r: r, cfg: cfg, occs: occurrencesReference(log, cfg.OccurrenceGap)}
}

func (pr *pipelineReference) appOf(log *flowlog.Log, occs []Occurrence) []AppSignature {
	groups := appgroup.DiscoverFromEdges(edgesReference(log, pr.r), pr.cfg.Special)
	return buildAppFromGroups(bg, viewFromLogReference(log, pr.r), pr.r, pr.cfg, occs, groups)
}

func (pr *pipelineReference) App() []AppSignature { return pr.appOf(pr.log, pr.occs) }

func (pr *pipelineReference) Infra() InfraSignature {
	inf := buildInfraFromOccs(pr.r, pr.cfg, pr.occs)
	inf.LogDuration = pr.log.Duration()
	attachLinkBytesFrom(&inf, pr.log.Duration(), firstRemovalsReference(pr.log), pr.occs)
	return inf
}

func (pr *pipelineReference) Stability(scfg StabilityConfig, full []AppSignature) (map[string]Stability, error) {
	scfg = scfg.withDefaults()
	segs, err := pr.log.Segment(scfg.Intervals)
	if err != nil {
		return nil, fmt.Errorf("signature: segmenting log: %w", err)
	}
	metas := make([]logMeta, len(segs))
	for i, s := range segs {
		metas[i] = logMeta{Start: s.Start, End: s.End}
	}
	parts := partitionByStart(pr.occs, metas)
	intervals := make([][]AppSignature, len(segs))
	for i := range segs {
		intervals[i] = pr.appOf(segs[i], parts[i])
	}
	return Stabilities(full, intervals, scfg), nil
}

// buildAppFromGroups builds the per-group signatures of a set of
// occurrences, indexing them from scratch — what every build did before
// the pipeline shared one index across the whole log and its intervals.
func buildAppFromGroups(ctx context.Context, view appView, r *appgroup.Resolver, cfg Config, occs []Occurrence, groups []appgroup.Group) []AppSignature {
	return buildAppFromStarts(ctx, view, cfg, indexStarts(occs, r), groups)
}

// partitionByStart slices occs (sorted by start time) into per-segment
// subslices: an occurrence belongs to the interval containing its start.
// The final segment is inclusive of its end so an episode starting
// exactly at the log's End is not lost (as in sourceAgg.segIndex).
func partitionByStart(occs []Occurrence, segs []logMeta) [][]Occurrence {
	parts := make([][]Occurrence, len(segs))
	for i, s := range segs {
		from, to := s.Start, s.End
		lo := sort.Search(len(occs), func(j int) bool { return occs[j].Start >= from })
		var hi int
		if i == len(segs)-1 {
			hi = sort.Search(len(occs), func(j int) bool { return occs[j].Start > to })
		} else {
			hi = sort.Search(len(occs), func(j int) bool { return occs[j].Start >= to })
		}
		if lo < hi {
			parts[i] = occs[lo:hi:hi]
		}
	}
	return parts
}

// BenchmarkOccurrencesReference benchmarks the retained batch extractor
// on BenchmarkOccurrencesSerial's workloads, for an in-tree before/after.
func BenchmarkOccurrencesReference(b *testing.B) {
	for _, n := range []int{100_000, 500_000} {
		log := benchLog(n)
		b.Run(fmt.Sprintf("events=%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				occurrencesReference(log, 0)
			}
		})
	}
}
