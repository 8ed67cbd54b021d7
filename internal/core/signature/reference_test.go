package signature

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/stats"
)

// This file retains the batch occurrence extractor — and the whole-log
// scans the in-memory modeling path derived its aggregates with — as
// equivalence oracles, moved here verbatim when the streamed pipeline
// became the only modeling path; likewise the key-hashing start index
// and infrastructure build, when the pipeline moved onto interned ids.
// StreamExtractor, sourceAgg and the id-keyed products must reproduce
// them exactly; without these the equivalence tests would compare the
// one remaining path with itself.

var bg = context.Background()

// occurrenceReference is an occurrence as the batch oracle groups it:
// with the episode's full events, not hops.
type occurrenceReference struct {
	Key    flowlog.FlowKey
	Start  time.Duration
	Events []flowlog.Event
}

// hopsOf projects the oracle's occurrences onto what the production
// path keeps of them, for DeepEqual against it.
func hopsOf(refs []occurrenceReference) []Occurrence {
	out := make([]Occurrence, len(refs))
	for i, r := range refs {
		hops := make([]Hop, len(r.Events))
		for j, e := range r.Events {
			hops[j] = Hop{Time: e.Time, Switch: e.Switch, PacketIn: e.Type == flowlog.EventPacketIn}
		}
		out[i] = Occurrence{Key: r.Key, Start: r.Start, Hops: hops}
	}
	return out
}

// appendEpisodeReference appends one closed episode as an occurrence
// starting at its earliest PacketIn, or, with none, its first event.
func appendEpisodeReference(out []occurrenceReference, key flowlog.FlowKey, events []flowlog.Event) []occurrenceReference {
	if len(events) == 0 {
		return out
	}
	start := events[0].Time
	for _, e := range events {
		if e.Type == flowlog.EventPacketIn {
			start = e.Time
			break
		}
	}
	return append(out, occurrenceReference{Key: key, Start: start, Events: events})
}

// splitEpisodesReference splits one key's time-sorted event buffer at
// gaps and appends the resulting episodes to out. Episodes are
// subslices of buf.
func splitEpisodesReference(out []occurrenceReference, key flowlog.FlowKey, buf []flowlog.Event, gap time.Duration) []occurrenceReference {
	epStart := 0
	for j := 1; j < len(buf); j++ {
		if buf[j].Time-buf[j-1].Time > gap {
			out = appendEpisodeReference(out, key, buf[epStart:j:j])
			epStart = j
		}
	}
	return appendEpisodeReference(out, key, buf[epStart:len(buf):len(buf)])
}

// extractFromIdxsReference turns a per-key index grouping into the
// start-sorted occurrence slice: per key, copy the events into one
// contiguous buffer (sorting the indices first only when the log is out
// of order) and split it at gaps.
func extractFromIdxsReference(log *flowlog.Log, perKey map[flowlog.FlowKey][]int32, gap time.Duration) []occurrenceReference {
	out := make([]occurrenceReference, 0, len(perKey))
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return compareKeys(out[i].Key, out[j].Key) < 0
	})
	return out
}

// occurrencesReference extracts flow episodes from a log. Events are
// grouped per flow key, ordered by time, and split wherever the gap
// between consecutive control events of the key exceeds gap (<=0 uses
// DefaultOccurrenceGap). The result is ordered by start time (ties
// broken by key).
func occurrencesReference(log *flowlog.Log, gap time.Duration) []occurrenceReference {
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
	v := appView{meta: logMeta{Start: log.Start, End: log.End}, ids: make(map[Edge]int32)}
	for i := range log.Events {
		ev := &log.Events[i]
		if ev.Type != flowlog.EventFlowRemoved {
			continue
		}
		e := Edge{Src: r.Node(ev.Flow.Src), Dst: r.Node(ev.Flow.Dst)}
		id, ok := v.ids[e]
		if !ok {
			id = int32(len(v.samples))
			v.ids[e] = id
			v.samples = append(v.samples, nil)
		}
		v.samples[id] = append(v.samples[id], removedSample{Bytes: ev.Bytes, Packets: ev.Packets, Duration: ev.FlowDuration})
	}
	return v
}

// indexStartsReference indexes occurrences by host edge, as their start
// times in occurrence (hence time) order, resolving every occurrence's
// key — the map-keyed index the pipeline builds by edge id.
func indexStartsReference(occs []Occurrence, r *appgroup.Resolver) map[Edge][]time.Duration {
	starts := make(map[Edge][]time.Duration)
	for i := range occs {
		o := &occs[i]
		e := Edge{Src: r.Node(o.Key.Src), Dst: r.Node(o.Key.Dst)}
		starts[e] = append(starts[e], o.Start)
	}
	return starts
}

// infraReference is buildInfra keyed by name: per-hop SwitchPair maps
// looked up twice, and each vote's source host resolved from the key.
func infraReference(r *appgroup.Resolver, occs []occurrenceReference) InfraSignature {
	inf := InfraSignature{
		SwitchAdj:       make(map[SwitchPair]int),
		HostAttach:      make(map[string]string),
		HostAttachCount: make(map[string]int),
		ISL:             make(map[SwitchPair]stats.Summary),
	}
	islSamples := make(map[SwitchPair][]float64)
	var crt []float64
	attachVotes := make(map[string]map[string]int)

	for _, o := range occs {
		var prevPI *flowlog.Event
		var prevFM *flowlog.Event
		var pendingPI *flowlog.Event
		for i := range o.Events {
			e := &o.Events[i]
			switch e.Type {
			case flowlog.EventPacketIn:
				if prevPI != nil && e.Switch != prevPI.Switch {
					inf.SwitchAdj[SwitchPair{prevPI.Switch, e.Switch}]++
					if prevFM != nil && prevFM.Switch == prevPI.Switch {
						d := e.Time - prevFM.Time
						if d >= 0 {
							p := SwitchPair{prevPI.Switch, e.Switch}
							islSamples[p] = append(islSamples[p], float64(d))
						}
					}
				}
				if prevPI == nil {
					src := string(r.Node(o.Key.Src))
					if attachVotes[src] == nil {
						attachVotes[src] = make(map[string]int)
					}
					attachVotes[src][e.Switch]++
				}
				prevPI = e
				pendingPI = e
			case flowlog.EventFlowMod:
				if pendingPI != nil && e.Switch == pendingPI.Switch {
					d := e.Time - pendingPI.Time
					if d >= 0 {
						crt = append(crt, float64(d))
					}
					pendingPI = nil
				}
				prevFM = e
			}
		}
	}

	for host, votes := range attachVotes {
		best, bestN, total := "", 0, 0
		for sw, n := range votes {
			total += n
			if n > bestN || (n == bestN && sw < best) {
				best, bestN = sw, n
			}
		}
		inf.HostAttach[host] = best
		inf.HostAttachCount[host] = total
	}
	for p, xs := range islSamples {
		inf.ISL[p] = stats.Summarize(xs)
	}
	inf.CRT = stats.Summarize(crt)
	inf.CRTSamples = crt
	return inf
}

// pipelineReference models a log the way the former in-memory path did:
// batch-extracted occurrences, group discovery from a log.Flows scan,
// FlowRemoved samples from whole-log scans, and stability intervals
// from flowlog.Segment views — every build step downstream of those
// inputs is the production code. refs are the
// occurrences with their events, occs their projection.
type pipelineReference struct {
	log  *flowlog.Log
	r    *appgroup.Resolver
	cfg  Config
	refs []occurrenceReference
	occs []Occurrence
}

func newPipelineReference(log *flowlog.Log, r *appgroup.Resolver, cfg Config) *pipelineReference {
	cfg = cfg.withDefaults()
	refs := occurrencesReference(log, cfg.OccurrenceGap)
	return &pipelineReference{log: log, r: r, cfg: cfg, refs: refs, occs: hopsOf(refs)}
}

func (pr *pipelineReference) appOf(log *flowlog.Log, occs []Occurrence) []AppSignature {
	groups := appgroup.DiscoverFromEdges(edgesReference(log, pr.r), pr.cfg.Special)
	return buildAppFromGroups(bg, viewFromLogReference(log, pr.r), pr.r, pr.cfg, occs, groups)
}

func (pr *pipelineReference) App() []AppSignature { return pr.appOf(pr.log, pr.occs) }

func (pr *pipelineReference) Infra() InfraSignature {
	inf := infraReference(pr.r, pr.refs)
	inf.LogDuration = pr.log.Duration()
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
	return buildAppFromStarts(ctx, view, cfg, indexStartsReference(occs, r), groups, new(modelStore))
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
