package signature

import (
	"cmp"
	"context"
	"maps"
	"slices"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/obs"
	"flowdiff/internal/stats"
	"flowdiff/internal/topology"
)

// Kind identifies one signature component.
type Kind string

// Signature component kinds (paper Figure 2a).
const (
	KindCG  Kind = "CG"  // connectivity graph
	KindFS  Kind = "FS"  // flow statistics
	KindCI  Kind = "CI"  // component interaction
	KindDD  Kind = "DD"  // delay distribution
	KindPC  Kind = "PC"  // partial correlation
	KindPT  Kind = "PT"  // physical topology
	KindISL Kind = "ISL" // inter-switch latency
	KindCRT Kind = "CRT" // controller response time
)

// Config tunes signature extraction. Zero values take the documented
// defaults.
type Config struct {
	// OccurrenceGap separates episodes of the same flow key. Default 1 s.
	OccurrenceGap time.Duration
	// DDBin is the delay-distribution bucket width. Default 20 ms (the
	// paper plots delays with 20 ms bins).
	DDBin time.Duration
	// DDWindow caps how far ahead an outgoing flow may start and still be
	// paired with an incoming flow. Default 1 s.
	DDWindow time.Duration
	// PCEpoch is the epoch length for the flow-count time series behind
	// the partial-correlation signature. Default 5 s.
	PCEpoch time.Duration
	// Special marks the data center's service nodes (group boundaries).
	Special map[topology.NodeID]bool
	// Deprecated: has no effect; kept so flowbench compiles.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.OccurrenceGap <= 0 {
		c.OccurrenceGap = DefaultOccurrenceGap
	}
	if c.DDBin <= 0 {
		c.DDBin = 20 * time.Millisecond
	}
	if c.DDWindow <= 0 {
		c.DDWindow = time.Second
	}
	if c.PCEpoch <= 0 {
		c.PCEpoch = 5 * time.Second
	}
	return c
}

// Edge aliases the application-group edge type.
type Edge = appgroup.Edge

// CompareEdges orders edges by source, then destination.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// EdgePair is a pair of adjacent edges (in and out of the shared node).
type EdgePair struct {
	In, Out Edge
}

// ComparePairs orders edge pairs by in-edge, then out-edge.
func ComparePairs(a, b EdgePair) int {
	if c := CompareEdges(a.In, b.In); c != 0 {
		return c
	}
	return CompareEdges(a.Out, b.Out)
}

// FlowStats is the FS signature for one edge.
type FlowStats struct {
	// FlowCount is the number of flow occurrences on the edge.
	FlowCount int
	// FirstSeen is the earliest occurrence start on the edge (anchors CG
	// additions in time for task validation).
	FirstSeen time.Duration
	// Bytes/Packets/Duration summarize the FlowRemoved counters of the
	// edge's flows.
	Bytes    stats.Summary
	Packets  stats.Summary
	Duration stats.Summary
	// BytesSamples retains the raw per-flow byte counts, in log order,
	// for CDF plots (Figure 9a): the one FS field that keeps samples,
	// exactly the edge's FlowRemoved count (nil when none), cut from one
	// slab per build and capped so an append cannot reach a neighbour.
	BytesSamples []float64
}

// CISig is the component-interaction signature at a node: normalized flow
// counts per adjacent edge.
type CISig struct {
	// Edges lists the node's adjacent edges in sorted order; Fractions
	// and Counts are parallel to it.
	Edges     []Edge
	Counts    []float64
	Fractions []float64
}

// DDSig is the delay-distribution signature for one adjacent edge pair.
type DDSig struct {
	Histogram *stats.Histogram
	// Peak is the dominant peak of the distribution.
	Peak stats.Peak
	// Samples is the number of delay pairs observed.
	Samples int
}

// AppSignature models one application group (paper §III-B).
type AppSignature struct {
	Group appgroup.Group
	// LogDuration is the length of the interval the signature was built
	// from, for rate normalization when comparing logs of different
	// lengths.
	LogDuration time.Duration
	// CG is the set of directed communication edges.
	CG map[Edge]bool
	// FS per edge.
	FS map[Edge]FlowStats
	// GroupFS aggregates flow counts for the whole group.
	GroupFS FlowStats
	// CI per member node.
	CI map[topology.NodeID]CISig
	// DD per adjacent edge pair.
	DD map[EdgePair]DDSig
	// PC per adjacent edge pair (Pearson over per-epoch flow counts).
	PC map[EdgePair]float64
}

// logMeta is the interval a signature build covers — the only thing the
// per-group builds need from a log besides its aggregates, so a
// streamed source can supply it from a file header.
type logMeta struct {
	Start, End time.Duration
}

func (m logMeta) Duration() time.Duration { return m.End - m.Start }

// removedSample carries the FlowRemoved counters the FS signature
// aggregates. Keeping samples instead of whole events lets a build drop
// FlowRemoved events after one scan.
type removedSample struct {
	Bytes, Packets uint64
	Duration       time.Duration
}

// appView is everything the per-group signature builds consume besides
// the occurrences: the covered interval and the FlowRemoved counter
// samples per host edge id, in log order. sourceAgg produces one for
// the whole log and one per stability interval.
type appView struct {
	meta    logMeta
	ids     map[Edge]int32
	samples [][]removedSample
}

// sliceStarts narrows an index to the occurrences starting inside seg:
// every per-edge list is in time order, so an interval's share of it is
// a subslice. The last segment includes its end, so an episode starting
// exactly at the log's End is not lost (as in sourceAgg.segIndex). The
// result refills dst.
func sliceStarts(starts map[Edge][]time.Duration, seg logMeta, last bool, dst map[Edge][]time.Duration) map[Edge][]time.Duration {
	to := seg.End
	if last {
		to++
	}
	out := cleared(dst, len(starts))
	for e, all := range starts {
		lo, _ := slices.BinarySearch(all, seg.Start)
		hi, _ := slices.BinarySearch(all, to)
		if lo < hi {
			out[e] = all[lo:hi:hi]
		}
	}
	return out
}

// buildAppFromStarts builds one signature per group into st; the builds
// share startsByEdge and the view's samples read-only. Cancellation
// stops the loop; the public entry points surface ctx.Err() after the
// build and discard a canceled pipeline's products.
func buildAppFromStarts(ctx context.Context, view appView, cfg Config, startsByEdge map[Edge][]time.Duration, groups []appgroup.Group, st *modelStore) []AppSignature {
	if len(groups) == 0 {
		return nil
	}
	out := resize(st.sigs, len(groups))
	st.sigs = out
	st.samples.used, st.ciEdges.used, st.ciVals.used, st.hists.used, st.buckets.used = 0, 0, 0, 0, 0
	// Room for every sample up front: a fresh store allocates it exactly.
	n := 0
	for _, v := range view.samples {
		n += len(v)
	}
	if len(st.samples.buf) < n {
		st.samples.buf = make([]float64, n+len(st.samples.buf)/4)
	}
	reg := obs.From(ctx)
	for i, g := range groups {
		if ctx.Err() != nil {
			break
		}
		sp := reg.Span("signature.group_build")
		buildGroupSig(&out[i], g, view, cfg, startsByEdge, st)
		sp.End()
	}
	return out
}

// buildGroupSig builds group g's signature into sig, reusing its maps.
func buildGroupSig(sig *AppSignature, g appgroup.Group, view appView, cfg Config, startsByEdge map[Edge][]time.Duration, st *modelStore) {
	*sig = AppSignature{
		Group:       g,
		LogDuration: view.meta.Duration(),
		CG:          cleared(sig.CG, len(g.Edges)),
		FS:          sig.FS,
		CI:          cleared(sig.CI, len(g.Nodes)),
		DD:          cleared(sig.DD, 0),
		PC:          cleared(sig.PC, 0),
	}
	if sig.FS == nil {
		sig.FS = make(map[Edge]FlowStats, len(g.Edges))
	}
	for _, e := range g.Edges {
		sig.CG[e] = true
		var removed []removedSample
		if id, ok := view.ids[e]; ok && int(id) < len(view.samples) {
			removed = view.samples[id]
		}
		fs := edgeStats(startsByEdge[e], removed, &st.samples)
		sig.FS[e] = fs
		mergeGroupFS(&sig.GroupFS, fs)
	}
	// FS is not cleared: a FlowStats is stored out of line, one
	// allocation per key inserted, so only the edges gone are deleted.
	maps.DeleteFunc(sig.FS, func(e Edge, _ FlowStats) bool { return !sig.CG[e] })
	buildCI(sig, st)
	buildDDAndPC(sig, startsByEdge, view.meta, cfg, st)
}

// mergeGroupFS folds one edge's statistics into the group-level
// aggregate: total flow count, earliest first-seen, and merged counter
// summaries. Raw per-flow samples stay per-edge to bound memory.
func mergeGroupFS(g *FlowStats, fs FlowStats) {
	if fs.FlowCount > 0 && (g.FlowCount == 0 || fs.FirstSeen < g.FirstSeen) {
		g.FirstSeen = fs.FirstSeen
	}
	g.FlowCount += fs.FlowCount
	g.Bytes = g.Bytes.Merge(fs.Bytes)
	g.Packets = g.Packets.Merge(fs.Packets)
	g.Duration = g.Duration.Merge(fs.Duration)
}

// edgeStats folds an edge's FlowRemoved counters, in log order, into
// its FS statistics; the byte counts are kept, in one exact-size piece
// of samples, and summarized from it.
func edgeStats(starts []time.Duration, removed []removedSample, samples *slab[float64]) FlowStats {
	fs := FlowStats{FlowCount: len(starts)}
	if len(starts) > 0 {
		fs.FirstSeen = slices.Min(starts)
	}
	if len(removed) > 0 {
		fs.BytesSamples = samples.cut(len(removed))
	}
	var pkts, durs stats.Welford
	for i, s := range removed {
		fs.BytesSamples[i] = float64(s.Bytes)
		pkts.Add(float64(s.Packets))
		durs.Add(float64(s.Duration))
	}
	fs.Bytes, fs.Packets, fs.Duration = stats.Summarize(fs.BytesSamples), pkts.Summary(), durs.Summary()
	return fs
}

// buildCI computes, for each member node, the normalized flow count per
// adjacent edge (paper: "number of flows on each incoming or outgoing
// edge ... normalized to the total number of communications to and from
// the node").
func buildCI(sig *AppSignature, st *modelStore) {
	for _, node := range sig.Group.Nodes {
		edges := st.edgeBuf[:0]
		for _, e := range sig.Group.Edges {
			if e.Src == node || e.Dst == node {
				edges = append(edges, e)
			}
		}
		st.edgeBuf = edges
		if len(edges) == 0 {
			continue
		}
		slices.SortFunc(edges, CompareEdges)
		n := len(edges)
		ci := CISig{Edges: st.ciEdges.cut(n), Counts: st.ciVals.cut(n), Fractions: st.ciVals.cut(n)}
		copy(ci.Edges, edges)
		total := 0.0
		for i, e := range edges {
			ci.Counts[i] = float64(sig.FS[e].FlowCount)
			total += ci.Counts[i]
		}
		clear(ci.Fractions)
		if total > 0 {
			for i, c := range ci.Counts {
				ci.Fractions[i] = c / total
			}
		}
		sig.CI[node] = ci
	}
}

// buildDDAndPC computes the delay distribution and partial correlation
// for every adjacent edge pair (A->B, B->C) of the group.
func buildDDAndPC(sig *AppSignature, startsByEdge map[Edge][]time.Duration, meta logMeta, cfg Config, st *modelStore) {
	// Adjacent pairs share node B.
	pairs := st.pairs[:0]
	for _, in := range sig.Group.Edges {
		for _, out := range sig.Group.Edges {
			if in.Dst == out.Src && in.Src != out.Dst {
				pairs = append(pairs, EdgePair{In: in, Out: out})
			}
		}
	}
	slices.SortFunc(pairs, ComparePairs)
	st.pairs = pairs

	for _, p := range pairs {
		ins := startsByEdge[p.In]
		outs := startsByEdge[p.Out]
		if dd, ok := delayDistribution(ins, outs, cfg, st); ok {
			sig.DD[p] = dd
		}
		if pc, ok := edgeCorrelation(ins, outs, meta, cfg, &st.series); ok {
			sig.PC[p] = pc
		}
	}
}

// delayDistribution pairs each incoming flow start with all subsequent
// outgoing flow starts within the window and histograms the deltas
// (paper §III-B, DD). ins and outs are the two edges' occurrence starts;
// outs must be in time order, as a pipeline's index is. The buckets are
// cut once, for the longest delay the window and the starts admit.
func delayDistribution(ins, outs []time.Duration, cfg Config, st *modelStore) (DDSig, bool) {
	if len(ins) == 0 || len(outs) == 0 || cfg.DDBin <= 0 {
		return DDSig{}, false
	}
	h := stats.Histogram{Width: float64(cfg.DDBin)}
	if longest := min(cfg.DDWindow, outs[len(outs)-1]-ins[0]); longest >= 0 {
		h.Counts = st.buckets.cut(int(float64(longest)/h.Width) + 1)[:0]
	}
	samples := 0
	for _, in := range ins {
		// The search admits an outgoing flow starting at the same instant
		// as the incoming one (delay 0, common with the discrete-event
		// clock).
		idx, _ := slices.BinarySearch(outs, in)
		for ; idx < len(outs); idx++ {
			d := outs[idx] - in
			if d > cfg.DDWindow {
				break
			}
			h.Add(float64(d))
			samples++
		}
	}
	if samples == 0 {
		return DDSig{}, false
	}
	peak, _ := h.DominantPeak()
	kept := &st.hists.cut(1)[0]
	*kept = h
	return DDSig{Histogram: kept, Peak: peak, Samples: samples}, true
}

// edgeCorrelation computes the Pearson correlation between the two
// edges' per-epoch flow-count time series (paper §III-B, PC). Both
// series are drawn from *scratch, grown only when it is too short.
func edgeCorrelation(ins, outs []time.Duration, meta logMeta, cfg Config, scratch *[]float64) (float64, bool) {
	// Round the epoch count up: a log whose duration is not an epoch
	// multiple still contributes its tail remainder as a partial epoch
	// instead of silently dropping every occurrence in it.
	nEpochs := int((meta.Duration() + cfg.PCEpoch - 1) / cfg.PCEpoch)
	if nEpochs < 3 {
		return 0, false
	}
	if len(*scratch) < 2*nEpochs {
		*scratch = make([]float64, 2*nEpochs)
	}
	series := func(s []float64, starts []time.Duration) []float64 {
		clear(s)
		for _, start := range starts {
			i := int((start - meta.Start) / cfg.PCEpoch)
			if i == nEpochs && start == meta.End {
				i-- // an episode starting exactly at End counts in the last epoch
			}
			if i >= 0 && i < nEpochs {
				s[i]++
			}
		}
		return s
	}
	buf := *scratch
	r, err := stats.Pearson(series(buf[:nEpochs], ins), series(buf[nEpochs:2*nEpochs], outs))
	if err != nil {
		return 0, false
	}
	return r, true
}
