package signature

import (
	"cmp"
	"context"
	"slices"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
	"flowdiff/internal/parallel"
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
	// Parallelism bounds the worker pool for per-group and per-interval
	// builds: 0 uses one worker per CPU, 1 forces sequential builds.
	// Results are identical for every setting.
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

// compareEdges orders edges by source, then destination.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// EdgePair is a pair of adjacent edges (in and out of the shared node).
type EdgePair struct {
	In, Out Edge
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
	// BytesSamples retains the raw per-flow byte counts for CDF plots
	// (Figure 9a).
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

// fromLog runs the modeling pipeline over an in-memory log under a
// background context — the entry point of the ctx-less helpers below,
// which internal/experiments uses for one-off builds.
func fromLog(log *flowlog.Log, r *appgroup.Resolver, cfg Config, intervals int) *Pipeline {
	p, err := NewPipelineFromSourceContext(context.Background(), LogSource(log), r, cfg, intervals)
	if err != nil {
		// A log source never fails to read and a background context is
		// never canceled.
		panic(err)
	}
	return p
}

// Build extracts both application and infrastructure signatures of a
// log from one pipeline.
func Build(log *flowlog.Log, r *appgroup.Resolver, cfg Config) ([]AppSignature, InfraSignature) {
	p := fromLog(log, r, cfg, 0)
	return p.App(), p.Infra()
}

// BuildApp extracts per-group application signatures from a log.
func BuildApp(log *flowlog.Log, r *appgroup.Resolver, cfg Config) []AppSignature {
	return fromLog(log, r, cfg, 0).App()
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
// samples per host edge, in log order. sourceAgg produces one for the
// whole log and one per stability interval.
type appView struct {
	meta    logMeta
	removed map[Edge][]removedSample
}

// indexStarts indexes occurrences by host edge, as their start times in
// occurrence (hence time) order — all the per-edge builds read of them.
func indexStarts(occs []Occurrence, r *appgroup.Resolver) map[Edge][]time.Duration {
	starts := make(map[Edge][]time.Duration)
	for i := range occs {
		o := &occs[i]
		e := Edge{Src: r.Node(o.Key.Src), Dst: r.Node(o.Key.Dst)}
		starts[e] = append(starts[e], o.Start)
	}
	return starts
}

// sliceStarts narrows an index to the occurrences starting inside seg:
// every per-edge list is in time order, so an interval's share of it is
// a subslice. The last segment includes its end, so an episode starting
// exactly at the log's End is not lost (as in sourceAgg.segIndex).
func sliceStarts(starts map[Edge][]time.Duration, seg logMeta, last bool) map[Edge][]time.Duration {
	to := seg.End
	if last {
		to++
	}
	out := make(map[Edge][]time.Duration, len(starts))
	for e, all := range starts {
		lo, _ := slices.BinarySearch(all, seg.Start)
		hi, _ := slices.BinarySearch(all, to)
		if lo < hi {
			out[e] = all[lo:hi:hi]
		}
	}
	return out
}

// buildAppFromStarts builds one signature per group; the builds share
// startsByEdge and the view's removed map read-only.
func buildAppFromStarts(ctx context.Context, view appView, cfg Config, startsByEdge map[Edge][]time.Duration, groups []appgroup.Group) []AppSignature {
	if len(groups) == 0 {
		return nil
	}
	out := make([]AppSignature, len(groups))
	reg := obs.From(ctx)
	// The error is ctx.Err(); the public entry points surface it after
	// the build, and a canceled pipeline's products are discarded.
	_ = parallel.ForContext(ctx, len(groups), cfg.workers(), func(i int) {
		sp := reg.Span("signature.group_build")
		out[i] = buildGroupSig(groups[i], view, cfg, startsByEdge)
		sp.End()
	})
	return out
}

func buildGroupSig(g appgroup.Group, view appView, cfg Config, startsByEdge map[Edge][]time.Duration) AppSignature {
	sig := AppSignature{
		Group:       g,
		LogDuration: view.meta.Duration(),
		CG:          make(map[Edge]bool),
		FS:          make(map[Edge]FlowStats),
		CI:          make(map[topology.NodeID]CISig),
		DD:          make(map[EdgePair]DDSig),
		PC:          make(map[EdgePair]float64),
	}
	for _, e := range g.Edges {
		sig.CG[e] = true
		fs := edgeStats(startsByEdge[e], view.removed[e])
		sig.FS[e] = fs
		mergeGroupFS(&sig.GroupFS, fs)
	}
	buildCI(&sig)
	buildDDAndPC(&sig, startsByEdge, view.meta, cfg)
	return sig
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

func edgeStats(starts []time.Duration, removed []removedSample) FlowStats {
	fs := FlowStats{FlowCount: len(starts)}
	if len(starts) > 0 {
		fs.FirstSeen = slices.Min(starts)
	}
	var bytes, pkts, durs []float64
	if len(removed) > 0 {
		bytes = make([]float64, len(removed))
		pkts = make([]float64, len(removed))
		durs = make([]float64, len(removed))
	}
	for i, s := range removed {
		bytes[i] = float64(s.Bytes)
		pkts[i] = float64(s.Packets)
		durs[i] = float64(s.Duration)
	}
	fs.Bytes = stats.Summarize(bytes)
	fs.Packets = stats.Summarize(pkts)
	fs.Duration = stats.Summarize(durs)
	fs.BytesSamples = bytes
	return fs
}

// buildCI computes, for each member node, the normalized flow count per
// adjacent edge (paper: "number of flows on each incoming or outgoing
// edge ... normalized to the total number of communications to and from
// the node").
func buildCI(sig *AppSignature) {
	for _, node := range sig.Group.Nodes {
		var edges []Edge
		for e := range sig.CG {
			if e.Src == node || e.Dst == node {
				edges = append(edges, e)
			}
		}
		if len(edges) == 0 {
			continue
		}
		slices.SortFunc(edges, compareEdges)
		ci := CISig{Edges: edges}
		total := 0.0
		for _, e := range edges {
			c := float64(sig.FS[e].FlowCount)
			ci.Counts = append(ci.Counts, c)
			total += c
		}
		ci.Fractions = make([]float64, len(ci.Counts))
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
func buildDDAndPC(sig *AppSignature, startsByEdge map[Edge][]time.Duration, meta logMeta, cfg Config) {
	// Adjacent pairs share node B.
	var pairs []EdgePair
	for in := range sig.CG {
		for out := range sig.CG {
			if in.Dst == out.Src && in.Src != out.Dst {
				pairs = append(pairs, EdgePair{In: in, Out: out})
			}
		}
	}
	slices.SortFunc(pairs, func(a, b EdgePair) int {
		if c := compareEdges(a.In, b.In); c != 0 {
			return c
		}
		return compareEdges(a.Out, b.Out)
	})

	for _, p := range pairs {
		ins := startsByEdge[p.In]
		outs := startsByEdge[p.Out]
		if dd, ok := delayDistribution(ins, outs, cfg); ok {
			sig.DD[p] = dd
		}
		if pc, ok := edgeCorrelation(ins, outs, meta, cfg); ok {
			sig.PC[p] = pc
		}
	}
}

// delayDistribution pairs each incoming flow start with all subsequent
// outgoing flow starts within the window and histograms the deltas
// (paper §III-B, DD). ins and outs are the two edges' occurrence starts;
// outs must be in time order, as a pipeline's index is.
func delayDistribution(ins, outs []time.Duration, cfg Config) (DDSig, bool) {
	if len(ins) == 0 || len(outs) == 0 {
		return DDSig{}, false
	}
	h, err := stats.NewHistogram(0, float64(cfg.DDBin))
	if err != nil {
		return DDSig{}, false
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
	return DDSig{Histogram: h, Peak: peak, Samples: samples}, true
}

// edgeCorrelation computes the Pearson correlation between the two
// edges' per-epoch flow-count time series (paper §III-B, PC).
func edgeCorrelation(ins, outs []time.Duration, meta logMeta, cfg Config) (float64, bool) {
	// Round the epoch count up: a log whose duration is not an epoch
	// multiple still contributes its tail remainder as a partial epoch
	// instead of silently dropping every occurrence in it.
	nEpochs := int((meta.Duration() + cfg.PCEpoch - 1) / cfg.PCEpoch)
	if nEpochs < 3 {
		return 0, false
	}
	series := func(starts []time.Duration) []float64 {
		s := make([]float64, nEpochs)
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
	r, err := stats.Pearson(series(ins), series(outs))
	if err != nil {
		return 0, false
	}
	return r, true
}
