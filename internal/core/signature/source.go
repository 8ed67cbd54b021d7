package signature

import (
	"context"
	"fmt"
	"io"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// EventSource is a pull-based stream of decoded event batches — the
// one input of the modeling pipeline. colseg.Reader implements it over
// the on-disk columnar format and LogSource over a materialized
// flowlog.Log. Next returns io.EOF after the final batch; a returned
// slice is only valid until the next call, so consumers must not retain
// it (events themselves may be copied out freely).
type EventSource interface {
	Next() ([]flowlog.Event, error)
	// Bounds returns the covered interval [start, end] — flowlog.Log's
	// Start and End.
	Bounds() (start, end time.Duration)
}

// logSource serves a materialized log as a single batch.
type logSource struct {
	log  *flowlog.Log
	done bool
}

// LogSource adapts an in-memory log to the EventSource interface: one
// batch holding every event in log order, then io.EOF.
func LogSource(log *flowlog.Log) EventSource { return &logSource{log: log} }

func (s *logSource) Next() ([]flowlog.Event, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	return s.log.Events, nil
}

func (s *logSource) Bounds() (start, end time.Duration) { return s.log.Start, s.log.End }

// sourceAgg accumulates, in one streaming pass, every per-log aggregate
// the signature builds need besides the occurrences: the distinct
// PacketIn edge set (group discovery), per-edge FlowRemoved samples in
// log order (FS statistics), the first FlowRemoved per flow key in log
// order (link-utilization attribution), and per-stability-interval
// versions of the first two. Sample order follows event order, which is
// part of the byte-identical contract: float accumulation downstream
// runs in that order.
//
// The fold runs over interned ids, not keys: an event arrives with its
// flow's dense id (the extractor's one hash), the flow's host edge is
// resolved and interned when the flow is first folded — once per flow,
// not twice per event — and every "seen" set is a flag row indexed by
// flow id. Samples collect per edge id; finish, after the last event,
// hands them to the removed maps the builds consume.
type sourceAgg struct {
	whole  segAgg
	r      *appgroup.Resolver
	events int
	// edgeOf[id] is flow id's edge id, -1 until the flow is first folded.
	// seen holds stride flags per flow: [0] a PacketIn was folded, [1] a
	// FlowRemoved was, [2+i] a PacketIn was in stability interval i.
	edgeOf  []int32
	seen    []bool
	stride  int
	edgeIDs map[Edge]int32
	edgeAt  []Edge // by edge id
	// removals holds each flow key's first FlowRemoved, in log order.
	removals []removedFlow
	// segs mirror flowlog.Segment(intervals) over [Start, End] (a current
	// build has 0 intervals and none); segErr preserves Segment's error
	// for Stability-time parity.
	intervals int
	segs      []segAgg
	segWidth  time.Duration
	segErr    error
}

// segAgg is the aggregates of one interval: a stability interval, or
// the whole log.
type segAgg struct {
	meta    logMeta
	edges   map[Edge]int
	samples [][]removedSample // by edge id
	removed map[Edge][]removedSample
}

func newSegAgg(start, end time.Duration) segAgg {
	return segAgg{meta: logMeta{Start: start, End: end}, edges: make(map[Edge]int)}
}

func (s *segAgg) sample(eid int32, v removedSample) {
	for int(eid) >= len(s.samples) {
		s.samples = append(s.samples, nil)
	}
	s.samples[eid] = append(s.samples[eid], v)
}

func (s *segAgg) finish(edgeAt []Edge) {
	s.removed = make(map[Edge][]removedSample, len(s.samples))
	for eid, v := range s.samples {
		if len(v) > 0 {
			s.removed[edgeAt[eid]] = v
		}
	}
}

func newSourceAgg(start, end time.Duration, intervals int, r *appgroup.Resolver) *sourceAgg {
	a := &sourceAgg{whole: newSegAgg(start, end), r: r, stride: 2, edgeIDs: make(map[Edge]int32), intervals: intervals}
	if intervals <= 0 {
		return a
	}
	segs, err := (&flowlog.Log{Start: start, End: end}).Segment(intervals)
	if err != nil {
		a.segErr = err
		return a
	}
	a.segWidth = (end - start) / time.Duration(intervals)
	a.stride += len(segs)
	for _, s := range segs {
		a.segs = append(a.segs, newSegAgg(s.Start, s.End))
	}
	return a
}

// segIndex maps an event time to its stability interval, mirroring
// flowlog.Segment's windows: half-open except the final interval, which
// absorbs the division remainder and is inclusive of End. Events outside
// [Start, End] belong to no interval (Segment's windows never cover
// them either).
func (a *sourceAgg) segIndex(t time.Duration) int {
	if len(a.segs) == 0 || t < a.whole.meta.Start || t > a.whole.meta.End {
		return -1
	}
	i := int((t - a.whole.meta.Start) / a.segWidth)
	if i >= len(a.segs) {
		i = len(a.segs) - 1
	}
	return i
}

// edge returns flow id's edge id and seen flags, resolving and interning
// the flow's host edge the first time the flow is folded.
func (a *sourceAgg) edge(id int32, key *flowlog.FlowKey) (int32, []bool) {
	for int(id) >= len(a.edgeOf) {
		a.edgeOf = append(a.edgeOf, -1)
		a.seen = append(a.seen, make([]bool, a.stride)...)
	}
	if a.edgeOf[id] < 0 {
		edge := Edge{Src: a.r.Node(key.Src), Dst: a.r.Node(key.Dst)}
		eid, ok := a.edgeIDs[edge]
		if !ok {
			eid = int32(len(a.edgeAt))
			a.edgeIDs[edge] = eid
			a.edgeAt = append(a.edgeAt, edge)
		}
		a.edgeOf[id] = eid
	}
	return a.edgeOf[id], a.seen[int(id)*a.stride:]
}

// packetIn folds one PacketIn of the flow interned to id.
func (a *sourceAgg) packetIn(id int32, key *flowlog.FlowKey, at time.Duration) {
	eid, seen := a.edge(id, key)
	if !seen[0] {
		seen[0] = true
		a.whole.edges[a.edgeAt[eid]]++
	}
	if i := a.segIndex(at); i >= 0 && !seen[2+i] {
		seen[2+i] = true
		a.segs[i].edges[a.edgeAt[eid]]++
	}
}

// flowRemoved folds one FlowRemoved. They must arrive in log order: the
// sample slices' order is part of the byte-identical contract.
func (a *sourceAgg) flowRemoved(rec *removedRecord) {
	eid, seen := a.edge(rec.flow, &rec.key)
	a.whole.sample(eid, rec.sample)
	if !seen[1] {
		seen[1] = true
		a.removals = append(a.removals, removedFlow{Key: rec.key, Bytes: rec.sample.Bytes})
	}
	if i := a.segIndex(rec.at); i >= 0 {
		a.segs[i].sample(eid, rec.sample)
	}
}

// finish closes the fold: the samples become the removed maps.
func (a *sourceAgg) finish() {
	a.whole.finish(a.edgeAt)
	for i := range a.segs {
		a.segs[i].finish(a.edgeAt)
	}
}

// fold replays what the extractor retains of a window into agg: the
// PacketIns in arrival order, then the FlowRemoved records in theirs
// (they touch disjoint aggregates, so this equals the interleaved pass).
func (x *StreamExtractor) fold(a *sourceAgg) {
	a.events = x.events
	a.removals = make([]removedFlow, 0, min(len(x.removed), len(x.ids)))
	for i := 0; i < x.n; i++ {
		c := x.arena[i/chunkEvents]
		if e := &c.ev[i%chunkEvents]; e.Type == flowlog.EventPacketIn {
			a.packetIn(c.flow[i%chunkEvents], &e.Flow, e.Time)
		}
	}
	for i := range x.removed {
		a.flowRemoved(&x.removed[i])
	}
	a.finish()
}

// NewPipelineFromSourceContext builds a pipeline by streaming the
// source once: control events go into one StreamExtractor (gathered
// once, when the source ends), and everything else
// the signature builds need — edge sets, FlowRemoved samples, and for a
// reference build the same per stability interval — is folded into
// running aggregates, so peak memory is one decoded batch plus the
// aggregates and the control events (in the extractor's chunks while the
// source streams, in the occurrences once it ends), never more of the
// stream than the source itself holds. The span "signature.extract"
// times the pass; the counter "signature.occurrences" accumulates the
// episode count. intervals is the caller's role: a reference build (a
// baseline, whose stability decides which components are comparable)
// passes its StabilityConfig's IntervalCount and calls Stability with
// that config; a current build (the side being compared) passes 0,
// folds no per-interval aggregates, and has no Stability product.
func NewPipelineFromSourceContext(ctx context.Context, src EventSource, r *appgroup.Resolver, cfg Config, intervals int) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	start, end := src.Bounds()
	agg := newSourceAgg(start, end, intervals, r)
	sp := obs.Span(ctx, "signature.extract")
	occs, err := extractFromSource(ctx, src, agg, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return newPipeline(ctx, agg, r, cfg, occs), nil
}

// NewPipelineFromOccurrencesContext builds the pipeline of one Monitor
// window, [start, end], from the extractor that observed it and occs,
// that extractor's Gather: there is no extraction pass and no event
// log, the aggregates (intervals as above: a Monitor window passes 0)
// are folded from what the extractor retains. The pipeline aliases the
// extractor's pooled memory through occs; the caller resets the
// extractor only when it is done with the pipeline.
func NewPipelineFromOccurrencesContext(ctx context.Context, x *StreamExtractor, start, end time.Duration, r *appgroup.Resolver, cfg Config, intervals int, occs []Occurrence) *Pipeline {
	agg := newSourceAgg(start, end, intervals, r)
	x.fold(agg)
	return newPipeline(ctx, agg, r, cfg.withDefaults(), occs)
}

// extractFromSource drains the source, interning every flow event's key
// once and feeding the id to the aggregates and to the occurrence
// extractor.
func extractFromSource(ctx context.Context, src EventSource, agg *sourceAgg, cfg Config) ([]Occurrence, error) {
	x := NewStreamExtractor(cfg.OccurrenceGap)
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("signature: reading event source: %w", err)
		}
		agg.events += len(batch)
		for i := range batch {
			e := &batch[i]
			switch e.Type {
			case flowlog.EventFlowRemoved:
				rec := recordOf(internFlow(x.ids, &e.Flow), e)
				agg.flowRemoved(&rec)
			case flowlog.EventPacketIn, flowlog.EventFlowMod:
				id := internFlow(x.ids, &e.Flow)
				if e.Type == flowlog.EventPacketIn {
					agg.packetIn(id, &e.Flow, e.Time)
				}
				x.appendID(id, e)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	agg.finish()
	return x.Flush(), nil
}
