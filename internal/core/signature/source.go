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
// it (events themselves may be copied out freely). That leaves a source
// free to recycle its batch, and to hand its decode state back to a
// pool at the call that ends the stream, as colseg.Reader does.
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

// sourceAgg accumulates, one event at a time as StreamExtractor.Add
// sees it, every per-log aggregate the signature builds need besides
// the occurrences: the distinct PacketIn edge set (group discovery),
// per-edge FlowRemoved samples in log order (FS statistics), and
// per-stability-interval versions of both. Sample order
// follows event order, which is part of the byte-identical contract:
// float accumulation downstream runs in that order.
//
// The fold runs over interned ids, not keys: an event arrives with its
// flow's dense id (the extractor's one hash), the flow's host edge is
// resolved and interned when the flow is first folded — once per flow,
// not twice per event — and every "seen" set is a flag row indexed by
// flow id. Samples collect per edge id, which the builds look up.
type sourceAgg struct {
	whole  segAgg
	r      *appgroup.Resolver
	events int
	// flowMods counts FlowMod events: the bound on CRT samples.
	flowMods int
	// edgeOf[id] is flow id's edge id, -1 until the flow is first folded.
	// seen holds stride flags per flow: [0] a PacketIn was folded, [1+i]
	// a PacketIn was in stability interval i.
	edgeOf  []int32
	seen    []bool
	stride  int
	edgeIDs map[Edge]int32
	edgeAt  []Edge // by edge id
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
}

func (s *segAgg) sample(eid int32, v removedSample) {
	for int(eid) >= len(s.samples) {
		s.samples = append(s.samples, nil)
	}
	s.samples[eid] = append(s.samples[eid], v)
}

func (s *segAgg) reset() {
	clear(s.edges)
	for i := range s.samples {
		s.samples[i] = s.samples[i][:0]
	}
}

func newSourceAgg() *sourceAgg {
	return &sourceAgg{whole: segAgg{edges: make(map[Edge]int)}, edgeIDs: make(map[Edge]int32)}
}

// bind points an empty fold at its next build: its bounds, intervals
// and resolver. The interval aggregates of an earlier build are reused,
// maps and sample slices included.
func (a *sourceAgg) bind(start, end time.Duration, intervals int, r *appgroup.Resolver) {
	a.whole.meta, a.r, a.intervals = logMeta{Start: start, End: end}, r, intervals
	a.stride, a.segs, a.segWidth, a.segErr = 1, a.segs[:0], 0, nil
	if intervals <= 0 {
		return
	}
	segs, err := (&flowlog.Log{Start: start, End: end}).Segment(intervals)
	if err != nil {
		a.segErr = err
		return
	}
	a.segWidth = (end - start) / time.Duration(intervals)
	a.stride += len(segs)
	a.segs = resize(a.segs, len(segs))
	for i, s := range segs {
		a.segs[i].meta, a.segs[i].edges = logMeta{Start: s.Start, End: s.End}, cleared(a.segs[i].edges, 0)
	}
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
		// Not append(seen, make(...)...): -race builds allocate that.
		for range a.stride {
			a.seen = append(a.seen, false)
		}
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
	if i := a.segIndex(at); i >= 0 && !seen[1+i] {
		seen[1+i] = true
		a.segs[i].edges[a.edgeAt[eid]]++
	}
}

// flowRemoved folds one FlowRemoved of flow id. They must arrive in log
// order: the sample slices' order is part of the byte-identical contract.
func (a *sourceAgg) flowRemoved(id int32, e *flowlog.Event) {
	eid, _ := a.edge(id, &e.Flow)
	s := removedSample{Bytes: e.Bytes, Packets: e.Packets, Duration: e.FlowDuration}
	a.whole.sample(eid, s)
	if i := a.segIndex(e.Time); i >= 0 {
		a.segs[i].sample(eid, s)
	}
}

func (a *sourceAgg) reset() {
	a.events, a.flowMods = 0, 0
	a.edgeOf, a.seen = a.edgeOf[:0], a.seen[:0]
	clear(a.edgeIDs)
	a.edgeAt = a.edgeAt[:0]
	a.whole.reset()
	for i := range a.segs {
		a.segs[i].reset()
	}
}

// NewPipelineFromSourceContext builds a pipeline by streaming the
// source once through one StreamExtractor (gathered once, when the
// source ends), which folds everything else the signature builds need —
// edge sets, FlowRemoved samples, and for a reference build the same per
// stability interval — as events are added, so peak memory is one
// decoded batch plus the aggregates and the control events (in the
// extractor's chunks while the source streams, in the occurrences once
// it ends), never more of the stream than the source itself holds. The
// extractor comes from a pool that earlier builds' Release calls fill,
// and Release hands it back. The span "signature.extract" times the pass;
// the counter "signature.occurrences" accumulates the episode count.
// intervals is the caller's role: a reference build (a baseline, whose
// stability decides which components are comparable) passes its
// StabilityConfig's IntervalCount and calls Stability with that config;
// a current build (the side being compared) passes 0, folds no
// per-interval aggregates, and has no Stability product.
func NewPipelineFromSourceContext(ctx context.Context, src EventSource, r *appgroup.Resolver, cfg Config, intervals int) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	start, end := src.Bounds()
	x := extractors.Get().(*StreamExtractor).bind(cfg.OccurrenceGap, r, intervals, start, end)
	sp := obs.Span(ctx, "signature.extract")
	err := extractFromSource(ctx, src, x)
	sp.End()
	if err != nil {
		return nil, err // x is dropped, not pooled half-filled
	}
	p := newPipeline(ctx, x, cfg, x.g.occs, x.g.flows)
	p.own = x
	return p, nil
}

// NewPipelineFromOccurrencesContext builds the pipeline of one Monitor
// window, [start, end], from the extractor that observed it and occs,
// that extractor's Gather (whose flow ids it reads beside them): there
// is no extraction pass and no event log. The window's events were
// folded as they were added. The pipeline
// aliases the extractor's pooled memory and its fold; the caller resets
// the extractor only when it is done with the pipeline. Its products
// reuse the last window's storage and live until the next build.
func NewPipelineFromOccurrencesContext(ctx context.Context, x *StreamExtractor, start, end time.Duration, cfg Config, occs []Occurrence) *Pipeline {
	x.agg.whole.meta = logMeta{Start: start, End: end}
	return newPipeline(ctx, x, cfg.withDefaults(), occs, x.g.flows[:len(occs)])
}

// extractFromSource drains the source into x, one Add per event, and gathers
// into x.g, whose runs stay there until Pipeline.Release resets x; the arena
// returns on every path.
func extractFromSource(ctx context.Context, src EventSource, x *StreamExtractor) error {
	defer func() { x.arena = releaseChunks(x.arena) }()
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("signature: reading event source: %w", err)
		}
		for i := range batch {
			x.Add(&batch[i])
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	x.Gather()
	return nil
}
