package signature

import (
	"context"
	"fmt"
	"io"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
	"flowdiff/internal/parallel"
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
type sourceAgg struct {
	meta    logMeta
	edges   map[Edge]int
	removed map[Edge][]removedSample
	// removals holds each flow key's first FlowRemoved, in log order.
	removals []removedFlow
	// segs mirror flowlog.Segment(intervals) over [Start, End]; segErr
	// preserves Segment's error for Stability-time parity.
	segs     []segAgg
	segWidth time.Duration
	segErr   error
	events   int

	seenFlows   map[flowlog.FlowKey]bool
	seenRemoved map[flowlog.FlowKey]bool
}

// segAgg is one stability interval's slice of the aggregates.
type segAgg struct {
	meta    logMeta
	edges   map[Edge]int
	removed map[Edge][]removedSample
	seen    map[flowlog.FlowKey]bool
}

func newSourceAgg(start, end time.Duration, intervals int) *sourceAgg {
	a := &sourceAgg{
		meta:        logMeta{Start: start, End: end},
		edges:       make(map[Edge]int),
		removed:     make(map[Edge][]removedSample),
		seenFlows:   make(map[flowlog.FlowKey]bool),
		seenRemoved: make(map[flowlog.FlowKey]bool),
	}
	segs, err := (&flowlog.Log{Start: start, End: end}).Segment(intervals)
	if err != nil {
		a.segErr = err
		return a
	}
	a.segWidth = (end - start) / time.Duration(intervals)
	a.segs = make([]segAgg, len(segs))
	for i, s := range segs {
		a.segs[i] = segAgg{
			meta:    logMeta{Start: s.Start, End: s.End},
			edges:   make(map[Edge]int),
			removed: make(map[Edge][]removedSample),
			seen:    make(map[flowlog.FlowKey]bool),
		}
	}
	return a
}

// segIndex maps an event time to its stability interval, mirroring
// flowlog.Segment's windows: half-open except the final interval, which
// absorbs the division remainder and is inclusive of End. Events outside
// [Start, End] belong to no interval (Segment's windows never cover
// them either).
func (a *sourceAgg) segIndex(t time.Duration) int {
	if len(a.segs) == 0 || t < a.meta.Start || t > a.meta.End {
		return -1
	}
	i := int((t - a.meta.Start) / a.segWidth)
	if i >= len(a.segs) {
		i = len(a.segs) - 1
	}
	return i
}

// add folds one event into the aggregates. Events must arrive in log
// order: the sample slices' order is part of the byte-identical
// contract.
func (a *sourceAgg) add(e *flowlog.Event, r *appgroup.Resolver) {
	a.events++
	switch e.Type {
	case flowlog.EventPacketIn:
		edge := Edge{Src: r.Node(e.Flow.Src), Dst: r.Node(e.Flow.Dst)}
		if !a.seenFlows[e.Flow] {
			a.seenFlows[e.Flow] = true
			a.edges[edge]++
		}
		if i := a.segIndex(e.Time); i >= 0 {
			s := &a.segs[i]
			if !s.seen[e.Flow] {
				s.seen[e.Flow] = true
				s.edges[edge]++
			}
		}
	case flowlog.EventFlowRemoved:
		edge := Edge{Src: r.Node(e.Flow.Src), Dst: r.Node(e.Flow.Dst)}
		sample := removedSample{Bytes: e.Bytes, Packets: e.Packets, Duration: e.FlowDuration}
		a.removed[edge] = append(a.removed[edge], sample)
		if !a.seenRemoved[e.Flow] {
			a.seenRemoved[e.Flow] = true
			a.removals = append(a.removals, removedFlow{Key: e.Flow, Bytes: e.Bytes})
		}
		if i := a.segIndex(e.Time); i >= 0 {
			s := &a.segs[i]
			s.removed[edge] = append(s.removed[edge], sample)
		}
	}
}

// streamStageEvents is how many staged control events accumulate before
// the sharded extractor drains them onto the worker pool. Large enough
// to amortize fan-out, small enough that staging stays a rounding error
// against a decoded segment.
const streamStageEvents = 1 << 15

// streamShards is the occurrence extractor of every signature build:
// one StreamExtractor per worker, fed by flow-key hash. With a single
// worker events go straight into it; otherwise they are staged per
// shard and periodically drained in parallel — each extractor is
// touched by one worker per drain, and shard assignment depends only on
// the key, so every event of a key lands in the same extractor. Each
// per-shard Flush is in canonical occurrence order and the merge
// comparator is a total order, so the result is byte-identical for
// every worker count.
type streamShards struct {
	xs     []*StreamExtractor
	bufs   [][]flowlog.Event
	staged int
}

func newStreamShards(gap time.Duration, workers int) *streamShards {
	s := &streamShards{
		xs:   make([]*StreamExtractor, workers),
		bufs: make([][]flowlog.Event, workers),
	}
	for i := range s.xs {
		s.xs[i] = NewStreamExtractor(gap)
	}
	return s
}

// add feeds one event, draining the stages once streamStageEvents have
// accumulated. The only possible error is ctx's.
func (s *streamShards) add(ctx context.Context, e *flowlog.Event) error {
	if !relevant(e.Type) {
		return nil
	}
	if len(s.xs) == 1 {
		s.xs[0].Append(*e)
		return nil
	}
	w := hashKey(e.Flow) % uint32(len(s.xs))
	s.bufs[w] = append(s.bufs[w], *e)
	s.staged++
	if s.staged < streamStageEvents {
		return nil
	}
	return s.drain(ctx)
}

func (s *streamShards) drain(ctx context.Context) error {
	err := parallel.ForContext(ctx, len(s.xs), len(s.xs), func(w int) {
		for _, e := range s.bufs[w] {
			s.xs[w].Append(e)
		}
		s.bufs[w] = s.bufs[w][:0]
	})
	s.staged = 0
	return err
}

func (s *streamShards) finish(ctx context.Context) ([]Occurrence, error) {
	if err := s.drain(ctx); err != nil {
		return nil, err
	}
	parts := make([][]Occurrence, len(s.xs))
	if err := parallel.ForContext(ctx, len(s.xs), len(s.xs), func(w int) {
		parts[w] = s.xs[w].Flush()
	}); err != nil {
		return nil, err
	}
	return mergeOccurrences(parts), nil
}

// NewPipelineFromSourceContext builds a pipeline by streaming the
// source once: occurrences are extracted incrementally (sharded by
// flow-key hash across Config.Parallelism workers), and everything else
// the signature builds need — edge sets, FlowRemoved samples, per-
// interval aggregates sized by scfg.Intervals — is folded into running
// aggregates, so peak memory is one decoded batch plus the aggregates
// and occurrences, never more of the event stream than the source
// itself holds. The span "signature.extract" times the pass; the
// counter "signature.occurrences" accumulates the episode count. The
// pipeline's Stability must be called with the interval count the
// aggregates were sized with.
func NewPipelineFromSourceContext(ctx context.Context, src EventSource, r *appgroup.Resolver, cfg Config, scfg StabilityConfig) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	start, end := src.Bounds()
	agg := newSourceAgg(start, end, scfg.withDefaults().Intervals)
	sp := obs.Span(ctx, "signature.extract")
	occs, err := extractFromSource(ctx, src, agg, r, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return newPipeline(ctx, agg, r, cfg, occs), nil
}

// NewPipelineFromOccurrencesContext builds a pipeline over a log whose
// occurrences are already extracted, skipping the extraction pass: only
// the aggregates (sized by scfg.Intervals, as above) are folded from
// the log's events. The occurrences must be in canonical order (as
// produced by Occurrences, OccurrencesSharded, or
// StreamExtractor.Flush) and cover exactly the given log; Monitor uses
// this to reuse each window's incrementally extracted episodes. The
// pipeline takes ownership of the slice.
func NewPipelineFromOccurrencesContext(ctx context.Context, log *flowlog.Log, r *appgroup.Resolver, cfg Config, scfg StabilityConfig, occs []Occurrence) *Pipeline {
	agg := newSourceAgg(log.Start, log.End, scfg.withDefaults().Intervals)
	for i := range log.Events {
		agg.add(&log.Events[i], r)
	}
	return newPipeline(ctx, agg, r, cfg.withDefaults(), occs)
}

// extractFromSource drains the source, feeding every event to the
// aggregates and to the occurrence extractor.
func extractFromSource(ctx context.Context, src EventSource, agg *sourceAgg, r *appgroup.Resolver, cfg Config) ([]Occurrence, error) {
	shards := newStreamShards(cfg.OccurrenceGap, cfg.workers())
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("signature: reading event source: %w", err)
		}
		for i := range batch {
			agg.add(&batch[i], r)
			if err := shards.add(ctx, &batch[i]); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return shards.finish(ctx)
}
