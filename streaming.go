package flowdiff

import (
	"context"
	"fmt"
	"io"

	"flowdiff/internal/core/signature"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/obs"
)

// Event is one control message observed at the controller.
type Event = flowlog.Event

// EventSource is a pull-based stream of decoded event batches — the
// input of the modeling phase. colseg.Reader implements it over the
// on-disk columnar format, so signatures can be built from a 100M-event
// capture without ever holding its event slice in memory; an in-memory
// Log enters through BuildSignatures as a single batch.
type EventSource = signature.EventSource

// ReadFilter restricts a columnar read to a query's events: a time
// window ([From, To), active when To > From), a host set (flow source
// or destination), and/or a switch set, composed with logical AND.
// Whole segments the on-disk index proves irrelevant are pruned before
// any payload byte is read; within overlapping segments, non-matching
// events are dropped at decode time, never materialized.
type ReadFilter = colseg.Filter

// ColumnSet selects event fields for a projected columnar read; zero
// selects every column. See the Col* constants.
type ColumnSet = colseg.ColumnSet

// Projectable columns for ColumnarOptions.Columns. Combine with |:
// ColTime | ColSrc | ColDst is the flow-endpoint projection window
// counting and suspect-flow resolution need. Unprojected columns leave
// their event fields at the zero value and their payload blocks are
// never decoded.
const (
	ColTime         = colseg.ColTime
	ColType         = colseg.ColType
	ColReason       = colseg.ColReason
	ColProto        = colseg.ColProto
	ColSrc          = colseg.ColSrc
	ColDst          = colseg.ColDst
	ColSrcPort      = colseg.ColSrcPort
	ColDstPort      = colseg.ColDstPort
	ColInPort       = colseg.ColInPort
	ColOutPort      = colseg.ColOutPort
	ColDPID         = colseg.ColDPID
	ColBytes        = colseg.ColBytes
	ColPackets      = colseg.ColPackets
	ColFlowDuration = colseg.ColFlowDuration
	ColSwitch       = colseg.ColSwitch
	AllColumns      = colseg.AllColumns
	FlowColumns     = colseg.FlowColumns
)

// ColumnarOptions tunes a query-aware columnar read: what to keep
// (Filter), what to decode (Columns), and how wide to decode it
// (Parallelism). The zero options read everything serially.
type ColumnarOptions struct {
	Filter  ReadFilter
	Columns ColumnSet
	// Parallelism > 1 decodes segments concurrently behind a bounded
	// readahead that delivers batches strictly in file order — output is
	// identical to a serial read at every worker count.
	Parallelism int
}

// NewColumnarSource opens an FDC1 (segmented columnar) stream —
// as written by `flowdiff convert -to columnar` — as an EventSource for
// BuildSignaturesReader. The header is validated immediately;
// events decode lazily, one bounded batch at a time, with decode
// metrics going to the context's obs registry.
func NewColumnarSource(ctx context.Context, r io.Reader) (EventSource, error) {
	return NewColumnarSourceOptions(ctx, r, ColumnarOptions{})
}

// NewColumnarSourceOptions opens an FDC1 stream as an
// EventSource with a query attached: the filter prunes segments from
// the on-disk index and drops non-matching events at decode time, the
// projection decodes only the selected columns, and Parallelism > 1
// decodes segments concurrently with deterministic, file-ordered
// delivery. Counters in the context's obs registry
// (colseg.segments.pruned_by_index, colseg.columns.skipped,
// colseg.events.filtered, colseg.bytes.decoded / .skipped) record the
// work avoided. A time-filtered source reports the filter window from
// Bounds, so signatures built from it cover exactly the queried
// interval.
func NewColumnarSourceOptions(ctx context.Context, r io.Reader, o ColumnarOptions) (EventSource, error) {
	cr, err := colseg.NewReaderContext(ctx, r, colseg.ReaderOptions{
		Filter:      o.Filter,
		Columns:     o.Columns,
		Parallelism: o.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("flowdiff: opening columnar log: %w: %w", ErrBadLog, err)
	}
	return cr, nil
}

// BuildSignaturesReader runs FlowDiff's modeling phase as a reference
// build — the only implementation of it: BuildSignatures, the current
// side of Compare and RediagnoseWindow, and Monitor windows enter the
// same pipeline. The source is drained exactly once: flow occurrences
// are extracted incrementally (sharded by flow-key hash across the
// worker pool) and every other aggregate the builds need — including
// the per-interval slices for the stability analysis, sized by
// Options.Stability — is folded in during the same pass; the
// application, infrastructure, and stability builds then fan out onto
// a pool bounded by Options.Parallelism. Beyond what the source itself
// holds, peak memory is one batch plus the aggregates and occurrences.
//
// The result depends only on the event sequence, not on its batching
// (an unsorted log serializes to colseg in sorted order, so a capture's
// build equals the in-memory build of its time-sorted log). The
// returned Signatures carry an event-free Log stub recording only the
// source's bounds.
//
// A nil or event-free source returns ErrEmptyLog; cancellation stops
// the fan-outs, drains the pool, discards the partial products, and
// returns ErrCanceled wrapping ctx.Err(); a source read error is
// returned wrapped. Stage timings and counters go to the obs registry
// traveling in ctx; instrumentation never changes the output.
func BuildSignaturesReader(ctx context.Context, src EventSource, opts Options) (*Signatures, error) {
	return buildFromSource(ctx, src, opts, opts.Stability.IntervalCount())
}

// buildFromSource is the streamed build behind every entry point.
// intervals is the caller's role, not an option: a reference build
// passes the stability interval count; a current build — the side Diff
// compares against a baseline — passes 0 and builds no stability product.
func buildFromSource(ctx context.Context, src EventSource, opts Options, intervals int) (*Signatures, error) {
	if src == nil {
		return nil, fmt.Errorf("flowdiff: building signatures: %w", ErrEmptyLog)
	}
	defer obs.Span(ctx, "flowdiff.build").End()
	p, err := signature.NewPipelineFromSourceContext(ctx, src, opts.resolver(), opts.sigConfig(), intervals)
	if err != nil {
		if cerr := canceled(ctx); cerr != nil {
			return nil, fmt.Errorf("flowdiff: building signatures: %w", cerr)
		}
		return nil, fmt.Errorf("flowdiff: building signatures: %w", err)
	}
	if p.EventCount() == 0 {
		return nil, fmt.Errorf("flowdiff: building signatures: %w", ErrEmptyLog)
	}
	start, end := src.Bounds()
	return signaturesFromPipeline(ctx, &Log{Start: start, End: end}, p, opts)
}
