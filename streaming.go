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
// Log enters through BuildSignatures as a single batch. A batch is only
// valid until the next call: a columnar source recycles its storage.
type EventSource = signature.EventSource

// ReadFilter restricts a columnar read to a query's events: a time
// window ([From, To), active when To > From) and/or a host set (flow
// source or destination), composed with logical AND. Whole segments the
// on-disk index proves irrelevant are pruned before any payload byte is
// read; within overlapping segments, non-matching events are dropped at
// decode time, never materialized.
type ReadFilter = colseg.Filter

// ColumnarOptions tunes a columnar read: what to keep (Filter). The
// zero options read everything.
type ColumnarOptions struct {
	Filter ReadFilter
}

// NewColumnarSourceOptions opens an FDC1 (segmented columnar) stream —
// as written by `flowdiff convert -to columnar` — as an EventSource for
// BuildSignaturesReader. The header is validated immediately; events
// decode lazily, one segment at a time, with every column decoded. The
// filter prunes segments from the on-disk index and drops non-matching
// events at decode time; counters in the context's obs registry
// (colseg.segments.pruned / .pruned_by_index, colseg.events.filtered,
// colseg.bytes.decoded / .skipped) record the work avoided. A
// time-filtered source reports the filter window from Bounds, so
// signatures built from it cover exactly the queried interval.
func NewColumnarSourceOptions(ctx context.Context, r io.Reader, o ColumnarOptions) (EventSource, error) {
	cr, err := colseg.NewReaderContext(ctx, r, colseg.ReaderOptions{Filter: o.Filter})
	if err != nil {
		return nil, fmt.Errorf("flowdiff: opening columnar log: %w: %w", ErrBadLog, err)
	}
	return cr, nil
}

// BuildSignaturesReader runs FlowDiff's modeling phase as a reference
// build — the only implementation of it: BuildSignatures, the current
// side of Compare and RediagnoseWindow, and Monitor windows enter the
// same pipeline. The source is drained exactly once: flow occurrences
// are extracted incrementally and every other aggregate the builds
// need — including the per-interval slices for the stability analysis,
// sized by Options.Stability — is folded in during the same pass; the
// application, infrastructure, and stability builds then run in turn.
// Beyond what the source itself holds, peak memory is one batch plus
// the aggregates and occurrences, all of it pooled storage that earlier
// builds handed back; what the returned Signatures hold is the caller's.
//
// The result depends only on the event sequence, not on its batching
// (an unsorted log serializes to colseg in sorted order, so a capture's
// build equals the in-memory build of its time-sorted log). The
// returned Signatures carry an event-free Log stub recording only the
// source's bounds.
//
// A nil or event-free source returns ErrEmptyLog; cancellation stops
// the build, discards the partial products, and returns ErrCanceled
// wrapping ctx.Err(); a source read error (a capture corrupt past its
// header, say) returns ErrBadLog wrapping the cause. Stage timings and
// counters go to the obs registry traveling in ctx; instrumentation
// never changes the output.
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
		return nil, fmt.Errorf("flowdiff: building signatures: %w: %w", ErrBadLog, err)
	}
	defer p.Release()
	if p.EventCount() == 0 {
		return nil, fmt.Errorf("flowdiff: building signatures: %w", ErrEmptyLog)
	}
	start, end := src.Bounds()
	return signaturesFromPipeline(ctx, &Log{Start: start, End: end}, p, opts)
}
