package flowdiff

import "errors"

// Sentinel errors returned (wrapped) by the public API. Match them with
// errors.Is; the wrapping text carries the operation that failed.
var (
	// ErrEmptyLog reports a nil log, or one with no events: there is
	// nothing to model. BuildSignatures, BuildSignaturesReader, Compare
	// (for the current log) and RediagnoseWindow (for a window with no
	// matching events, or an empty or inverted one: to <= from) return
	// it.
	ErrEmptyLog = errors.New("empty log")
	// ErrNoBaseline reports a missing baseline: NewMonitor and
	// Compare need a known-good log to diff against.
	ErrNoBaseline = errors.New("no baseline")
	// ErrCanceled reports that the context was canceled mid-build and
	// the partial products were discarded. It always wraps the
	// underlying ctx.Err(), so errors.Is(err, context.Canceled) (or
	// DeadlineExceeded) also matches.
	ErrCanceled = errors.New("canceled")
	// ErrOutOfOrder reports a control event older than the monitor's
	// current window: Observe requires time-ordered input and
	// refuses to rewrite history.
	ErrOutOfOrder = errors.New("event out of order")
	// ErrBadLog reports a malformed or unreadable flow-log stream,
	// wrapping the cause: NewColumnarSourceOptions returns it when the
	// columnar header fails to validate, and the signature builds
	// (BuildSignaturesReader, RediagnoseWindow, ...) when the source
	// fails mid-stream (a corrupt segment, a truncated file, a read
	// error) or the log's interval is too short to split into its
	// stability intervals.
	ErrBadLog = errors.New("bad log")
	// ErrScenario reports that constructing or executing a simulated
	// scenario failed — lab topology, workload attachment, fault
	// injection, or task execution. It wraps the underlying cause.
	ErrScenario = errors.New("scenario failed")
)
