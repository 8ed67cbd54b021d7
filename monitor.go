package flowdiff

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net/netip"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/diagnose"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/core/taskmine"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

// Monitor runs FlowDiff continuously: control events are appended as they
// arrive, and every window the accumulated interval is modeled and
// compared against the frozen baseline — the operational mode §III
// sketches ("FlowDiff frequently models the behavior of a data center").
//
// The modeling cost per window is O(window events), independent of how
// long the monitor has been running, and the window is stored once:
// Observe hands each event to a signature.StreamExtractor, which keeps
// control events in pooled chunks, a small record per FlowRemoved, and
// a count of everything else. A flush gathers the window's episodes,
// folds the aggregates from the same store, models and diffs, and only
// once the report exists resets the extractor, returning every chunk to
// the shared pool: an idle monitor holds no event memory.
// Application-group discovery is cached across windows —
// rediscovered only when the window's host edge set changes.
//
// Flush boundaries are aligned to a fixed grid: every automatic window
// is [baseline.End + k·window, baseline.End + (k+1)·window). A burst
// followed by a quiet gap therefore produces normal-width windows and
// then silence — never one oversized window spanning the gap. Grid
// cells with no events produce no report, and windows with fewer flow
// occurrences than Options.Stability.MinSamples (default 3) abstain
// from diagnosis, mirroring the paper's per-interval stability
// abstention: a near-empty sliver (the tail of a burst, or the residue
// a final Flush finds past the last grid boundary) carries too little
// traffic to model and would otherwise always diff as "every group
// disappeared". Detecting total silence is a liveness watchdog's job,
// not a behavior differ's.
//
// Monitor is not safe for concurrent use; feed it from the goroutine that
// owns the event source (the simulator loop or a controller.Server
// drainer).
type Monitor struct {
	opts     Options
	th       Thresholds
	window   time.Duration
	automata []*TaskAutomaton
	// baseline is the frozen reference build. Its Log is an event-free
	// stub: of the baseline's events only Snapshot's two integers remain.
	baseline       *Signatures
	baselineEvents int
	baselineEnd    time.Duration
	r              *appgroup.Resolver
	sigCfg         signature.Config

	// ex holds the open window; start and end are its bounds so far.
	ex         *signature.StreamExtractor
	start, end time.Duration
	// origin anchors the window grid (the baseline's end); next is the
	// grid boundary at which the buffered window flushes.
	origin time.Duration
	next   time.Duration
	// events is the "monitor.events" counter of eventsReg, the registry
	// the last Observe's context carried.
	eventsReg *obs.Registry
	events    *obs.Counter

	// Cross-window group-discovery cache: groups is reused as long as a
	// window's host edge set equals groupEdges (discovery is a pure
	// function of the edge set); nil until the first window.
	groupEdges map[appgroup.Edge]int
	groups     []appgroup.Group

	// minOcc is the minimum flow-occurrence count a window needs to be
	// diagnosed; sparser windows abstain.
	minOcc int

	reports []MonitorReport
	alarmed int // reports with unexplained changes
}

// MonitorReport is one window's diagnosis.
type MonitorReport struct {
	// From and To delimit the interval the report covers. Automatic
	// (grid-boundary) flushes cover the half-open [From, To) with To on
	// the window grid; the final manual Flush instead covers the closed
	// [From, To] with To equal to the last observed event's time — the
	// tail event is included rather than stranded in a window that
	// would never flush.
	From, To time.Duration
	Report   Report
}

// NewMonitor creates a monitor against a baseline built from a
// known-good log. window controls how often diffs are produced (default
// 1 minute); automatic flushes land on multiples of window past the
// baseline's end. ctx governs (and its obs registry observes) the
// baseline signature build.
func NewMonitor(ctx context.Context, baseline *Log, window time.Duration, automata []*TaskAutomaton, th Thresholds, opts Options) (*Monitor, error) {
	if window <= 0 {
		window = time.Minute
	}
	sigCfg := opts.sigConfig()
	minOcc := opts.Stability.MinSamples
	if minOcc <= 0 {
		minOcc = 3
	}
	m := &Monitor{
		opts:     opts,
		th:       th,
		window:   window,
		automata: automata,
		r:        opts.resolver(),
		sigCfg:   sigCfg,
		ex:       signature.NewStreamExtractor(sigCfg.OccurrenceGap),
		minOcc:   minOcc,
	}
	if err := m.setBaseline(ctx, baseline); err != nil {
		return nil, fmt.Errorf("flowdiff: building monitor baseline: %w", err)
	}
	m.start, m.end, m.origin, m.next = baseline.End, baseline.End, baseline.End, baseline.End+window
	return m, nil
}

// setBaseline models the reference build every window diffs against; on
// error the monitor is unchanged.
func (m *Monitor) setBaseline(ctx context.Context, baseline *Log) error {
	if baseline == nil || len(baseline.Events) == 0 {
		return ErrNoBaseline
	}
	base, err := BuildSignaturesReader(ctx, signature.LogSource(baseline), m.opts)
	if err != nil {
		return err
	}
	m.baseline, m.baselineEvents, m.baselineEnd = base, len(baseline.Events), baseline.End
	return nil
}

// Baseline exposes the frozen baseline signatures.
func (m *Monitor) Baseline() *Signatures { return m.baseline }

// SwapBaseline hot-swaps the frozen baseline: the new known-good log is
// modeled (under ctx) and replaces the signatures every subsequent
// window diffs against. Everything else survives the swap — the
// open window in the extractor, the window grid, and the report
// history — so a long-running tenant can
// re-baseline without dropping its stream. On error (empty log,
// cancellation) the old baseline stays in place.
func (m *Monitor) SwapBaseline(ctx context.Context, baseline *Log) error {
	if err := m.setBaseline(ctx, baseline); err != nil {
		return fmt.Errorf("flowdiff: monitor baseline swap: %w", err)
	}
	return nil
}

// MonitorSnapshot is a point-in-time view of a monitor's live state —
// the status a long-running service reports per tenant.
type MonitorSnapshot struct {
	// WindowStart is the open (buffered, not yet flushed) window's
	// start; Buffered is how many events it holds.
	WindowStart time.Duration
	Buffered    int
	// NextFlush is the grid boundary at which the open window flushes.
	NextFlush time.Duration
	// Windows counts the reports produced so far; Alarmed counts those
	// with unexplained changes.
	Windows, Alarmed int
	// BaselineEvents and BaselineEnd describe the frozen baseline.
	BaselineEvents int
	BaselineEnd    time.Duration
}

// Snapshot reports the monitor's live state. Like every other Monitor
// method it must be called from the goroutine that owns the monitor.
func (m *Monitor) Snapshot() MonitorSnapshot {
	return MonitorSnapshot{
		WindowStart:    m.start,
		Buffered:       m.ex.Events(),
		NextFlush:      m.next,
		Windows:        len(m.reports),
		Alarmed:        m.alarmed,
		BaselineEvents: m.baselineEvents,
		BaselineEnd:    m.baselineEnd,
	}
}

// Observe appends one control event. When the event crosses the
// current window's grid boundary, the buffered window is diagnosed
// first and the resulting report returned (nil otherwise); the event
// then opens the grid cell containing it. Events must arrive in time
// order.
//
// ctx governs (and its obs registry observes) only the window flush a
// boundary-crossing event triggers: cancellation mid-flush surfaces as
// ErrCanceled, the window's partial model is discarded, and the event
// itself is still buffered. Cancellation is non-destructive — the
// interrupted window (boundary event included) stays buffered, the
// grid does not advance, and the next boundary crossing retries the
// flush; a retried window therefore keeps its grid To but may model
// trailing events at or past it (the following window's cell start is
// computed from its own first event, so windows never overlap).
// Per-event cost is one counter increment ("monitor.events", its handle
// cached per registry) plus the extractor append.
func (m *Monitor) Observe(ctx context.Context, e flowlog.Event) (*MonitorReport, error) {
	if e.Time < m.start {
		return nil, fmt.Errorf("flowdiff: %w: event at %v precedes current window start %v", ErrOutOfOrder, e.Time, m.start)
	}
	if reg := obs.From(ctx); m.events == nil || reg != m.eventsReg {
		m.eventsReg, m.events = reg, reg.Counter("monitor.events")
	}
	m.events.Inc()
	var rep *MonitorReport
	var flushErr error
	if e.Time >= m.next {
		rep, flushErr = m.flushTo(ctx, m.next)
		if flushErr == nil {
			// Jump to the grid cell containing e; cells skipped during a
			// quiet gap produce no windows.
			start := m.origin + (e.Time-m.origin)/m.window*m.window
			m.next = start + m.window
			m.start, m.end = start, start
		}
	}
	// The event is buffered whether or not the flush succeeded; a
	// canceled flush must not drop it.
	m.ex.Append(e)
	if e.Time > m.end {
		m.end = e.Time
	}
	return rep, flushErr
}

// Flush diagnoses the buffered partial window immediately
// (automatic flushes happen inside Observe when a grid boundary is
// crossed). The report covers [window start, last observed event].
// Returns nil when the buffer is empty.
func (m *Monitor) Flush(ctx context.Context) (*MonitorReport, error) {
	if m.ex.Events() == 0 {
		return nil, nil
	}
	return m.flushTo(ctx, m.end)
}

// flushTo diagnoses the buffered interval as the window [start, to) and
// opens the next one at to. An empty buffer (a grid cell that saw no
// events) produces no report. Nothing is consumed until the report
// exists (or the window abstains): Gather leaves the extractor intact,
// so a canceled flush leaves the monitor as it was and the retry models
// everything observed by then — a flow that continues after the cancel
// stays one episode.
//
// The whole window diagnosis is timed as the span "monitor.flush";
// diagnosed windows count into "monitor.windows" and sparse ones into
// "monitor.abstained".
func (m *Monitor) flushTo(ctx context.Context, to time.Duration) (*MonitorReport, error) {
	if m.ex.Events() == 0 {
		m.start, m.end = to, to
		return nil, nil
	}
	if cerr := canceled(ctx); cerr != nil {
		return nil, fmt.Errorf("flowdiff: monitor flush: %w", cerr)
	}
	occs := m.ex.Gather()
	if len(occs) < m.minOcc {
		// Too sparse to model; abstain (see the type comment).
		obs.From(ctx).Counter("monitor.abstained").Inc()
		m.openWindow(to)
		return nil, nil
	}
	sp := obs.Span(ctx, "monitor.flush")
	defer sp.End()
	cur, err := m.signaturesFor(ctx, to, occs)
	if err != nil {
		return nil, err
	}
	changes := Diff(ctx, m.baseline, cur, m.th)
	var tasks []TaskDetection
	if len(m.automata) > 0 {
		tasks = detectTasks(taskmine.FlowsFromOccurrences(occs), m.automata)
	}
	rep := MonitorReport{
		From:   m.start,
		To:     to,
		Report: m.diagnose(ctx, changes, tasks),
	}
	obs.From(ctx).Counter("monitor.windows").Inc()
	m.reports = append(m.reports, rep)
	if len(rep.Report.Unknown) > 0 {
		m.alarmed++
	}
	m.openWindow(to)
	return &rep, nil
}

// openWindow drops the flushed window (its occurrences die here) and
// starts the next one at from.
func (m *Monitor) openWindow(from time.Duration) {
	m.ex.Reset()
	m.start, m.end = from, from
}

// diagnose is Diagnose with the monitor's own memoizing resolver.
func (m *Monitor) diagnose(ctx context.Context, changes []Change, tasks []TaskDetection) Report {
	return diagnose.DiagnoseContext(ctx, changes, tasks, m.r, m.opts.Topo, 0)
}

// signaturesFor models the window [start, to] from its gathered
// occurrences as a current build (no stability product), reusing the
// previous window's application groups when the host edge set is unchanged.
func (m *Monitor) signaturesFor(ctx context.Context, to time.Duration, occs []signature.Occurrence) (*Signatures, error) {
	p := signature.NewPipelineFromOccurrencesContext(ctx, m.ex, m.start, to, m.r, m.sigCfg, 0, occs)
	// Counts are ignored: discovery depends only on which edges exist.
	sameEdge := func(int, int) bool { return true }
	if edges := p.Edges(); m.groupEdges == nil || !maps.EqualFunc(edges, m.groupEdges, sameEdge) {
		m.groups = appgroup.DiscoverFromEdges(edges, m.sigCfg.Special)
		m.groupEdges = edges
	}
	p.SetGroups(m.groups)
	return signaturesFromPipeline(ctx, &Log{Start: m.start, End: to}, p, m.opts)
}

// RediagnoseWindow re-runs one window's diagnosis from an archived FDC1
// capture — the drill-down path: a live window raised an alarm, the
// operator re-reads just that window (optionally narrowed to suspect
// hosts) from the on-disk log and diffs it against the same frozen
// baseline. The columnar read is query-aware: segments outside the
// window (or, on current-format files, segments whose index proves none
// of the hosts appear) are pruned before any payload decode, so the
// cost scales with the window, not the capture.
//
// The window's events stream straight into the signature build (a
// current build: stability is the reference side's product, the frozen
// baseline's) and are never materialized; it does not hand back the
// window's flow starts, so re-diagnosed reports skip task replay and
// classify changes against the baseline alone. The report is not
// appended to Reports. A window with no matching events returns
// ErrEmptyLog wrapped.
func (m *Monitor) RediagnoseWindow(ctx context.Context, r io.Reader, from, to time.Duration, hosts []netip.Addr) (*MonitorReport, error) {
	src, err := NewColumnarSourceOptions(ctx, r, ColumnarOptions{
		Filter: ReadFilter{From: from, To: to, Hosts: hosts},
	})
	if err != nil {
		return nil, fmt.Errorf("flowdiff: monitor rediagnose: %w", err)
	}
	cur, err := buildFromSource(ctx, src, m.opts, 0)
	if err != nil {
		return nil, fmt.Errorf("flowdiff: monitor rediagnose: %w", err)
	}
	changes := Diff(ctx, m.baseline, cur, m.th)
	return &MonitorReport{
		From:   from,
		To:     to,
		Report: m.diagnose(ctx, changes, nil),
	}, nil
}

// Reports returns every report produced so far.
func (m *Monitor) Reports() []MonitorReport { return m.reports }

// Alarms returns the reports that contain unexplained changes.
func (m *Monitor) Alarms() []MonitorReport {
	var out []MonitorReport
	for _, r := range m.reports {
		if len(r.Report.Unknown) > 0 {
			out = append(out, r)
		}
	}
	return out
}
