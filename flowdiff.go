// Package flowdiff is the public API of this FlowDiff reproduction
// ("Diagnosing Data Center Behavior Flow by Flow", ICDCS 2013): a
// flow-based data center diagnosis framework that models behavior from
// OpenFlow control traffic and detects operational problems by diffing
// behavioral signatures across time.
//
// The pipeline mirrors the paper:
//
//  1. Collect a control-traffic log (flowlog.Log) — from the bundled
//     discrete-event simulator (simnet), from the TCP OpenFlow controller
//     (controller.Server), or from disk.
//  2. BuildSignatures extracts application signatures (CG, FS, CI, DD,
//     PC) per application group and infrastructure signatures (PT, ISL,
//     CRT), plus a stability report.
//  3. MineTask learns task automata from captured runs of operator tasks;
//     DetectTasks produces the task time series of a log.
//  4. Diff compares a baseline's signatures against a current log's.
//  5. Diagnose validates changes against the task time series and reports
//     the unexplained ones with a dependency matrix, ranked problem
//     classes, and ranked suspect components.
package flowdiff

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/diagnose"
	"flowdiff/internal/core/diff"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/core/taskmine"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
	"flowdiff/internal/topology"
)

// Re-exported core types: callers outside the module use these aliases.
type (
	// Log is a control-traffic capture.
	Log = flowlog.Log
	// FlowKey identifies a flow by its 5-tuple.
	FlowKey = flowlog.FlowKey
	// AppSignature models one application group.
	AppSignature = signature.AppSignature
	// InfraSignature models the infrastructure.
	InfraSignature = signature.InfraSignature
	// Stability reports which signature components are trustworthy.
	Stability = signature.Stability
	// Change is one detected behavioral difference.
	Change = diff.Change
	// Thresholds tunes change detection.
	Thresholds = diff.Thresholds
	// Report is the complete diagnosis output.
	Report = diagnose.Report
	// ComponentScore is one change-count ranking entry.
	ComponentScore = diagnose.ComponentScore
	// SuspectScore is one evidence-voting localization suspect.
	SuspectScore = diagnose.SuspectScore
	// TaskAutomaton is a learned task signature.
	TaskAutomaton = taskmine.Automaton
	// TaskDetection is one recognized task execution.
	TaskDetection = taskmine.Detection
	// Kind identifies one signature component (CG, FS, CI, DD, PC, PT,
	// ISL, CRT).
	Kind = signature.Kind
)

// Options configures signature extraction.
type Options struct {
	// Topo resolves flow addresses to named hosts; nil falls back to
	// synthetic "ip:<addr>" node ids.
	Topo *topology.Topology
	// Special marks service nodes that bound application groups (DNS,
	// NFS, ...). Defaults to topology.ServiceNodes when Topo is the lab.
	Special []topology.NodeID
	// Signature tunes extraction (zero = paper defaults).
	Signature signature.Config
	// Stability tunes the per-interval analysis (zero = defaults).
	Stability signature.StabilityConfig
}

func (o Options) resolver() *appgroup.Resolver {
	return appgroup.NewResolver(o.Topo)
}

func (o Options) sigConfig() signature.Config {
	cfg := o.Signature
	if cfg.Special == nil && len(o.Special) > 0 {
		cfg.Special = make(map[topology.NodeID]bool, len(o.Special))
		for _, s := range o.Special {
			cfg.Special[s] = true
		}
	}
	return cfg
}

// Signatures bundles everything extracted from one log.
type Signatures struct {
	Apps  []AppSignature
	Infra InfraSignature
	// Stability is the reference side's product (§III-B: which baseline
	// components are comparable); it is nil in the current-side models
	// Compare, Monitor and RediagnoseWindow build, which Diff never reads.
	Stability map[string]Stability
	Log       *Log
}

// BuildSignatures runs FlowDiff's modeling phase on an in-memory log:
// BuildSignaturesReader over the log served as a single batch, with the
// log itself recorded in the result (Signatures.Log) for task detection
// and baseline bookkeeping.
//
// A nil or event-free log returns ErrEmptyLog; cancellation returns
// ErrCanceled wrapping ctx.Err().
func BuildSignatures(ctx context.Context, log *Log, opts Options) (*Signatures, error) {
	if log == nil || len(log.Events) == 0 {
		return nil, fmt.Errorf("flowdiff: building signatures: %w", ErrEmptyLog)
	}
	sigs, err := BuildSignaturesReader(ctx, signature.LogSource(log), opts)
	if err != nil {
		return nil, err
	}
	sigs.Log = log
	return sigs, nil
}

// signaturesFromPipeline builds every signature product of a prepared
// pipeline — stability only for a reference build. Shared between
// buildFromSource (whose pipeline extracted the occurrences itself) and
// Monitor (which hands the pipeline incrementally extracted occurrences
// and cached groups).
func signaturesFromPipeline(ctx context.Context, log *Log, p *signature.Pipeline, opts Options) (*Signatures, error) {
	apps := p.App()
	infra := p.Infra()
	var stab map[string]Stability
	if p.Reference() && log.Duration() > 0 {
		var err error
		stab, err = p.Stability(opts.Stability, apps)
		if err != nil {
			if cerr := canceled(ctx); cerr != nil {
				return nil, fmt.Errorf("flowdiff: building signatures: %w", cerr)
			}
			return nil, fmt.Errorf("flowdiff: stability analysis: %w: %w", ErrBadLog, err)
		}
	}
	// The builds above return partial products after cancellation;
	// discard them rather than hand back a half-built model.
	if cerr := canceled(ctx); cerr != nil {
		return nil, fmt.Errorf("flowdiff: building signatures: %w", cerr)
	}
	return &Signatures{Apps: apps, Infra: infra, Stability: stab, Log: log}, nil
}

// canceled returns ErrCanceled wrapping ctx.Err() when ctx is done, nil
// otherwise. The double wrap lets callers match either the package
// sentinel or the stdlib cause.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// Diff compares a baseline's signatures against a current log's
// signatures; the baseline's stability report filters unstable
// components, and cur.Stability is never read — stability is the
// reference side's product. The comparison is timed into ctx's obs
// registry (span "diff.compare", counter "diff.changes"); the diff
// itself is a single in-memory pass and is not cancellable.
func Diff(ctx context.Context, base, cur *Signatures, th Thresholds) []Change {
	if base == nil || cur == nil {
		return nil
	}
	return diff.Compare(ctx, base.Apps, cur.Apps, base.Infra, cur.Infra, base.Stability, th)
}

// TaskConfig re-exports the task-mining configuration.
type TaskConfig = taskmine.Config

// MineTask learns a task automaton from several runs of the same
// task, where each run is the ordered flow sequence the task produced.
// Canceling ctx stops mining between phases and returns ErrCanceled
// wrapping ctx.Err(); mining phase timings land in ctx's obs registry
// as span.taskmine.* histograms.
func MineTask(ctx context.Context, name string, runs [][]FlowKey, cfg TaskConfig) (*TaskAutomaton, error) {
	templates := make([][]taskmine.Template, 0, len(runs))
	for _, run := range runs {
		templates = append(templates, taskmine.Normalize(run, cfg))
	}
	a, err := taskmine.Mine(ctx, name, templates, cfg, taskmine.MineOptions{})
	if err != nil {
		if cerr := canceled(ctx); cerr != nil {
			return nil, fmt.Errorf("flowdiff: mining task %q: %w", name, cerr)
		}
		//lint:ignore sentinelerr mining failures (no runs, no common flows, unsegmentable run) have no public sentinel yet; one is an API addition of its own
		return nil, fmt.Errorf("flowdiff: %w", err)
	}
	return a, nil
}

// DetectTasks produces the task time series of a log: every execution of
// any of the given automata.
func DetectTasks(log *Log, automata []*TaskAutomaton, gap time.Duration) []TaskDetection {
	if log == nil || len(automata) == 0 {
		return nil
	}
	return detectTasks(taskmine.FlowsFromLog(log, gap), automata)
}

// detectTasks runs every automaton over one flow-start series.
func detectTasks(flows []taskmine.TimedFlow, automata []*TaskAutomaton) []TaskDetection {
	var all []TaskDetection
	for _, a := range automata {
		all = append(all, taskmine.Detect(a, flows)...)
	}
	return taskmine.DedupeDetections(all)
}

// Diagnose validates the changes against the task time series and
// produces the operator report (dependency matrix, problem classes,
// component ranking, and — when Options.Topo is set — evidence-voting
// suspect localization). Suspect-tally timings and vote counts are
// recorded into ctx's obs registry.
func Diagnose(ctx context.Context, changes []Change, tasks []TaskDetection, opts Options) Report {
	return diagnose.DiagnoseContext(ctx, changes, tasks, opts.resolver(), opts.Topo, 0)
}

// Compare is the one-call convenience API: model both logs,
// diff, detect tasks in the current log, and diagnose. Stability is the
// reference side's product: the baseline is modeled in full, the current
// log for apps and infra only. The two captures are Compare's unit of
// concurrency: with more than one CPU (GOMAXPROCS > 1) the two modeling
// halves run concurrently (signature state is per-log, and the shared
// topology is read-only); each half builds serially.
//
// A missing baseline returns ErrNoBaseline; a missing current log
// returns ErrEmptyLog; cancellation surfaces as ErrCanceled from the
// modeling halves. Stage timings and counters accumulate into ctx's obs
// registry; the report is byte-identical whether or not one is present.
func Compare(ctx context.Context, baseline, current *Log, automata []*TaskAutomaton, th Thresholds, opts Options) (Report, error) {
	if baseline == nil || len(baseline.Events) == 0 {
		return Report{}, fmt.Errorf("flowdiff: compare: %w", ErrNoBaseline)
	}
	if current == nil || len(current.Events) == 0 {
		return Report{}, fmt.Errorf("flowdiff: compare: current: %w", ErrEmptyLog)
	}
	defer obs.Span(ctx, "flowdiff.compare").End()
	var (
		base, cur  *Signatures
		berr, cerr error
	)
	if runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			//lint:ignore locksafe single writer per variable; wg.Add happens-before the goroutine and wg.Wait orders these writes before the read
			base, berr = BuildSignatures(ctx, baseline, opts)
		}()
		cur, cerr = buildFromSource(ctx, signature.LogSource(current), opts, 0)
		wg.Wait()
	} else {
		base, berr = BuildSignatures(ctx, baseline, opts)
		cur, cerr = buildFromSource(ctx, signature.LogSource(current), opts, 0)
	}
	if berr != nil {
		return Report{}, berr
	}
	if cerr != nil {
		return Report{}, cerr
	}
	changes := Diff(ctx, base, cur, th)
	tasks := DetectTasks(current, automata, opts.Signature.OccurrenceGap)
	return Diagnose(ctx, changes, tasks, opts), nil
}
