package signature

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/obs"
)

// Pipeline is FlowDiff's one modeling path: every signature product of
// a log — application signatures, infrastructure signature, and (for a
// reference build) the per-interval stability analysis — is built from
// one pass over its events. That pass extracts the flow
// occurrences once and folds everything else the builds consume into
// running aggregates (sourceAgg); the products then partition the
// start-time-sorted occurrences across the stability intervals by index
// slicing and build each application group of each interval in turn.
//
// The pipeline carries the context it was created with: cancellation
// stops the per-group and per-interval loops, and stage timings/counters
// go to the context's obs registry (span.signature.* histograms,
// signature.* counters). After cancellation the pipeline's products are
// partial; callers observe ctx.Err() and must discard them —
// flowdiff.BuildSignaturesReader does exactly that.
type Pipeline struct {
	ctx  context.Context
	agg  *sourceAgg
	r    *appgroup.Resolver
	cfg  Config
	occs []Occurrence
	// groups caches application-group discovery for the whole log;
	// hasGroups distinguishes "not discovered yet" from "discovered
	// (possibly empty)". Monitor seeds it across windows via SetGroups.
	groups    []appgroup.Group
	hasGroups bool
	// starts indexes the occurrences' start times by host edge; built
	// by App, sliced per interval by Stability.
	starts map[Edge][]time.Duration
}

func newPipeline(ctx context.Context, agg *sourceAgg, r *appgroup.Resolver, cfg Config, occs []Occurrence) *Pipeline {
	obs.From(ctx).Counter("signature.occurrences").Add(int64(len(occs)))
	return &Pipeline{ctx: ctx, agg: agg, r: r, cfg: cfg, occs: occs}
}

// Reference reports whether the pipeline was constructed with stability
// intervals, so Stability is among its products (a current build has 0).
func (p *Pipeline) Reference() bool { return p.agg.intervals > 0 }

// EventCount returns how many events the pipeline was built from.
func (p *Pipeline) EventCount() int { return p.agg.events }

// Edges returns the log's distinct host edges (from PacketIn traffic) —
// the input of group discovery. The map is owned by the pipeline and
// must not be mutated.
func (p *Pipeline) Edges() map[Edge]int { return p.agg.whole.edges }

// Occurrences returns the shared flow episodes, ordered by start time.
// The slice is owned by the pipeline and must not be mutated.
func (p *Pipeline) Occurrences() []Occurrence { return p.occs }

// Groups returns the log's application groups, discovering them on
// first use (or returning the SetGroups seed).
func (p *Pipeline) Groups() []appgroup.Group {
	if !p.hasGroups {
		sp := obs.Span(p.ctx, "signature.groups")
		p.groups = appgroup.DiscoverFromEdges(p.agg.whole.edges, p.cfg.Special)
		sp.End()
		obs.From(p.ctx).Counter("signature.groups").Add(int64(len(p.groups)))
		p.hasGroups = true
	}
	return p.groups
}

// SetGroups seeds group discovery with an already-discovered result.
// Discovery depends only on the host edge set (Edges), so a caller that
// sees it unchanged from a previous log (Monitor, across windows) can
// carry the groups over instead of rediscovering.
func (p *Pipeline) SetGroups(groups []appgroup.Group) {
	p.groups = groups
	p.hasGroups = true
}

// App builds the per-group application signatures from the shared
// occurrences.
func (p *Pipeline) App() []AppSignature {
	defer obs.Span(p.ctx, "signature.app").End()
	return buildAppFromStarts(p.ctx, appView{meta: p.agg.whole.meta, removed: p.agg.whole.removed}, p.cfg, p.startsByEdge(), p.Groups())
}

func (p *Pipeline) startsByEdge() map[Edge][]time.Duration {
	if p.starts == nil {
		p.starts = indexStarts(p.occs, p.r)
	}
	return p.starts
}

// Infra builds the infrastructure signature from the shared occurrences.
func (p *Pipeline) Infra() InfraSignature {
	defer obs.Span(p.ctx, "signature.infra").End()
	inf := buildInfraFromOccs(p.r, p.cfg, p.occs)
	inf.LogDuration = p.agg.whole.meta.Duration()
	attachLinkBytesFrom(&inf, p.agg.whole.meta.Duration(), p.agg.removals, p.occs)
	return inf
}

// ErrNoIntervals is what Stability wraps on a current build.
var ErrNoIntervals = errors.New("pipeline built without stability intervals (a current build)")

// Stability runs the per-interval stability analysis against full, the
// whole-log signatures (pass App()'s result to avoid rebuilding them).
// The per-interval edge sets and FlowRemoved samples were aggregated
// during the event pass (sized by the interval count given then, which
// scfg must repeat), and an interval's occurrences are subslices of the
// per-edge start index, found by binary search.
func (p *Pipeline) Stability(scfg StabilityConfig, full []AppSignature) (map[string]Stability, error) {
	if !p.Reference() {
		return nil, fmt.Errorf("signature: stability analysis: %w", ErrNoIntervals)
	}
	defer obs.Span(p.ctx, "signature.stability").End()
	scfg = scfg.withDefaults()
	if p.agg.segErr != nil {
		return nil, fmt.Errorf("signature: segmenting log: %w", p.agg.segErr)
	}
	if scfg.Intervals != len(p.agg.segs) {
		return nil, fmt.Errorf("signature: pipeline aggregated %d stability intervals, asked for %d", len(p.agg.segs), scfg.Intervals)
	}
	obs.From(p.ctx).Counter("signature.intervals").Add(int64(len(p.agg.segs)))
	starts := p.startsByEdge()
	n := len(p.agg.segs)
	intervals := make([][]AppSignature, n)
	for i := range p.agg.segs {
		if err := p.ctx.Err(); err != nil {
			return nil, err
		}
		sa := &p.agg.segs[i]
		groups := appgroup.DiscoverFromEdges(sa.edges, p.cfg.Special)
		intervals[i] = buildAppFromStarts(p.ctx, appView{meta: sa.meta, removed: sa.removed}, p.cfg, sliceStarts(starts, sa.meta, i == n-1), groups)
	}
	return Stabilities(full, intervals, scfg), nil
}
