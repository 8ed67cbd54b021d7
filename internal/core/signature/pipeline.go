package signature

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/obs"
	"flowdiff/internal/stats"
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
//
// App and Infra refill the storage of the last build on the extractor
// the pipeline came from. A one-shot build's extractor is pooled, and
// Release detaches that storage before pooling it, so its caller owns
// the products; a Monitor window's live until the next build.
type Pipeline struct {
	ctx  context.Context
	agg  *sourceAgg
	m    *modelStore
	cfg  Config
	occs []Occurrence
	// groups caches application-group discovery for the whole log;
	// hasGroups distinguishes "not discovered yet" from "discovered
	// (possibly empty)". Monitor seeds it across windows via SetGroups.
	groups    []appgroup.Group
	hasGroups bool
	// own is a one-shot build's extractor, pooled again by Release.
	own *StreamExtractor
}

// modelStore is an extractor's last build (see Pipeline): its products,
// refilled in place, the slabs their slices are cut from, and scratch.
type modelStore struct {
	modelOut
	// edges: occurrence edge ids; off and slab: the start index's sort.
	edges, off []int32
	slab       []time.Duration
	starts     map[Edge][]time.Duration
	edgeBuf    []Edge
	pairs      []EdgePair
	series     []float64
	// hops[ids[p]] is switch pair p's fold.
	votes map[HostAttach]int
	ids   map[SwitchPair]int32
	hops  []hopAgg
	// ivs build the stability intervals' models, which nothing keeps.
	ivs []modelStore
}

// modelOut is the storage the products alias: the signatures, the slabs
// their slices are cut from, and inf's maps and crt, which back Infra.
// samples cuts BytesSamples, ciVals CISig.Counts and Fractions.
type modelOut struct {
	sigs            []AppSignature
	samples, ciVals slab[float64]
	ciEdges         slab[Edge]
	hists           slab[stats.Histogram]
	buckets         slab[int]
	crt             []float64
	inf             InfraSignature
}

// slab cuts pieces capped at their length from one array, so an append
// cannot reach a neighbour; a short array is replaced by one at least
// twice as long, and the pieces already cut keep the old.
type slab[T any] struct {
	buf  []T
	used int
}

func (s *slab[T]) cut(n int) []T {
	if s.used+n > len(s.buf) {
		s.buf, s.used = make([]T, max(n, 2*len(s.buf))), 0
	}
	s.used += n
	return s.buf[s.used-n : s.used : s.used]
}

// cleared empties m for reuse, or makes it with room for n.
func cleared[K comparable, V any](m map[K]V, n int) map[K]V {
	if m == nil {
		return make(map[K]V, n)
	}
	clear(m)
	return m
}

func newPipeline(ctx context.Context, x *StreamExtractor, cfg Config, occs []Occurrence, flows []int32) *Pipeline {
	obs.From(ctx).Counter("signature.occurrences").Add(int64(len(occs)))
	// The fold has each flow's edge id; a flow it never saw (FlowMods
	// only) is resolved here. Then every flow id indexes agg.edgeOf, and
	// the products index by edge id and never hash a key again.
	agg, m := x.agg, &x.model
	m.edges = resize(m.edges, len(occs))
	for i := range occs {
		m.edges[i], _ = agg.edge(flows[i], &occs[i].Key)
	}
	return &Pipeline{ctx: ctx, agg: agg, m: m, cfg: cfg, occs: occs}
}

// Release ends a one-shot build once its products are built: the
// extractor, its hop chunks and its scratch go back to their pools for
// the next build. Occurrences, and any product not yet built, are
// invalid after it; the products built stay the caller's, as Release
// detaches what they alias. A Monitor window's pipeline owns no
// extractor; its extractor's Reset recycles the window.
func (p *Pipeline) Release() {
	x := p.own
	if x == nil {
		return
	}
	p.own, x.model.modelOut = nil, modelOut{}
	keep := x.agg.events <= maxPooledEvents
	x.Reset()
	if keep {
		extractors.Put(x)
	}
}

// Reference reports whether the pipeline was constructed with stability
// intervals, so Stability is among its products (a current build has 0).
func (p *Pipeline) Reference() bool { return p.agg.intervals > 0 }

// EventCount returns how many events the pipeline was built from.
func (p *Pipeline) EventCount() int { return p.agg.events }

// Edges returns the log's distinct host edges (from PacketIn traffic) —
// the input of group discovery. The map is owned by the pipeline and
// must not be mutated; a Monitor window's is recycled by the
// extractor's next Reset.
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
// occurrences, into the extractor's model (see the type comment).
func (p *Pipeline) App() []AppSignature {
	defer obs.Span(p.ctx, "signature.app").End()
	return buildAppFromStarts(p.ctx, appView{p.agg.whole.meta, p.agg.edgeIDs, p.agg.whole.samples}, p.cfg, p.startsByEdge(), p.Groups(), p.m)
}

// startsByEdge indexes the occurrences' start times by host edge, in
// occurrence (hence time) order — all the per-edge builds read of them:
// a counting sort by edge id into one slab, then one map entry per
// distinct edge, rebuilt into the model by each App and Stability.
func (p *Pipeline) startsByEdge() map[Edge][]time.Duration {
	m, n := p.m, len(p.agg.edgeAt)
	// off[e] becomes edge e's first slab slot, then, once filled, its end.
	m.off = resize(m.off, n+1)
	off := m.off
	clear(off)
	for _, e := range m.edges {
		off[e+1]++
	}
	for e := 1; e <= n; e++ {
		off[e] += off[e-1]
	}
	m.slab = resize(m.slab, len(m.edges))
	for i, e := range m.edges {
		m.slab[off[e]] = p.occs[i].Start
		off[e]++
	}
	m.starts = cleared(m.starts, n)
	lo := int32(0)
	for e, hi := range off[:n] {
		if hi > lo {
			m.starts[p.agg.edgeAt[e]] = m.slab[lo:hi:hi]
			lo = hi
		}
	}
	return m.starts
}

// Infra builds the infrastructure signature from the shared
// occurrences, into the extractor's model (see the type comment).
func (p *Pipeline) Infra() InfraSignature {
	defer obs.Span(p.ctx, "signature.infra").End()
	inf := buildInfra(p.occs, p.agg.edgeAt, p.agg.flowMods, p.m)
	inf.LogDuration = p.agg.whole.meta.Duration()
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
	p.m.ivs = resize(p.m.ivs, n)
	for i := range p.agg.segs {
		if err := p.ctx.Err(); err != nil {
			return nil, err
		}
		sa, iv := &p.agg.segs[i], &p.m.ivs[i]
		groups := appgroup.DiscoverFromEdges(sa.edges, p.cfg.Special)
		iv.starts = sliceStarts(starts, sa.meta, i == n-1, iv.starts)
		intervals[i] = buildAppFromStarts(p.ctx, appView{sa.meta, p.agg.edgeIDs, sa.samples}, p.cfg, iv.starts, groups, iv)
	}
	return Stabilities(full, intervals, scfg), nil
}
