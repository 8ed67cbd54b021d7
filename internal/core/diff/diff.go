// Package diff implements FlowDiff's diagnosing phase, step one (paper
// §IV-A): comparing the application and infrastructure signatures of a
// baseline log L1 against a current log L2 and emitting a typed set of
// behavioral changes. Unstable signature components (per the baseline's
// stability analysis) are excluded to avoid false alarms.
package diff

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/obs"
	"flowdiff/internal/stats"
	"flowdiff/internal/topology"
)

// Thresholds tune change detection. Zero values take defaults.
type Thresholds struct {
	// CIChiSquare flags a node's component interaction when the χ²
	// fitness statistic between observed per-edge flow counts and the
	// counts expected under the baseline distribution exceeds it.
	// Default 12 (comfortably above the 1% critical values for the
	// 1-4 degrees of freedom typical of application nodes).
	CIChiSquare float64
	// DDPeakBins flags a delay distribution whose dominant peak moved by
	// more than this many bins. Default 1.
	DDPeakBins int
	// PCDelta flags a partial-correlation shift larger than this.
	// Default 0.35.
	PCDelta float64
	// FSFactor flags a relative change in per-edge flow rate beyond this
	// fraction. Default 0.5.
	FSFactor float64
	// FSSigma flags a mean flow-byte-count shift beyond this many
	// baseline standard deviations. Default 4.
	FSSigma float64
	// FSMinRel is the minimum relative byte-count shift considered
	// meaningful even when the baseline variance is tiny (loss-driven
	// retransmission inflation is a few percent for short flows).
	// Default 0.04.
	FSMinRel float64
	// FSNoiseSigma guards the flow-rate comparison against Poisson
	// counting noise: the absolute count difference must also exceed
	// this many standard deviations of the expected count. Default 5.
	FSNoiseSigma float64
	// ISLSigma flags an ISL mean that moved more than this many baseline
	// standard deviations. Default 4.
	ISLSigma float64
	// CRTSigma is the same for controller response time. Default 4.
	CRTSigma float64
	// MinFlows is the minimum number of observations on both sides for
	// scalar comparisons. Default 5.
	MinFlows int
}

func (t Thresholds) withDefaults() Thresholds {
	if t.CIChiSquare <= 0 {
		t.CIChiSquare = 12
	}
	if t.DDPeakBins <= 0 {
		t.DDPeakBins = 1
	}
	if t.PCDelta <= 0 {
		t.PCDelta = 0.35
	}
	if t.FSFactor <= 0 {
		t.FSFactor = 0.5
	}
	if t.FSSigma <= 0 {
		t.FSSigma = 4
	}
	if t.FSMinRel <= 0 {
		t.FSMinRel = 0.04
	}
	if t.FSNoiseSigma <= 0 {
		t.FSNoiseSigma = 5
	}
	if t.ISLSigma <= 0 {
		t.ISLSigma = 4
	}
	if t.CRTSigma <= 0 {
		t.CRTSigma = 4
	}
	if t.MinFlows <= 0 {
		t.MinFlows = 5
	}
	return t
}

// Change is one detected behavioral difference between L1 and L2.
type Change struct {
	// Kind is the signature component that changed.
	Kind signature.Kind
	// Group is the application group key ("" for infrastructure changes).
	Group string
	// Description is a human-readable summary.
	Description string
	// Components are the involved component ids (hosts, switches) for
	// localization ranking.
	Components []string
	// Before/After carry the compared values where meaningful.
	Before, After float64
	// At anchors the change in L2's time (first observation of a new
	// edge; otherwise L2's start).
	At time.Duration
}

// Baseline is the reference side of a comparison, prepared once by
// Prepare: every baseline collection a comparison walks in order is
// sorted here, so a window sorts only its own side. A Baseline is
// read-only after Prepare, and one serves any number of concurrent
// Compare calls; it aliases the signatures it was prepared from, which
// must not change after.
type Baseline struct {
	groups []baseGroup
	// match holds each group's appgroup.Group, Match's base side.
	match []appgroup.Group
	// edges is the union of the groups' CG edges; groupOf maps each
	// member node to its group's index (groups partition the hosts).
	edges   map[signature.Edge]bool
	groupOf map[topology.NodeID]int
	inf     signature.InfraSignature
	// ciMax is the most edges any CI node has: half the χ² scratch.
	ciMax int
	// adj, hosts and isl are inf's SwitchAdj, HostAttach and ISL keys,
	// sorted.
	adj, isl []signature.SwitchPair
	hosts    []string
}

// baseGroup is one baseline application group, ready to compare.
type baseGroup struct {
	sig signature.AppSignature
	key string
	st  *signature.Stability // nil: compare every component
	// edges, dd and pc are sig's CG, DD and PC keys, sorted.
	edges  []signature.Edge
	dd, pc []signature.EdgePair
}

// Prepare builds the reference side of every comparison against one
// baseline. stability may be nil to compare everything regardless of
// stability.
func Prepare(apps []signature.AppSignature, infra signature.InfraSignature, stability map[string]signature.Stability) *Baseline {
	b := &Baseline{
		groups:  make([]baseGroup, len(apps)),
		match:   make([]appgroup.Group, len(apps)),
		edges:   make(map[signature.Edge]bool),
		groupOf: make(map[topology.NodeID]int),
		inf:     infra,
		adj:     infra.AdjacencyEdges(),
		isl:     sortedKeys(infra.ISL, signature.CompareSwitchPairs),
		hosts:   sortedKeys(infra.HostAttach, strings.Compare),
	}
	for i, s := range apps {
		g := baseGroup{
			sig:   s,
			key:   s.Group.Key(),
			edges: sortedKeys(s.CG, signature.CompareEdges),
			dd:    sortedKeys(s.DD, signature.ComparePairs),
			pc:    sortedKeys(s.PC, signature.ComparePairs),
		}
		if st, ok := stability[g.key]; ok {
			g.st = &st
		}
		b.groups[i], b.match[i] = g, s.Group
		for e := range s.CG {
			b.edges[e] = true
		}
		for _, n := range s.Group.Nodes {
			b.groupOf[n] = i
		}
		for _, ci := range s.CI {
			b.ciMax = max(b.ciMax, len(ci.Edges))
		}
	}
	return b
}

// Compare diffs a current log's application and infrastructure
// signatures against a prepared baseline. The span "diff.compare" times
// this per-window half (Prepare is not in it) and the counter
// "diff.changes" accumulates into ctx's obs registry. The comparison
// itself is a single pass over already-built signatures and is not
// cancellable mid-flight; ctx only carries the registry.
func Compare(ctx context.Context, b *Baseline, cur []signature.AppSignature, curInf signature.InfraSignature, th Thresholds) []Change {
	sp := obs.Span(ctx, "diff.compare")
	changes := b.compare(cur, curInf, th)
	sp.End()
	obs.From(ctx).Counter("diff.changes").Add(int64(len(changes)))
	return changes
}

func (b *Baseline) compare(cur []signature.AppSignature, curInf signature.InfraSignature, th Thresholds) []Change {
	th = th.withDefaults()
	var changes []Change

	// A baseline group is compared against every current group, each
	// key looked up in the group that owns it: when a failed hub
	// fragments a group, the surviving edges and nodes live in other
	// (unmatched) groups. added is every current edge new to the whole
	// baseline, sorted: a fragment's edges are not new communication.
	c := current{sigs: cur, groupOf: make(map[topology.NodeID]int)}
	curGroups := make([]appgroup.Group, len(cur))
	var added []signature.Edge
	for i, s := range cur {
		curGroups[i] = s.Group
		c.dur = max(c.dur, s.LogDuration)
		for _, n := range s.Group.Nodes {
			c.groupOf[n] = i
		}
		for e := range s.CG {
			if !b.edges[e] {
				added = append(added, e)
			}
		}
	}
	slices.SortFunc(added, signature.CompareEdges)
	added = slices.Compact(added)
	// Each baseline group reports the new edges that touch its members,
	// in sorted order; an edge between two groups is reported by both.
	fresh := make([][]signature.Edge, len(b.groups))
	for _, e := range added {
		gs, ok := b.groupOf[e.Src]
		if ok {
			fresh[gs] = append(fresh[gs], e)
		}
		if gd, okd := b.groupOf[e.Dst]; okd && (!ok || gd != gs) {
			fresh[gd] = append(fresh[gd], e)
		}
	}

	scratch := make([]float64, 2*b.ciMax)
	for _, pair := range appgroup.Match(b.match, curGroups) {
		switch {
		case pair.Base < 0:
			changes = append(changes, newGroupChanges(cur[pair.Cur], added)...)
		case pair.Cur < 0:
			g := &b.groups[pair.Base]
			changes = append(changes, Change{
				Kind:        signature.KindCG,
				Group:       g.key,
				Description: fmt.Sprintf("application group %s disappeared", g.key),
				Components:  nodeStrings(g.sig.Group.Nodes),
			})
		default:
			changes = append(changes, compareGroup(&b.groups[pair.Base], &c, fresh[pair.Base], th, scratch)...)
		}
	}

	changes = append(changes, compareInfra(b, curInf, th)...)
	sort.SliceStable(changes, func(i, j int) bool {
		if changes[i].Kind != changes[j].Kind {
			return changes[i].Kind < changes[j].Kind
		}
		return changes[i].Description < changes[j].Description
	})
	return changes
}

func nodeStrings[T ~string](ns []T) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = string(n)
	}
	return out
}

// newGroupChanges reports the edges of a group only the current log has
// that are new to the whole baseline; the others are fragmentation
// artifacts, not new communication. added is every such edge, sorted.
func newGroupChanges(c signature.AppSignature, added []signature.Edge) []Change {
	var out []Change
	for _, e := range added {
		if !c.CG[e] {
			continue
		}
		out = append(out, Change{
			Kind:        signature.KindCG,
			Group:       c.Group.Key(),
			Description: fmt.Sprintf("new edge %s (new group)", e),
			Components:  []string{string(e.Src), string(e.Dst)},
			At:          c.FS[e].FirstSeen,
		})
	}
	return out
}

// sortedKeys returns m's keys in the order compare defines. The changes
// emitted per key are later stable-sorted by (Kind, Description) only,
// so iterating the map directly would let Go's randomized order leak
// into tie-broken report positions.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, compare)
	return out
}

// current is the window side of a comparison: its signatures, the one
// that holds each member node (groups partition the nodes), and the
// longest interval among them.
type current struct {
	sigs    []signature.AppSignature
	groupOf map[topology.NodeID]int
	dur     time.Duration
}

// noGroup answers every lookup no current group owns: its maps are nil.
var noGroup signature.AppSignature

// of returns the signature of the group holding a, else b's. A node is
// of(n, n); an edge is its non-special endpoint's, of(Src, Dst); an
// edge pair is its in-edge's.
func (c *current) of(a, b topology.NodeID) *signature.AppSignature {
	i, ok := c.groupOf[a]
	if !ok {
		i, ok = c.groupOf[b]
	}
	if !ok {
		return &noGroup
	}
	return &c.sigs[i]
}

// compareGroup diffs one baseline group against the current signatures;
// fresh is their new edges touching the group. scratch backs the χ²
// test's two slices: twice the baseline's largest CI.
func compareGroup(g *baseGroup, c *current, fresh []signature.Edge, th Thresholds, scratch []float64) []Change {
	var out []Change
	b, st, gk := g.sig, g.st, g.key

	// CG: graph diff (skipped when the baseline CG itself was unstable).
	if st == nil || st.CGStable {
		for _, e := range g.edges {
			if c.of(e.Src, e.Dst).CG[e] {
				continue
			}
			// A rarely used edge can be absent from a short interval by
			// chance: its expected occurrence count must be meaningful.
			expected := float64(b.FS[e].FlowCount)
			if b.LogDuration > 0 && c.dur > 0 {
				expected *= c.dur.Seconds() / b.LogDuration.Seconds()
			}
			if expected < float64(th.MinFlows) {
				continue
			}
			out = append(out, Change{
				Kind:        signature.KindCG,
				Group:       gk,
				Description: fmt.Sprintf("edge %s missing", e),
				Components:  []string{string(e.Src), string(e.Dst)},
			})
		}
		for _, e := range fresh {
			out = append(out, Change{
				Kind:        signature.KindCG,
				Group:       gk,
				Description: fmt.Sprintf("new edge %s", e),
				Components:  []string{string(e.Src), string(e.Dst)},
				At:          c.of(e.Src, e.Dst).FS[e].FirstSeen,
			})
		}
	}

	// CI: χ² fitness test per node (paper §IV-A): observed flow counts
	// per adjacent edge against the counts expected under the baseline
	// distribution. Using counts (not fractions) makes the statistic
	// noise-aware: sparse intervals produce small χ² values naturally.
	for _, node := range b.Group.Nodes {
		if st != nil && !st.StableCI(node) {
			continue
		}
		ref, ok := b.CI[node]
		if !ok || len(ref.Edges) == 0 {
			continue
		}
		got := c.of(node, node).CI[node]
		n := len(ref.Edges)
		obs, expected := scratch[:n:n], scratch[n:2*n:2*n]
		clear(obs)
		var curTotal float64
		for i, e := range ref.Edges {
			for j, ge := range got.Edges {
				if ge == e {
					obs[i] = got.Counts[j]
					curTotal += got.Counts[j]
					break
				}
			}
		}
		if int(curTotal) < th.MinFlows {
			continue // not enough current observations to judge
		}
		for i, f := range ref.Fractions {
			expected[i] = f * curTotal
		}
		x2, err := stats.ChiSquare(obs, expected)
		if err == nil && x2 > th.CIChiSquare {
			out = append(out, Change{
				Kind:        signature.KindCI,
				Group:       gk,
				Description: fmt.Sprintf("component interaction at %s shifted (chi2=%.3f)", node, x2),
				Components:  []string{string(node)},
				Before:      0,
				After:       x2,
			})
		}
	}

	// DD: dominant peak shift per adjacent edge pair.
	for _, p := range g.dd {
		ref := b.DD[p]
		if st != nil && !st.DDPairs[p] {
			continue
		}
		got, ok := c.of(p.In.Src, p.In.Dst).DD[p]
		if !ok || got.Samples < th.MinFlows || ref.Samples < th.MinFlows {
			continue
		}
		if abs(got.Peak.Bucket-ref.Peak.Bucket) > th.DDPeakBins {
			out = append(out, Change{
				Kind:  signature.KindDD,
				Group: gk,
				Description: fmt.Sprintf("delay peak %s|%s moved %.0fms -> %.0fms",
					p.In, p.Out, ms(ref.Peak.Value), ms(got.Peak.Value)),
				Components: []string{string(p.In.Dst)},
				Before:     ref.Peak.Value,
				After:      got.Peak.Value,
			})
		}
	}

	// PC: correlation shift per adjacent edge pair.
	for _, p := range g.pc {
		ref := b.PC[p]
		if st != nil && !st.PCPairs[p] {
			continue
		}
		got, ok := c.of(p.In.Src, p.In.Dst).PC[p]
		if !ok {
			continue
		}
		if math.Abs(got-ref) > th.PCDelta {
			out = append(out, Change{
				Kind:  signature.KindPC,
				Group: gk,
				Description: fmt.Sprintf("correlation %s|%s shifted %.2f -> %.2f",
					p.In, p.Out, ref, got),
				Components: []string{string(p.In.Dst)},
				Before:     ref,
				After:      got,
			})
		}
	}

	// FS: per-edge mean bytes and flow rate.
	for _, e := range g.edges {
		bf, cf := b.FS[e], c.of(e.Src, e.Dst).FS[e]
		if bf.Bytes.Count >= th.MinFlows && cf.Bytes.Count >= th.MinFlows {
			slack := th.FSSigma * bf.Bytes.StdDev
			if floor := th.FSMinRel * bf.Bytes.Mean; slack < floor {
				slack = floor
			}
			if math.Abs(cf.Bytes.Mean-bf.Bytes.Mean) > slack {
				out = append(out, Change{
					Kind:        signature.KindFS,
					Group:       gk,
					Description: fmt.Sprintf("mean flow bytes on %s: %.0f -> %.0f", e, bf.Bytes.Mean, cf.Bytes.Mean),
					Components:  []string{string(e.Src), string(e.Dst)},
					Before:      bf.Bytes.Mean,
					After:       cf.Bytes.Mean,
				})
			}
		}
		if bf.FlowCount >= th.MinFlows && b.LogDuration > 0 && c.dur > 0 {
			br := float64(bf.FlowCount) / b.LogDuration.Seconds()
			cr := float64(cf.FlowCount) / c.dur.Seconds()
			// Beyond the relative threshold, the raw count difference must
			// clear Poisson noise on the expected count.
			expected := br * c.dur.Seconds()
			noiseOK := math.Abs(float64(cf.FlowCount)-expected) > th.FSNoiseSigma*math.Sqrt(expected)
			if relDelta(cr, br) > th.FSFactor && noiseOK {
				out = append(out, Change{
					Kind:        signature.KindFS,
					Group:       gk,
					Description: fmt.Sprintf("flow rate on %s: %.2f/s -> %.2f/s", e, br, cr),
					Components:  []string{string(e.Src), string(e.Dst)},
					Before:      br,
					After:       cr,
				})
			}
		}
	}
	return out
}

func compareInfra(base *Baseline, c signature.InfraSignature, th Thresholds) []Change {
	var out []Change
	b := base.inf

	// PT: switch adjacency diff. A missing adjacency is only meaningful
	// when the baseline observed it often enough that its absence from
	// the current interval cannot be traffic noise.
	for _, p := range base.adj {
		if _, ok := c.SwitchAdj[p]; ok {
			continue
		}
		expected := float64(b.SwitchAdj[p])
		if b.LogDuration > 0 && c.LogDuration > 0 {
			expected *= c.LogDuration.Seconds() / b.LogDuration.Seconds()
		}
		if expected < float64(th.MinFlows) {
			continue
		}
		out = append(out, Change{
			Kind:        signature.KindPT,
			Description: fmt.Sprintf("switch adjacency %s->%s missing", p.From, p.To),
			Components:  []string{p.From, p.To},
		})
	}
	var added []signature.SwitchPair
	for p := range c.SwitchAdj {
		if _, ok := b.SwitchAdj[p]; !ok {
			added = append(added, p)
		}
	}
	slices.SortFunc(added, signature.CompareSwitchPairs)
	for _, p := range added {
		out = append(out, Change{
			Kind:        signature.KindPT,
			Description: fmt.Sprintf("new switch adjacency %s->%s", p.From, p.To),
			Components:  []string{p.From, p.To},
		})
	}
	// PT: host attachment moved (e.g. VM migration).
	for _, h := range base.hosts {
		bsw := b.HostAttach[h]
		csw, ok := c.HostAttach[h]
		if !ok || csw == bsw {
			continue
		}
		// Both sides must have voted with enough observations: entries
		// surviving from a previous interval can make a mid-path switch
		// report a flow first, so sparse votes are unreliable.
		if b.HostAttachCount[h] < th.MinFlows || c.HostAttachCount[h] < th.MinFlows {
			continue
		}
		out = append(out, Change{
			Kind:        signature.KindPT,
			Description: fmt.Sprintf("host %s moved from %s to %s", h, bsw, csw),
			Components:  []string{h, bsw, csw},
		})
	}

	// ISL per switch pair.
	for _, p := range base.isl {
		ref := b.ISL[p]
		got, ok := c.ISL[p]
		if !ok || ref.Count < th.MinFlows || got.Count < th.MinFlows {
			continue
		}
		slack := th.ISLSigma * ref.StdDev
		if minSlack := ref.Mean * 0.25; slack < minSlack {
			slack = minSlack
		}
		if math.Abs(got.Mean-ref.Mean) > slack {
			out = append(out, Change{
				Kind: signature.KindISL,
				Description: fmt.Sprintf("inter-switch latency %s->%s: %.2fms -> %.2fms",
					p.From, p.To, ms(ref.Mean), ms(got.Mean)),
				Components: []string{p.From, p.To},
				Before:     ref.Mean,
				After:      got.Mean,
			})
		}
	}

	// CRT.
	if b.CRT.Count >= th.MinFlows && c.CRT.Count >= th.MinFlows {
		slack := th.CRTSigma * b.CRT.StdDev
		if minSlack := b.CRT.Mean * 0.5; slack < minSlack {
			slack = minSlack
		}
		if math.Abs(c.CRT.Mean-b.CRT.Mean) > slack {
			out = append(out, Change{
				Kind: signature.KindCRT,
				Description: fmt.Sprintf("controller response time: %.3fms -> %.3fms",
					ms(b.CRT.Mean), ms(c.CRT.Mean)),
				Components: []string{"controller"},
				Before:     b.CRT.Mean,
				After:      c.CRT.Mean,
			})
		}
	}
	return out
}

func relDelta(a, b float64) float64 {
	if stats.NearZero(b) {
		if stats.NearZero(a) {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func ms(ns float64) float64 { return ns / float64(time.Millisecond) }

// Kinds returns the distinct signature kinds present in changes.
func Kinds(changes []Change) map[signature.Kind]bool {
	out := make(map[signature.Kind]bool)
	for _, c := range changes {
		out[c.Kind] = true
	}
	return out
}
