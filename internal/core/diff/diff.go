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
	"sort"
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

// Compare diffs application and infrastructure signatures. baseStab may
// be nil to compare everything regardless of stability. The span
// "diff.compare" is timed and the counter "diff.changes" accumulated
// into ctx's obs registry. The comparison itself is a single pass over
// already-built signatures and is not cancellable mid-flight; ctx only
// carries the registry.
func Compare(
	ctx context.Context,
	base, cur []signature.AppSignature,
	baseInf, curInf signature.InfraSignature,
	baseStab map[string]signature.Stability,
	th Thresholds,
) []Change {
	sp := obs.Span(ctx, "diff.compare")
	changes := compare(base, cur, baseInf, curInf, baseStab, th)
	sp.End()
	obs.From(ctx).Counter("diff.changes").Add(int64(len(changes)))
	return changes
}

func compare(
	base, cur []signature.AppSignature,
	baseInf, curInf signature.InfraSignature,
	baseStab map[string]signature.Stability,
	th Thresholds,
) []Change {
	th = th.withDefaults()
	var changes []Change

	baseGroups := make([]appgroup.Group, len(base))
	for i, s := range base {
		baseGroups[i] = s.Group
	}
	curGroups := make([]appgroup.Group, len(cur))
	for i, s := range cur {
		curGroups[i] = s.Group
	}
	sigByKey := func(sigs []signature.AppSignature) map[string]signature.AppSignature {
		m := make(map[string]signature.AppSignature, len(sigs))
		for _, s := range sigs {
			m[s.Group.Key()] = s
		}
		return m
	}
	baseBy, curBy := sigByKey(base), sigByKey(cur)

	// The union of baseline edges distinguishes genuinely new
	// communication from group fragmentation (a failed hub splits one
	// group into several; the fragments' edges are not new).
	baseEdges := make(map[signature.Edge]bool)
	for _, s := range base {
		for e := range s.CG {
			baseEdges[e] = true
		}
	}
	// Each baseline group is compared against the union of all current
	// signatures: when a failed hub fragments a group, the surviving
	// edges and nodes live in other (unmatched) groups, and comparing
	// only group-to-group would misreport them as gone.
	curUnion := unionSignature(cur)

	for _, pair := range appgroup.Match(baseGroups, curGroups) {
		switch {
		case pair.New:
			c := curBy[pair.Cur.Key()]
			changes = append(changes, newGroupChanges(c, baseEdges)...)
		case !pair.Matched:
			b := baseBy[pair.Base.Key()]
			changes = append(changes, Change{
				Kind:        signature.KindCG,
				Group:       b.Group.Key(),
				Description: fmt.Sprintf("application group %s disappeared", b.Group.Key()),
				Components:  nodeStrings(b.Group.Nodes),
			})
		default:
			b := baseBy[pair.Base.Key()]
			var st *signature.Stability
			if baseStab != nil {
				if s, ok := baseStab[b.Group.Key()]; ok {
					st = &s
				}
			}
			changes = append(changes, compareGroup(b, curUnion, st, baseEdges, th)...)
		}
	}

	changes = append(changes, compareInfra(baseInf, curInf, th)...)
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

func newGroupChanges(c signature.AppSignature, baseEdges map[signature.Edge]bool) []Change {
	var out []Change
	for _, e := range sortedEdges(c.CG) {
		if baseEdges[e] {
			continue // fragmentation artifact, not new communication
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

func sortedEdges(m map[signature.Edge]bool) []signature.Edge {
	out := make([]signature.Edge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// sortedPairKeys returns m's EdgePair keys in lexical order. The changes
// emitted per pair are later stable-sorted by (Kind, Description) only,
// so iterating the map directly would let Go's randomized order leak
// into tie-broken report positions.
func sortedPairKeys[V any](m map[signature.EdgePair]V) []signature.EdgePair {
	out := make([]signature.EdgePair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.In.Src != b.In.Src {
			return a.In.Src < b.In.Src
		}
		if a.In.Dst != b.In.Dst {
			return a.In.Dst < b.In.Dst
		}
		if a.Out.Src != b.Out.Src {
			return a.Out.Src < b.Out.Src
		}
		return a.Out.Dst < b.Out.Dst
	})
	return out
}

// unionSignature merges the per-group signatures of one log into a single
// view (groups partition nodes, so the merge has no collisions).
func unionSignature(sigs []signature.AppSignature) signature.AppSignature {
	u := signature.AppSignature{
		CG: make(map[signature.Edge]bool),
		FS: make(map[signature.Edge]signature.FlowStats),
		CI: make(map[topology.NodeID]signature.CISig),
		DD: make(map[signature.EdgePair]signature.DDSig),
		PC: make(map[signature.EdgePair]float64),
	}
	for _, s := range sigs {
		if s.LogDuration > u.LogDuration {
			u.LogDuration = s.LogDuration
		}
		for e := range s.CG {
			u.CG[e] = true
		}
		for e, fs := range s.FS {
			u.FS[e] = fs
		}
		for n, ci := range s.CI {
			u.CI[n] = ci
		}
		for p, dd := range s.DD {
			u.DD[p] = dd
		}
		for p, pc := range s.PC {
			u.PC[p] = pc
		}
	}
	return u
}

func compareGroup(b, c signature.AppSignature, st *signature.Stability, baseEdges map[signature.Edge]bool, th Thresholds) []Change {
	var out []Change
	gk := b.Group.Key()

	// CG: graph diff (skipped when the baseline CG itself was unstable).
	if st == nil || st.CGStable {
		for _, e := range sortedEdges(b.CG) {
			if c.CG[e] {
				continue
			}
			// A rarely used edge can be absent from a short interval by
			// chance: its expected occurrence count must be meaningful.
			expected := float64(b.FS[e].FlowCount)
			if b.LogDuration > 0 && c.LogDuration > 0 {
				expected *= c.LogDuration.Seconds() / b.LogDuration.Seconds()
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
		for _, e := range sortedEdges(c.CG) {
			// c is the union view: only report edges that touch this
			// group's members and are new to the whole baseline.
			if baseEdges[e] {
				continue
			}
			if !b.Group.Contains(e.Src) && !b.Group.Contains(e.Dst) {
				continue
			}
			out = append(out, Change{
				Kind:        signature.KindCG,
				Group:       gk,
				Description: fmt.Sprintf("new edge %s", e),
				Components:  []string{string(e.Src), string(e.Dst)},
				At:          c.FS[e].FirstSeen,
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
		got := c.CI[node]
		obs := make([]float64, len(ref.Edges))
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
		expected := make([]float64, len(ref.Edges))
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
	for _, p := range sortedPairKeys(b.DD) {
		ref := b.DD[p]
		if st != nil && !st.DDPairs[p] {
			continue
		}
		got, ok := c.DD[p]
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
	for _, p := range sortedPairKeys(b.PC) {
		ref := b.PC[p]
		if st != nil && !st.PCPairs[p] {
			continue
		}
		got, ok := c.PC[p]
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
	for _, e := range sortedEdges(b.CG) {
		bf, cf := b.FS[e], c.FS[e]
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
		if bf.FlowCount >= th.MinFlows && b.LogDuration > 0 && c.LogDuration > 0 {
			br := float64(bf.FlowCount) / b.LogDuration.Seconds()
			cr := float64(cf.FlowCount) / c.LogDuration.Seconds()
			// Beyond the relative threshold, the raw count difference must
			// clear Poisson noise on the expected count.
			expected := br * c.LogDuration.Seconds()
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

func compareInfra(b, c signature.InfraSignature, th Thresholds) []Change {
	var out []Change

	// PT: switch adjacency diff. A missing adjacency is only meaningful
	// when the baseline observed it often enough that its absence from
	// the current interval cannot be traffic noise.
	for _, p := range b.AdjacencyEdges() {
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
	for _, p := range c.AdjacencyEdges() {
		if _, ok := b.SwitchAdj[p]; !ok {
			out = append(out, Change{
				Kind:        signature.KindPT,
				Description: fmt.Sprintf("new switch adjacency %s->%s", p.From, p.To),
				Components:  []string{p.From, p.To},
			})
		}
	}
	// PT: host attachment moved (e.g. VM migration).
	hosts := make([]string, 0, len(b.HostAttach))
	for h := range b.HostAttach {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
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
	pairs := make([]signature.SwitchPair, 0, len(b.ISL))
	for p := range b.ISL {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].From != pairs[j].From {
			return pairs[i].From < pairs[j].From
		}
		return pairs[i].To < pairs[j].To
	})
	for _, p := range pairs {
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
