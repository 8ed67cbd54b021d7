package diff

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/stats"
	"flowdiff/internal/topology"
)

// This file retains the comparison as it was before the baseline side
// was prepared once, as the equivalence oracle: compareReference
// rebuilds and re-sorts the baseline side on every call, looks groups up
// by their rendered keys, and scans the whole current union once per
// matched baseline group. Compare on a prepared Baseline must reproduce
// it change for change and in order; without it the equivalence tests
// would compare the one remaining path with itself. Only the pairing
// was adapted, to Match's index pairs.

func compareReference(
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
	curUnion := refUnionSignature(cur)

	for _, pair := range appgroup.Match(baseGroups, curGroups) {
		switch {
		case pair.Base < 0:
			c := curBy[curGroups[pair.Cur].Key()]
			changes = append(changes, refNewGroupChanges(c, baseEdges)...)
		case pair.Cur < 0:
			b := baseBy[baseGroups[pair.Base].Key()]
			changes = append(changes, Change{
				Kind:        signature.KindCG,
				Group:       b.Group.Key(),
				Description: fmt.Sprintf("application group %s disappeared", b.Group.Key()),
				Components:  nodeStrings(b.Group.Nodes),
			})
		default:
			b := baseBy[baseGroups[pair.Base].Key()]
			var st *signature.Stability
			if baseStab != nil {
				if s, ok := baseStab[b.Group.Key()]; ok {
					st = &s
				}
			}
			changes = append(changes, refCompareGroup(b, curUnion, st, baseEdges, th)...)
		}
	}

	changes = append(changes, refCompareInfra(baseInf, curInf, th)...)
	sort.SliceStable(changes, func(i, j int) bool {
		if changes[i].Kind != changes[j].Kind {
			return changes[i].Kind < changes[j].Kind
		}
		return changes[i].Description < changes[j].Description
	})
	return changes
}

func refNewGroupChanges(c signature.AppSignature, baseEdges map[signature.Edge]bool) []Change {
	var out []Change
	for _, e := range refSortedEdges(c.CG) {
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

func refSortedEdges(m map[signature.Edge]bool) []signature.Edge {
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
func refSortedPairKeys[V any](m map[signature.EdgePair]V) []signature.EdgePair {
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
func refUnionSignature(sigs []signature.AppSignature) signature.AppSignature {
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

func refCompareGroup(b, c signature.AppSignature, st *signature.Stability, baseEdges map[signature.Edge]bool, th Thresholds) []Change {
	var out []Change
	gk := b.Group.Key()

	// CG: graph diff (skipped when the baseline CG itself was unstable).
	if st == nil || st.CGStable {
		for _, e := range refSortedEdges(b.CG) {
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
		for _, e := range refSortedEdges(c.CG) {
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
	for _, p := range refSortedPairKeys(b.DD) {
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
	for _, p := range refSortedPairKeys(b.PC) {
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
	for _, e := range refSortedEdges(b.CG) {
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

func refCompareInfra(b, c signature.InfraSignature, th Thresholds) []Change {
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

// pairSig is a two-member group with one edge, a -> b.
func pairSig(a, b string) signature.AppSignature {
	e := edge(a, b)
	return signature.AppSignature{
		Group:       appgroup.Group{Nodes: []topology.NodeID{topology.NodeID(a), topology.NodeID(b)}, Edges: []signature.Edge{e}},
		LogDuration: time.Minute,
		CG:          map[signature.Edge]bool{e: true},
		FS:          map[signature.Edge]signature.FlowStats{e: {FlowCount: 30, Bytes: stats.Summarize(repeat(1024, 30))}},
		CI:          map[topology.NodeID]signature.CISig{},
		DD:          map[signature.EdgePair]signature.DDSig{},
		PC:          map[signature.EdgePair]float64{},
	}
}

// oracleApps is the synthetic baseline: groups {A,B,C}, {D,E} and {P,Q}.
// Every call builds it anew, so callers may mutate what they get.
func oracleApps() []signature.AppSignature {
	return []signature.AppSignature{sigWith(), pairSig("D", "E"), pairSig("P", "Q")}
}

func oracleInfra() signature.InfraSignature {
	isl := func(mean time.Duration) stats.Summary {
		return stats.Summary{Count: 50, Mean: float64(mean), StdDev: float64(mean) * 0.02}
	}
	return signature.InfraSignature{
		LogDuration:     time.Minute,
		SwitchAdj:       map[signature.SwitchPair]int{{From: "sw1", To: "sw2"}: 40, {From: "sw2", To: "sw1"}: 40, {From: "sw2", To: "sw3"}: 2},
		HostAttach:      map[string]string{"A": "sw1", "B": "sw1", "D": "sw2", "E": "sw3"},
		HostAttachCount: map[string]int{"A": 40, "B": 40, "D": 40, "E": 3},
		ISL: map[signature.SwitchPair]stats.Summary{
			{From: "sw1", To: "sw2"}: isl(2 * time.Millisecond),
			{From: "sw2", To: "sw1"}: isl(3 * time.Millisecond),
		},
		CRT: stats.Summary{Count: 50, Mean: float64(200 * time.Microsecond), StdDev: float64(10 * time.Microsecond)},
	}
}

// oracleStability marks CI at B unstable in {A,B,C} and the CG of {D,E}
// unstable; {P,Q} has no entry.
func oracleStability() map[string]signature.Stability {
	pair := signature.EdgePair{In: edge("A", "B"), Out: edge("B", "C")}
	return map[string]signature.Stability{
		"A,B,C": {CGStable: true, CINodes: map[topology.NodeID]bool{"B": false}, DDPairs: map[signature.EdgePair]bool{pair: true}, PCPairs: map[signature.EdgePair]bool{pair: true}},
		"D,E":   {CINodes: map[topology.NodeID]bool{}},
	}
}

// oracleCase is a current log derived from the synthetic baseline, and a
// change it must raise (count times, with a nil stability map).
type oracleCase struct {
	name   string
	mutate func(apps *[]signature.AppSignature, inf *signature.InfraSignature)
	want   string
	count  int
}

var oracleCases = []oracleCase{
	{name: "identical", mutate: func(*[]signature.AppSignature, *signature.InfraSignature) {}},
	{
		name: "new edge between two baseline groups",
		mutate: func(apps *[]signature.AppSignature, _ *signature.InfraSignature) {
			g := (*apps)[0]
			g.CG[edge("C", "D")] = true
			g.FS[edge("C", "D")] = signature.FlowStats{FlowCount: 5, FirstSeen: 7 * time.Second}
		},
		want: "new edge C->D", count: 2,
	},
	{
		name: "new edge touching a special node",
		mutate: func(apps *[]signature.AppSignature, _ *signature.InfraSignature) {
			g := (*apps)[0]
			g.CG[edge("B", "dns")] = true
			g.CG[edge("A", "dns")] = true
		},
		want: "new edge B->dns", count: 1,
	},
	{
		name: "new and vanished groups",
		mutate: func(apps *[]signature.AppSignature, _ *signature.InfraSignature) {
			n := pairSig("X", "Y")
			n.CG[edge("P", "Q")] = true // a baseline edge: not new communication
			*apps = []signature.AppSignature{(*apps)[0], (*apps)[1], n}
		},
		want: "new edge X->Y (new group)", count: 1,
	},
	{
		name: "new and missing adjacencies",
		mutate: func(_ *[]signature.AppSignature, inf *signature.InfraSignature) {
			delete(inf.SwitchAdj, signature.SwitchPair{From: "sw1", To: "sw2"})
			for _, p := range []signature.SwitchPair{{From: "sw3", To: "sw1"}, {From: "sw1", To: "sw3"}, {From: "sw2", To: "sw4"}} {
				inf.SwitchAdj[p] = 9
			}
		},
		want: "new switch adjacency", count: 3,
	},
	{
		name: "moved hosts",
		mutate: func(_ *[]signature.AppSignature, inf *signature.InfraSignature) {
			inf.HostAttach["A"], inf.HostAttach["B"], inf.HostAttach["E"] = "sw2", "sw3", "sw1"
			inf.HostAttachCount["B"] = 2 // B's and E's votes are too sparse to trust
		},
		want: "moved", count: 1,
	},
	{
		name: "every component",
		mutate: func(apps *[]signature.AppSignature, inf *signature.InfraSignature) {
			g := (*apps)[0]
			delete(g.CG, edge("B", "C"))
			g.CG[edge("E", "A")] = true
			g.CI["B"] = signature.CISig{Edges: g.CI["B"].Edges, Counts: []float64{114, 6}, Fractions: []float64{0.95, 0.05}}
			g.PC[signature.EdgePair{In: edge("A", "B"), Out: edge("B", "C")}] = 0.1
			g.FS[edge("A", "B")] = signature.FlowStats{FlowCount: 10, Bytes: stats.Summarize(repeat(4096, 10))}
			inf.ISL[signature.SwitchPair{From: "sw1", To: "sw2"}] = stats.Summary{Count: 50, Mean: float64(9 * time.Millisecond)}
			inf.CRT.Mean *= 10
			inf.HostAttach["D"] = "sw1"
		},
		want: "new edge E->A", count: 2,
	},
}

// current builds an oracle case's current log, anew on every call.
func (tc oracleCase) current() ([]signature.AppSignature, signature.InfraSignature) {
	apps, inf := oracleApps(), oracleInfra()
	tc.mutate(&apps, &inf)
	return apps, inf
}

// TestCompareMatchesReference holds Compare on a prepared baseline to the
// oracle on every synthetic case, with and without a stability map. Each
// case also raises the change it was built for, so no case passes by
// comparing two empty reports.
func TestCompareMatchesReference(t *testing.T) {
	for _, tc := range oracleCases {
		for _, stab := range []map[string]signature.Stability{nil, oracleStability()} {
			apps, inf := tc.current()
			got := Compare(context.Background(), Prepare(oracleApps(), oracleInfra(), stab), apps, inf, Thresholds{})
			want := compareReference(oracleApps(), apps, oracleInfra(), inf, stab, Thresholds{})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (stability %v): Compare\n%+v\nreference\n%+v", tc.name, stab != nil, got, want)
			}
			n := 0
			for _, c := range got {
				if strings.Contains(c.Description, tc.want) {
					n++
				}
			}
			if stab == nil && tc.want != "" && n != tc.count {
				t.Errorf("%s: %d changes mention %q, want %d: %+v", tc.name, n, tc.want, tc.count, got)
			}
		}
	}
}

// TestSelfDiffHasNoChanges is the self-diff relation: a baseline compared
// against itself changes nothing, whatever the stability map.
func TestSelfDiffHasNoChanges(t *testing.T) {
	for _, stab := range []map[string]signature.Stability{nil, oracleStability()} {
		if got := Compare(context.Background(), Prepare(oracleApps(), oracleInfra(), stab), oracleApps(), oracleInfra(), Thresholds{}); len(got) != 0 {
			t.Errorf("self-diff (stability %v) raised %+v", stab != nil, got)
		}
	}
}

// TestBaselineServesConcurrentCompares: one prepared Baseline serves 100
// comparisons, 4 at a time (ci.sh runs this package under -race), each
// equal to the oracle's, and is unchanged afterwards — DeepEqual to a
// twin prepared from an independent build of the same signatures.
func TestBaselineServesConcurrentCompares(t *testing.T) {
	stab := oracleStability()
	b := Prepare(oracleApps(), oracleInfra(), stab)
	want := make([][]Change, len(oracleCases))
	for i, tc := range oracleCases {
		apps, inf := tc.current()
		want[i] = compareReference(oracleApps(), apps, oracleInfra(), inf, stab, Thresholds{})
	}
	const workers, compares = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < compares; i += workers {
				k := i % len(oracleCases)
				apps, inf := oracleCases[k].current()
				if got := Compare(context.Background(), b, apps, inf, Thresholds{}); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("comparison %d (%s) differs from the oracle: %+v", i, oracleCases[k].name, got)
				}
			}
		}()
	}
	wg.Wait()
	if twin := Prepare(oracleApps(), oracleInfra(), oracleStability()); !reflect.DeepEqual(b, twin) {
		t.Error("comparing changed the prepared baseline")
	}
}
