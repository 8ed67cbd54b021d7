package diagnose

import (
	"context"
	"sort"

	"flowdiff/internal/core/diff"
	"flowdiff/internal/obs"
	"flowdiff/internal/topology"
)

// SuspectScore is one ranked fabric suspect produced by evidence voting.
type SuspectScore struct {
	// Component is the suspect's id: a switch node id, or a link id of
	// the form produced by topology.LinkID.
	Component string
	// IsLink distinguishes links from switches.
	IsLink bool
	// Votes is the raw tally: each impacted flow contributes
	// 1/path-length to every switch and link on its path.
	Votes float64
	// Score is the ranking key. For links it equals Votes; for switches
	// the tally is demoted by the coverage factor A/(A+1), where A is
	// the number of the switch's incident links that received any votes.
	// A faulty link concentrates all its flows' evidence on itself and
	// only spreads it over A incident links of each endpoint switch, so
	// the demotion breaks the otherwise systematic switch/link tie in
	// the link's favor — while a faulty switch, voted for through
	// several incident links, still outscores any single one of them.
	Score float64
	// Flows is how many distinct impacted flows voted for the component.
	Flows int
}

// flowPair is one impacted src->dst flow extracted from a change.
type flowPair struct{ a, b topology.NodeID }

// RankSuspectsContext localizes unexplained changes to fabric components
// by evidence voting in the style of 007 ("Democratically Finding The
// Cause of Packet Drops"). Every unexplained change naming at least two
// hosts identifies an impacted flow; each distinct flow is routed
// through topo and casts a vote of 1/path-length on every switch and
// link along its path. Components are ranked by coverage-adjusted vote
// share.
//
// The ranking is deterministic for a given (unknown, topo) input:
// flows vote in sorted order and ties break by kind (links first) and
// then component id. The tally is timed under the "diagnose.tally" span
// and per-component votes count on the "diagnose.votes" counter.
func RankSuspectsContext(ctx context.Context, unknown []diff.Change, topo *topology.Topology) []SuspectScore {
	if topo == nil || len(unknown) == 0 {
		return nil
	}
	defer obs.Span(ctx, "diagnose.tally").End()
	votes := obs.From(ctx).Counter("diagnose.votes")

	// Collect the distinct impacted flows. A change's components name
	// the flow's endpoints when at least two of them resolve to hosts
	// (CG/FS edge changes); infrastructure changes naming switches or a
	// single host cast no flow votes.
	seen := make(map[flowPair]bool)
	for _, c := range unknown {
		var hosts []topology.NodeID
		for _, comp := range c.Components {
			id := topology.NodeID(comp)
			if n, ok := topo.Node(id); ok && n.Kind == topology.KindHost {
				hosts = append(hosts, id)
			}
		}
		if len(hosts) < 2 {
			continue
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
		for i := 0; i < len(hosts); i++ {
			for j := i + 1; j < len(hosts); j++ {
				if hosts[i] == hosts[j] {
					continue
				}
				seen[flowPair{hosts[i], hosts[j]}] = true
			}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	pairs := make([]flowPair, 0, len(seen))
	for p := range seen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})

	// Tally: each flow votes 1/path-length on every element of its path.
	type tally struct {
		votes  float64
		isLink bool
		flows  int
	}
	tallies := make(map[string]*tally)
	for _, p := range pairs {
		hops, err := topo.Path(p.a, p.b)
		if err != nil {
			continue
		}
		elems := topo.PathElements(hops)
		if len(elems) == 0 {
			continue
		}
		w := 1.0 / float64(len(elems))
		for _, e := range elems {
			t := tallies[e.ID]
			if t == nil {
				t = &tally{isLink: e.IsLink}
				tallies[e.ID] = t
			}
			t.votes += w
			t.flows++
			votes.Inc()
		}
	}

	// Coverage adjustment for switches (see SuspectScore.Score).
	out := make([]SuspectScore, 0, len(tallies))
	for id, t := range tallies {
		s := SuspectScore{Component: id, IsLink: t.isLink, Votes: t.votes, Score: t.votes, Flows: t.flows}
		if !t.isLink {
			active := 0
			for _, l := range topo.LinksAt(topology.NodeID(id)) {
				if lt := tallies[l.ID()]; lt != nil && lt.votes > 0 {
					active++
				}
			}
			s.Score = t.votes * float64(active) / float64(active+1)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].IsLink != out[j].IsLink {
			return out[i].IsLink
		}
		return out[i].Component < out[j].Component
	})
	return out
}
