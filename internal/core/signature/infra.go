package signature

import (
	"slices"
	"strings"
	"time"

	"flowdiff/internal/stats"
)

// SwitchPair is an ordered pair of switches observed consecutively on
// flow paths.
type SwitchPair struct {
	From, To string
}

// CompareSwitchPairs orders switch pairs by From, then To.
func CompareSwitchPairs(a, b SwitchPair) int {
	if c := strings.Compare(a.From, b.From); c != 0 {
		return c
	}
	return strings.Compare(a.To, b.To)
}

// HostAttach records which switch a host's flows enter the network at.
type HostAttach struct {
	Host   string
	Switch string
}

// InfraSignature models the infrastructure (paper §III-C): inferred
// physical topology, inter-switch latency, and controller response time.
type InfraSignature struct {
	// LogDuration is the interval the signature was built from.
	LogDuration time.Duration
	// PT: switch adjacency inferred from consecutive PacketIns of the
	// same flow occurrence, plus host attachment points (majority vote
	// over the first switch of flows sourced at the host — entries
	// installed in earlier intervals can make a mid-path switch report
	// first, so a single observation is not trusted).
	SwitchAdj  map[SwitchPair]int
	HostAttach map[string]string
	// HostAttachCount is the number of observations behind each
	// HostAttach vote.
	HostAttachCount map[string]int
	// ISL per switch pair: mean/stddev of (next PacketIn - previous
	// FlowMod), per Figure 3.
	ISL map[SwitchPair]stats.Summary
	// CRT: controller response time distribution (FlowMod time - PacketIn
	// time for the same switch within an occurrence).
	CRT stats.Summary
	// CRTSamples retains raw response times, in occurrence order, for
	// CDFs and overload tests (nil when there are none). Its array has
	// room for one per FlowMod the build folded (each sample answers
	// one) and is never grown; a Monitor window reuses the last
	// window's when it has room.
	CRTSamples []float64
}

// hopAgg is what the infrastructure signature folds per switch pair:
// the adjacency count and the running ISL statistics, no samples.
type hopAgg struct {
	adj int
	isl stats.Welford
}

// buildInfra builds PT, ISL and CRT from the occurrences into st,
// st.edges[i] being occs[i]'s host edge id into edgeAt (the source host
// of the vote); flowMods, the FlowMod hops among them, bounds the CRT
// samples.
func buildInfra(occs []Occurrence, edgeAt []Edge, flowMods int, st *modelStore) InfraSignature {
	inf := InfraSignature{
		SwitchAdj:       cleared(st.inf.SwitchAdj, 0),
		HostAttach:      cleared(st.inf.HostAttach, 0),
		HostAttachCount: cleared(st.inf.HostAttachCount, 0),
		ISL:             cleared(st.inf.ISL, 0),
	}
	votes, ids, hops := cleared(st.votes, 0), cleared(st.ids, 0), st.hops[:0]
	if cap(st.crt) < flowMods {
		st.crt = make([]float64, 0, flowMods)
	}
	crt := st.crt[:0]

	for k := range occs {
		o := &occs[k]
		// Walk the episode's hops in order, tracking the reactive
		// per-hop pattern PI(sw1) FM(sw1) PI(sw2) FM(sw2) ... (Figure 3).
		var prevPI, prevFM, pendingPI *Hop
		for i := range o.Hops {
			e := &o.Hops[i]
			switch {
			case e.PacketIn:
				if prevPI != nil && e.Switch != prevPI.Switch {
					p := SwitchPair{prevPI.Switch, e.Switch}
					id, ok := ids[p]
					if !ok {
						id = int32(len(hops))
						ids[p] = id
						hops = append(hops, hopAgg{})
					}
					h := &hops[id]
					h.adj++
					if prevFM != nil && prevFM.Switch == prevPI.Switch {
						if d := e.Time - prevFM.Time; d >= 0 {
							h.isl.Add(float64(d))
						}
					}
				}
				if prevPI == nil {
					votes[HostAttach{Host: string(edgeAt[st.edges[k]].Src), Switch: e.Switch}]++
				}
				prevPI = e
				pendingPI = e
			default:
				if pendingPI != nil && e.Switch == pendingPI.Switch {
					d := e.Time - pendingPI.Time
					if d >= 0 {
						crt = append(crt, float64(d))
					}
					pendingPI = nil
				}
				prevFM = e
			}
		}
	}

	// The majority switch per host, ties to the smaller name.
	for v, n := range votes {
		inf.HostAttachCount[v.Host] += n
		best, ok := inf.HostAttach[v.Host]
		if bestN := votes[HostAttach{v.Host, best}]; !ok || n > bestN || (n == bestN && v.Switch < best) {
			inf.HostAttach[v.Host] = v.Switch
		}
	}
	for p, id := range ids {
		h := &hops[id]
		inf.SwitchAdj[p] = h.adj
		if h.isl.Count() > 0 {
			inf.ISL[p] = h.isl.Summary()
		}
	}
	if len(crt) > 0 {
		inf.CRTSamples = crt
	}
	inf.CRT = stats.Summarize(inf.CRTSamples)
	st.inf, st.crt, st.votes, st.ids, st.hops = inf, crt, votes, ids, hops
	return inf
}

// AdjacencyEdges returns the inferred switch adjacency as a sorted slice
// (for deterministic reporting and diffing).
func (i InfraSignature) AdjacencyEdges() []SwitchPair {
	out := make([]SwitchPair, 0, len(i.SwitchAdj))
	for p := range i.SwitchAdj {
		out = append(out, p)
	}
	slices.SortFunc(out, CompareSwitchPairs)
	return out
}

// MeanISL returns the mean inter-switch latency across all pairs, or 0
// when no samples exist.
func (i InfraSignature) MeanISL() time.Duration {
	pairs := make([]SwitchPair, 0, len(i.ISL))
	for p := range i.ISL {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, CompareSwitchPairs)
	var sum float64
	var n int
	for _, p := range pairs {
		s := i.ISL[p]
		sum += s.Mean * float64(s.Count)
		n += s.Count
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / float64(n))
}
