package signature

import (
	"sort"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/stats"
)

// SwitchPair is an ordered pair of switches observed consecutively on
// flow paths.
type SwitchPair struct {
	From, To string
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
	// CRTSamples retains raw response times for CDFs and overload tests.
	CRTSamples []float64
	// LinkBytes estimates per-adjacency utilization (bytes per second of
	// log time): each flow's final byte count (FlowRemoved) is attributed
	// to every switch pair its PacketIn sequence traversed — the §III-C
	// "baseline performance parameters (such as link utilization)".
	LinkBytes map[SwitchPair]float64
}

// BuildInfra extracts the infrastructure signature from a log.
func BuildInfra(log *flowlog.Log, r *appgroup.Resolver, cfg Config) InfraSignature {
	return fromLog(log, r, cfg, 0).Infra()
}

// removedFlow is one flow key's final byte count: the first FlowRemoved
// observed for the key, in log order (the first report carries the full
// episode counters; later per-switch reports would multiply them).
type removedFlow struct {
	Key   flowlog.FlowKey
	Bytes uint64
}

// attachLinkBytesFrom distributes each removed flow's byte count over
// the switch adjacencies its occurrences traversed, normalized to bytes
// per second of log time. removals must hold one entry per flow key, in
// log order (the float accumulation order is part of the byte-identical
// contract); occs are the log's episodes. A key's path is that of its
// first episode that crossed at least two switches.
func attachLinkBytesFrom(inf *InfraSignature, dur time.Duration, removals []removedFlow, occs []Occurrence) {
	if dur <= 0 {
		return
	}
	// first[key] is the position in occs of the key's path episode, -1
	// until one is found; only removed flows' keys are looked for.
	first := make(map[flowlog.FlowKey]int32, len(removals))
	for i := range removals {
		first[removals[i].Key] = -1
	}
	for i := range occs {
		if at, removed := first[occs[i].Key]; removed && at < 0 && packetIns(&occs[i]) >= 2 {
			first[occs[i].Key] = int32(i)
		}
	}
	inf.LinkBytes = make(map[SwitchPair]float64)
	secs := dur.Seconds()
	for _, rf := range removals {
		at := first[rf.Key]
		if at < 0 {
			continue
		}
		prev, seen := "", false
		for i := range occs[at].Events {
			e := &occs[at].Events[i]
			if e.Type != flowlog.EventPacketIn {
				continue
			}
			if seen {
				inf.LinkBytes[SwitchPair{prev, e.Switch}] += float64(rf.Bytes) / secs
			}
			prev, seen = e.Switch, true
		}
	}
}

// packetIns counts the episode's PacketIns: the switches it crossed.
func packetIns(o *Occurrence) (n int) {
	for i := range o.Events {
		if o.Events[i].Type == flowlog.EventPacketIn {
			n++
		}
	}
	return n
}

func buildInfraFromOccs(r *appgroup.Resolver, cfg Config, occs []Occurrence) InfraSignature {
	inf := InfraSignature{
		SwitchAdj:       make(map[SwitchPair]int),
		HostAttach:      make(map[string]string),
		HostAttachCount: make(map[string]int),
		ISL:             make(map[SwitchPair]stats.Summary),
		LinkBytes:       make(map[SwitchPair]float64),
	}
	islSamples := make(map[SwitchPair][]float64)
	var crt []float64
	attachVotes := make(map[string]map[string]int)

	for _, o := range occs {
		// Walk the episode's events in order, tracking the reactive
		// per-hop pattern PI(sw1) FM(sw1) PI(sw2) FM(sw2) ... (Figure 3).
		var prevPI *flowlog.Event
		var prevFM *flowlog.Event
		var pendingPI *flowlog.Event
		for i := range o.Events {
			e := &o.Events[i]
			switch e.Type {
			case flowlog.EventPacketIn:
				if prevPI != nil && e.Switch != prevPI.Switch {
					inf.SwitchAdj[SwitchPair{prevPI.Switch, e.Switch}]++
					if prevFM != nil && prevFM.Switch == prevPI.Switch {
						d := e.Time - prevFM.Time
						if d >= 0 {
							p := SwitchPair{prevPI.Switch, e.Switch}
							islSamples[p] = append(islSamples[p], float64(d))
						}
					}
				}
				if prevPI == nil {
					src := string(r.Node(o.Key.Src))
					if attachVotes[src] == nil {
						attachVotes[src] = make(map[string]int)
					}
					attachVotes[src][e.Switch]++
				}
				prevPI = e
				pendingPI = e
			case flowlog.EventFlowMod:
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

	for host, votes := range attachVotes {
		best, bestN, total := "", 0, 0
		for sw, n := range votes {
			total += n
			if n > bestN || (n == bestN && sw < best) {
				best, bestN = sw, n
			}
		}
		inf.HostAttach[host] = best
		inf.HostAttachCount[host] = total
	}
	for p, xs := range islSamples {
		inf.ISL[p] = stats.Summarize(xs)
	}
	inf.CRT = stats.Summarize(crt)
	inf.CRTSamples = crt
	return inf
}

// AdjacencyEdges returns the inferred switch adjacency as a sorted slice
// (for deterministic reporting and diffing).
func (i InfraSignature) AdjacencyEdges() []SwitchPair {
	out := make([]SwitchPair, 0, len(i.SwitchAdj))
	for p := range i.SwitchAdj {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}

// MeanISL returns the mean inter-switch latency across all pairs, or 0
// when no samples exist.
func (i InfraSignature) MeanISL() time.Duration {
	pairs := make([]SwitchPair, 0, len(i.ISL))
	for p := range i.ISL {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].From != pairs[b].From {
			return pairs[a].From < pairs[b].From
		}
		return pairs[a].To < pairs[b].To
	})
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
