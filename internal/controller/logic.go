// Package controller is the routing logic of the simulated data center's
// centralized control plane: a NOX-like shortest-path module that reacts
// to a table miss by installing a per-hop forwarding rule, under the
// deployment modes discussed in the paper's §VI (reactive microflow,
// wildcard, proactive). The simulator (internal/simnet) calls it in
// virtual time; FlowDiff itself only ever sees the captured control
// traffic.
package controller

import (
	"fmt"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/switchsim"
	"flowdiff/internal/topology"
)

// Mode selects the rule-installation strategy (§VI deployment
// considerations).
type Mode int

// Deployment modes.
const (
	// ModeReactive installs one exact-match (microflow) entry per flow,
	// per hop — maximal control-plane visibility.
	ModeReactive Mode = iota
	// ModeWildcard installs host-pair wildcard entries: only the first
	// flow between a pair of hosts triggers control traffic.
	ModeWildcard
	// ModeProactive preinstalls all-pairs rules with no timeouts: no
	// control traffic at all after startup.
	ModeProactive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeReactive:
		return "reactive"
	case ModeWildcard:
		return "wildcard"
	case ModeProactive:
		return "proactive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// InstallOp asks the data plane to install one flow-table entry.
type InstallOp struct {
	Switch string
	Entry  switchsim.Entry
}

// ShortestPath is the routing logic: on a miss it computes the shortest
// path between the packet's hosts and installs a forwarding rule on the
// reporting switch (per-hop reactive setup, as in Figure 3 of the
// paper). It is deterministic: the simulator replays its decisions under
// a virtual clock.
type ShortestPath struct {
	Topo *topology.Topology
	Mode Mode
	// IdleTimeout / HardTimeout are applied to installed entries.
	IdleTimeout time.Duration
	HardTimeout time.Duration
	// Priority of installed entries.
	Priority uint16

	paths map[pathKey][]topology.Hop
}

type pathKey struct {
	src, dst topology.NodeID
}

// NewShortestPath builds the default logic with the paper's reactive
// deployment: 5 s soft timeout, 60 s hard timeout.
func NewShortestPath(topo *topology.Topology, mode Mode) *ShortestPath {
	return &ShortestPath{
		Topo:        topo,
		Mode:        mode,
		IdleTimeout: 5 * time.Second,
		HardTimeout: 60 * time.Second,
		Priority:    100,
		paths:       make(map[pathKey][]topology.Hop),
	}
}

// InvalidateRoutes clears the path cache; call after topology changes
// (failures, recoveries).
func (l *ShortestPath) InvalidateRoutes() {
	l.paths = make(map[pathKey][]topology.Hop)
}

func (l *ShortestPath) path(src, dst topology.NodeID) ([]topology.Hop, error) {
	k := pathKey{src, dst}
	if p, ok := l.paths[k]; ok {
		if p == nil {
			return nil, fmt.Errorf("controller: no path %s->%s (cached)", src, dst)
		}
		return p, nil
	}
	p, err := l.Topo.Path(src, dst)
	if err != nil {
		l.paths[k] = nil
		return nil, err
	}
	l.paths[k] = p
	return p, nil
}

// PacketIn handles a table miss at switch swID and returns the entries
// to install. An error means the flow cannot be routed (the packet is
// dropped).
func (l *ShortestPath) PacketIn(swID string, pkt flowlog.FlowKey) ([]InstallOp, error) {
	src, dst := pkt.Src, pkt.Dst
	srcHost, ok := l.Topo.HostByAddr(src)
	if !ok {
		return nil, fmt.Errorf("controller: unknown source host %v", src)
	}
	dstHost, ok := l.Topo.HostByAddr(dst)
	if !ok {
		return nil, fmt.Errorf("controller: unknown destination host %v", dst)
	}
	hops, err := l.path(srcHost.ID, dstHost.ID)
	if err != nil {
		return nil, fmt.Errorf("controller: routing %v->%v: %w", src, dst, err)
	}
	var outPort uint16
	found := false
	for _, h := range hops {
		if h.Node == topology.NodeID(swID) {
			outPort = h.OutPort
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("controller: switch %s not on path %s->%s", swID, srcHost.ID, dstHost.ID)
	}

	match := switchsim.ExactMatch(pkt)
	if l.Mode == ModeWildcard {
		match = switchsim.HostPairMatch(src, dst)
	}
	op := InstallOp{
		Switch: swID,
		Entry: switchsim.Entry{
			Match:         match,
			Priority:      l.Priority,
			OutPort:       outPort,
			IdleTimeout:   l.IdleTimeout,
			HardTimeout:   l.HardTimeout,
			NotifyRemoved: true,
		},
	}
	return []InstallOp{op}, nil
}

// ProactiveRules computes the all-pairs permanent rules installed at
// startup in ModeProactive. Rules have no timeouts, so they never produce
// FlowRemoved messages.
func (l *ShortestPath) ProactiveRules() ([]InstallOp, error) {
	hosts := l.Topo.Hosts()
	var ops []InstallOp
	for _, a := range hosts {
		for _, b := range hosts {
			if a.ID == b.ID {
				continue
			}
			hops, err := l.path(a.ID, b.ID)
			if err != nil {
				continue // unreachable pair: nothing to install
			}
			for _, h := range l.Topo.SwitchHops(hops) {
				ops = append(ops, InstallOp{
					Switch: string(h.Node),
					Entry: switchsim.Entry{
						Match:    switchsim.HostPairMatch(a.Addr, b.Addr),
						Priority: l.Priority,
						OutPort:  h.OutPort,
					},
				})
			}
		}
	}
	return ops, nil
}
