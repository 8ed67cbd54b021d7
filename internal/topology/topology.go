// Package topology models a data center's physical network: hosts,
// programmable (OpenFlow) and legacy switches, and the links between them,
// together with deterministic shortest-path routing. Link properties
// (latency, loss) are mutable so fault injectors can degrade the fabric,
// and nodes/links can be marked down to model failures.
package topology

import (
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// NodeID names a node ("S4", "sw1", "tor-03").
type NodeID string

// NodeKind distinguishes the node types in the fabric.
type NodeKind int

// Node kinds.
const (
	KindHost NodeKind = iota + 1
	KindSwitch
)

// String returns a human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one element of the fabric.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Addr is the host's IPv4 address (hosts only).
	Addr netip.Addr
	// DPID is the OpenFlow datapath id (switches only).
	DPID uint64
	// OpenFlow is true for programmable switches that talk to the
	// controller; legacy switches forward transparently and produce no
	// control traffic.
	OpenFlow bool
	// Down marks a failed node; routing avoids it.
	Down bool
}

// Link is an undirected cable between two nodes, with the port number used
// on each side.
type Link struct {
	A, B         NodeID
	APort, BPort uint16
	// Latency is the one-way propagation + processing delay.
	Latency time.Duration
	// LossProb is the per-packet loss probability in [0,1].
	LossProb float64
	// Down marks a failed link; routing avoids it.
	Down bool
}

// Other returns the far end of the link as seen from id, and the local
// egress port used to reach it. It errors when id is not an endpoint of
// the link (an earlier version silently answered as if id were the A
// side, which turned caller bugs into wrong ports instead of failures).
func (l *Link) Other(id NodeID) (NodeID, uint16, error) {
	switch id {
	case l.A:
		return l.B, l.APort, nil
	case l.B:
		return l.A, l.BPort, nil
	}
	return "", 0, fmt.Errorf("topology: node %q is not an endpoint of link %s-%s", id, l.A, l.B)
}

// PortAt returns the port number the link occupies on node id, erroring
// when id is not an endpoint of the link.
func (l *Link) PortAt(id NodeID) (uint16, error) {
	switch id {
	case l.A:
		return l.APort, nil
	case l.B:
		return l.BPort, nil
	}
	return 0, fmt.Errorf("topology: node %q is not an endpoint of link %s-%s", id, l.A, l.B)
}

// ID returns the link's canonical component id (see LinkID).
func (l *Link) ID() string { return LinkID(l.A, l.B) }

// LinkID names the link between a and b as a diagnosable component,
// independent of endpoint order: "link:<min><-><max>". Suspect rankings
// and fault ground truths use this id.
func LinkID(a, b NodeID) string {
	if b < a {
		a, b = b, a
	}
	return "link:" + string(a) + "<->" + string(b)
}

// Topology is a mutable network graph. It is not safe for concurrent
// mutation; the simulator drives it from a single goroutine.
type Topology struct {
	nodes    map[NodeID]*Node
	adj      map[NodeID][]*Link
	byAddr   map[netip.Addr]NodeID
	byDPID   map[uint64]NodeID
	nextPort map[NodeID]uint16
	nextDPID uint64
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{
		nodes:    make(map[NodeID]*Node),
		adj:      make(map[NodeID][]*Link),
		byAddr:   make(map[netip.Addr]NodeID),
		byDPID:   make(map[uint64]NodeID),
		nextPort: make(map[NodeID]uint16),
	}
}

// AddHost adds a host with the given IPv4 address.
func (t *Topology) AddHost(id NodeID, addr netip.Addr) (*Node, error) {
	if _, ok := t.nodes[id]; ok {
		return nil, fmt.Errorf("topology: duplicate node %q", id)
	}
	if !addr.Is4() {
		return nil, fmt.Errorf("topology: host %q needs an IPv4 address, got %v", id, addr)
	}
	if prev, ok := t.byAddr[addr]; ok {
		return nil, fmt.Errorf("topology: address %v already assigned to %q", addr, prev)
	}
	n := &Node{ID: id, Kind: KindHost, Addr: addr}
	t.nodes[id] = n
	t.byAddr[addr] = id
	return n, nil
}

// AddSwitch adds a switch. openflow selects whether it is programmable
// (controller-attached) or a legacy transparent switch.
func (t *Topology) AddSwitch(id NodeID, openflow bool) (*Node, error) {
	if _, ok := t.nodes[id]; ok {
		return nil, fmt.Errorf("topology: duplicate node %q", id)
	}
	t.nextDPID++
	n := &Node{ID: id, Kind: KindSwitch, OpenFlow: openflow, DPID: t.nextDPID}
	t.nodes[id] = n
	t.byDPID[n.DPID] = id
	return n, nil
}

// Connect links two existing nodes, assigning the next free port number on
// each side, and returns the new link.
func (t *Topology) Connect(a, b NodeID, latency time.Duration) (*Link, error) {
	na, ok := t.nodes[a]
	if !ok {
		return nil, fmt.Errorf("topology: unknown node %q", a)
	}
	nb, ok := t.nodes[b]
	if !ok {
		return nil, fmt.Errorf("topology: unknown node %q", b)
	}
	if a == b {
		return nil, fmt.Errorf("topology: self-link on %q", a)
	}
	if na.Kind == KindHost && nb.Kind == KindHost {
		return nil, fmt.Errorf("topology: cannot link two hosts (%q-%q)", a, b)
	}
	t.nextPort[a]++
	t.nextPort[b]++
	l := &Link{A: a, B: b, APort: t.nextPort[a], BPort: t.nextPort[b], Latency: latency}
	t.adj[a] = append(t.adj[a], l)
	t.adj[b] = append(t.adj[b], l)
	return l, nil
}

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) (*Node, bool) {
	n, ok := t.nodes[id]
	return n, ok
}

// HostByAddr resolves an IPv4 address to its host node.
func (t *Topology) HostByAddr(addr netip.Addr) (*Node, bool) {
	id, ok := t.byAddr[addr]
	if !ok {
		return nil, false
	}
	return t.nodes[id], true
}

// SwitchByDPID resolves a datapath id to its switch node.
func (t *Topology) SwitchByDPID(dpid uint64) (*Node, bool) {
	id, ok := t.byDPID[dpid]
	if !ok {
		return nil, false
	}
	return t.nodes[id], true
}

// Nodes returns all node ids in sorted order.
func (t *Topology) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Switches returns all switch nodes in sorted id order.
func (t *Topology) Switches() []*Node {
	var out []*Node
	for _, id := range t.Nodes() {
		if n := t.nodes[id]; n.Kind == KindSwitch {
			out = append(out, n)
		}
	}
	return out
}

// Hosts returns all host nodes in sorted id order.
func (t *Topology) Hosts() []*Node {
	var out []*Node
	for _, id := range t.Nodes() {
		if n := t.nodes[id]; n.Kind == KindHost {
			out = append(out, n)
		}
	}
	return out
}

// LinksAt returns the links attached to a node.
func (t *Topology) LinksAt(id NodeID) []*Link { return t.adj[id] }

// LinkBetween returns the first up link directly connecting a and b.
func (t *Topology) LinkBetween(a, b NodeID) (*Link, bool) {
	for _, l := range t.adj[a] {
		other, _, err := l.Other(a)
		if err == nil && other == b && !l.Down {
			return l, true
		}
	}
	return nil, false
}

// Hop is one step of a routed path.
type Hop struct {
	Node    NodeID
	InPort  uint16 // port the flow entered Node on (0 for the source host)
	OutPort uint16 // port the flow leaves Node on (0 for the destination host)
}

// Path computes the shortest up path between two hosts using BFS with a
// deterministic tie-break (lexicographically smallest next node id). The
// result includes both endpoint hosts. It returns an error when either
// endpoint is unknown/down or no path exists.
func (t *Topology) Path(src, dst NodeID) ([]Hop, error) {
	s, ok := t.nodes[src]
	if !ok {
		return nil, fmt.Errorf("topology: unknown source %q", src)
	}
	d, ok := t.nodes[dst]
	if !ok {
		return nil, fmt.Errorf("topology: unknown destination %q", dst)
	}
	if s.Down {
		return nil, fmt.Errorf("topology: source %q is down", src)
	}
	if d.Down {
		return nil, fmt.Errorf("topology: destination %q is down", dst)
	}
	if src == dst {
		return []Hop{{Node: src}}, nil
	}
	type cameFrom struct {
		prev NodeID
		link *Link
	}
	visited := map[NodeID]cameFrom{src: {}}
	frontier := []NodeID{src}
	for len(frontier) > 0 && visited[dst].link == nil {
		var next []NodeID
		for _, cur := range frontier {
			links := append([]*Link(nil), t.adj[cur]...)
			sort.Slice(links, func(i, j int) bool {
				oi, _, _ := links[i].Other(cur)
				oj, _, _ := links[j].Other(cur)
				return oi < oj
			})
			for _, l := range links {
				if l.Down {
					continue
				}
				nb, _, err := l.Other(cur)
				if err != nil {
					continue
				}
				n := t.nodes[nb]
				if n.Down {
					continue
				}
				if _, seen := visited[nb]; seen {
					continue
				}
				// Hosts do not forward transit traffic.
				if n.Kind == KindHost && nb != dst {
					continue
				}
				visited[nb] = cameFrom{prev: cur, link: l}
				next = append(next, nb)
			}
		}
		frontier = next
	}
	if visited[dst].link == nil {
		return nil, fmt.Errorf("topology: no path from %q to %q", src, dst)
	}
	// Reconstruct node sequence.
	var rev []cameFrom
	var seq []NodeID
	for cur := dst; cur != src; {
		cf := visited[cur]
		rev = append(rev, cf)
		seq = append(seq, cur)
		cur = cf.prev
	}
	seq = append(seq, src)
	// Reverse into forward order.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	hops := make([]Hop, len(seq))
	for i, id := range seq {
		hops[i].Node = id
		if i > 0 {
			hops[i].InPort, _ = rev[i-1].link.PortAt(id)
		}
		if i < len(rev) {
			hops[i].OutPort, _ = rev[i].link.PortAt(id)
		}
	}
	return hops, nil
}

// PathElement is one votable component of a routed path: a switch node or
// a link. ID is the node id for switches and LinkID(a, b) for links.
type PathElement struct {
	ID     string
	IsLink bool
}

// PathElements expands a path produced by Path into the ordered list of
// components a flow on that path depends on: every link between
// consecutive hops and every intermediate switch. Endpoint hosts are
// excluded — a host problem is already named directly by the change's
// components, whereas the fabric in between is what voting localizes.
func (t *Topology) PathElements(hops []Hop) []PathElement {
	var out []PathElement
	for i, h := range hops {
		if i > 0 {
			out = append(out, PathElement{ID: LinkID(hops[i-1].Node, h.Node), IsLink: true})
		}
		if n, ok := t.nodes[h.Node]; ok && n.Kind == KindSwitch {
			out = append(out, PathElement{ID: string(h.Node)})
		}
	}
	return out
}

// PathLatency sums the link latencies along a path produced by Path.
func (t *Topology) PathLatency(hops []Hop) time.Duration {
	var total time.Duration
	for i := 0; i+1 < len(hops); i++ {
		if l, ok := t.LinkBetween(hops[i].Node, hops[i+1].Node); ok {
			total += l.Latency
		}
	}
	return total
}

// SwitchHops filters a path down to its OpenFlow switch hops — the
// switches that will emit PacketIn messages for a new flow.
func (t *Topology) SwitchHops(hops []Hop) []Hop {
	var out []Hop
	for _, h := range hops {
		if n, ok := t.nodes[h.Node]; ok && n.Kind == KindSwitch && n.OpenFlow && !n.Down {
			out = append(out, h)
		}
	}
	return out
}
