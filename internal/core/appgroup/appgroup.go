// Package appgroup discovers application groups (paper §III-B): connected
// components of the host-level communication graph built from control
// traffic, split at operator-marked special-purpose service nodes (DNS,
// NFS, NTP, …) so that unrelated applications sharing a storage or name
// service are not merged into one group.
package appgroup

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"flowdiff/internal/topology"
)

// Edge is a directed host-to-host communication edge.
type Edge struct {
	Src, Dst topology.NodeID
}

// String renders "src->dst".
func (e Edge) String() string { return fmt.Sprintf("%s->%s", e.Src, e.Dst) }

// Group is one application group: the nodes of a connected communication
// component (excluding special-purpose nodes) plus its internal edges.
type Group struct {
	// Nodes are the member hosts, sorted.
	Nodes []topology.NodeID
	// Edges are the directed communication edges among members and
	// to/from special nodes observed for this group.
	Edges []Edge
}

// Key returns a canonical identity for the group (its sorted member
// list), stable across logs so groups can be matched between L1 and L2.
//
// Group identity must survive small membership changes (a crashed member
// disappears from L2); Match handles that by overlap, Key by exact set.
func (g Group) Key() string {
	n := 0
	for _, id := range g.Nodes {
		n += len(id) + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, id := range g.Nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(string(id))
	}
	return sb.String()
}

// Contains reports whether the group includes the host.
func (g Group) Contains(id topology.NodeID) bool {
	for _, n := range g.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// Resolver maps flow addresses to node identities. Unknown addresses
// (e.g. external hosts in an unauthorized-access scenario) are given
// synthetic "ip:<addr>" ids so they still appear in the graph.
//
// Resolutions are memoized: a log resolves the same few hundred
// addresses hundreds of thousands of times, and the synthetic-id path
// would otherwise allocate a fresh string per call. The cache makes
// Node safe for concurrent use.
type Resolver struct {
	topo *topology.Topology

	mu    sync.RWMutex
	cache map[netip.Addr]topology.NodeID
}

// NewResolver builds a resolver over a topology.
func NewResolver(topo *topology.Topology) *Resolver {
	return &Resolver{topo: topo, cache: make(map[netip.Addr]topology.NodeID)}
}

// Node resolves an address to a node id.
func (r *Resolver) Node(addr netip.Addr) topology.NodeID {
	r.mu.RLock()
	id, ok := r.cache[addr]
	r.mu.RUnlock()
	if ok {
		return id
	}
	id = ""
	if r.topo != nil {
		if h, ok := r.topo.HostByAddr(addr); ok {
			id = h.ID
		}
	}
	if id == "" {
		id = topology.NodeID("ip:" + addr.String())
	}
	r.mu.Lock()
	r.cache[addr] = id
	r.mu.Unlock()
	return id
}

// discoverScratch holds one discovery's working state: a node interner
// and an array-based union-find (path halving + union by size) over the
// dense IDs, recycled across calls via a pool so the per-interval
// discoveries of stability analysis, which run one after another, and
// every later build don't re-allocate the maps and arrays each time.
type discoverScratch struct {
	ids    map[topology.NodeID]int32
	nodes  []topology.NodeID
	parent []int32
	size   []int32
	edges  []Edge
	group  []int32 // reused for node->group and root->group indexes
}

var scratchPool = sync.Pool{
	New: func() any { return &discoverScratch{ids: make(map[topology.NodeID]int32)} },
}

func (s *discoverScratch) release() {
	clear(s.ids)
	s.nodes = s.nodes[:0]
	s.parent = s.parent[:0]
	s.size = s.size[:0]
	s.edges = s.edges[:0]
	s.group = s.group[:0]
	scratchPool.Put(s)
}

// intern assigns the node a dense ID and a singleton union-find set.
func (s *discoverScratch) intern(n topology.NodeID) int32 {
	if id, ok := s.ids[n]; ok {
		return id
	}
	id := int32(len(s.nodes))
	s.ids[n] = id
	s.nodes = append(s.nodes, n)
	s.parent = append(s.parent, id)
	s.size = append(s.size, 1)
	return id
}

// find walks to the root with path halving — iterative, so component
// depth is bounded only by memory, not goroutine stack.
func (s *discoverScratch) find(x int32) int32 {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

func (s *discoverScratch) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	if s.size[ra] < s.size[rb] {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.size[ra] += s.size[rb]
}

// DiscoverFromEdges partitions the communication graph — the distinct
// directed host edges of a log's PacketIn traffic — into application
// groups. Special-purpose nodes act as boundaries: they do not merge
// components and belong to no group, but edges touching them are
// attributed to the group of their non-special endpoint (paper §III-B).
// The output is a pure function of the edge set and the special-node
// marks.
func DiscoverFromEdges(edges map[Edge]int, special map[topology.NodeID]bool) []Group {
	s := scratchPool.Get().(*discoverScratch)
	defer s.release()

	// Fix the edge order first: edges is a map, and every later stage —
	// union sequence, member collection, edge attribution — follows this
	// slice, so the whole discovery is deterministic.
	sorted := s.edges
	for e := range edges {
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	s.edges = sorted

	for _, e := range sorted {
		sSpecial, dSpecial := special[e.Src], special[e.Dst]
		switch {
		case sSpecial && dSpecial:
			// Service-to-service traffic joins no group.
		case sSpecial:
			s.intern(e.Dst)
		case dSpecial:
			s.intern(e.Src)
		default:
			s.union(s.intern(e.Src), s.intern(e.Dst))
		}
	}

	// Collect members per component in interned (first-seen) order;
	// groupOf remembers each node's group for the edge pass.
	numNodes := len(s.nodes)
	if cap(s.group) < 2*numNodes {
		s.group = make([]int32, 2*numNodes)
	}
	s.group = s.group[:2*numNodes]
	groupOf, rootGroup := s.group[:numNodes], s.group[numNodes:]
	for i := range rootGroup {
		rootGroup[i] = -1
	}
	var groups []Group
	for id := 0; id < numNodes; id++ {
		root := s.find(int32(id))
		gi := rootGroup[root]
		if gi < 0 {
			gi = int32(len(groups))
			rootGroup[root] = gi
			groups = append(groups, Group{})
		}
		groups[gi].Nodes = append(groups[gi].Nodes, s.nodes[id])
		groupOf[id] = gi
	}
	for gi := range groups {
		nodes := groups[gi].Nodes
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	}

	// Attribute edges: each edge belongs to the group of its non-special
	// endpoint (a non-special pair was unioned, so both endpoints agree).
	// One pass over the globally sorted slice keeps every per-group list
	// sorted by (Src, Dst) without per-group sorts.
	for _, e := range sorted {
		gi := int32(-1)
		if !special[e.Src] {
			gi = groupOf[s.ids[e.Src]]
		} else if !special[e.Dst] {
			gi = groupOf[s.ids[e.Dst]]
		}
		if gi >= 0 {
			groups[gi].Edges = append(groups[gi].Edges, e)
		}
	}

	// Sort by canonical key, computed once per group — Key concatenation
	// isn't element-wise comparable for node names containing bytes below
	// ',', so the comparator must use the rendered keys themselves.
	keys := make([]string, len(groups))
	for i := range groups {
		keys[i] = groups[i].Key()
	}
	sort.Sort(&groupSorter{groups: groups, keys: keys})
	return groups
}

type groupSorter struct {
	groups []Group
	keys   []string
}

func (g *groupSorter) Len() int           { return len(g.groups) }
func (g *groupSorter) Less(i, j int) bool { return g.keys[i] < g.keys[j] }
func (g *groupSorter) Swap(i, j int) {
	g.groups[i], g.groups[j] = g.groups[j], g.groups[i]
	g.keys[i], g.keys[j] = g.keys[j], g.keys[i]
}

// Match pairs groups from two logs by maximal member overlap, so a group
// that lost or gained a host (crash, scale-out) is still compared against
// its counterpart: every base group in order, then the current groups
// nothing matched.
func Match(base, cur []Group) []GroupPair {
	usedCur := make([]bool, len(cur))
	pairs := make([]GroupPair, 0, len(base)+len(cur))
	for bi, b := range base {
		bestIdx, bestOverlap := -1, 0
		for i, c := range cur {
			if usedCur[i] {
				continue
			}
			ov := overlap(b, c)
			if ov > bestOverlap {
				bestOverlap, bestIdx = ov, i
			}
		}
		if bestIdx >= 0 {
			usedCur[bestIdx] = true
		}
		pairs = append(pairs, GroupPair{Base: bi, Cur: bestIdx})
	}
	for i := range cur {
		if !usedCur[i] {
			pairs = append(pairs, GroupPair{Base: -1, Cur: i})
		}
	}
	return pairs
}

// GroupPair is a base/current group correspondence by index into Match's
// arguments. An index is -1 on the side the group is absent from: Cur
// for a group that vanished, Base for a new one.
type GroupPair struct {
	Base, Cur int
}

func overlap(a, b Group) int {
	n := 0
	for _, x := range a.Nodes {
		if b.Contains(x) {
			n++
		}
	}
	return n
}
