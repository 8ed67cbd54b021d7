package appgroup

import (
	"net/netip"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/topology"
)

// logWith builds a log with one PacketIn per (src,dst) address pair.
func logWith(pairs ...[2]netip.Addr) *flowlog.Log {
	l := flowlog.New(0, time.Minute)
	for i, p := range pairs {
		l.Append(flowlog.Event{
			Time: time.Duration(i) * time.Second,
			Type: flowlog.EventPacketIn,
			Flow: flowlog.FlowKey{Proto: 6, Src: p[0], Dst: p[1], SrcPort: uint16(1000 + i), DstPort: 80},
		})
	}
	return l
}

// discover resolves a log's distinct PacketIn flows to host edges — as
// the signature pipeline's aggregates do — and discovers groups over
// them.
func discover(log *flowlog.Log, r *Resolver, special map[topology.NodeID]bool) []Group {
	edges := make(map[Edge]int)
	for _, key := range log.Flows() {
		edges[Edge{Src: r.Node(key.Src), Dst: r.Node(key.Dst)}]++
	}
	return DiscoverFromEdges(edges, special)
}

func addrOf(t *testing.T, topo *topology.Topology, id topology.NodeID) netip.Addr {
	t.Helper()
	n, ok := topo.Node(id)
	if !ok {
		t.Fatalf("no node %s", id)
	}
	return n.Addr
}

func labAndResolver(t *testing.T) (*topology.Topology, *Resolver) {
	t.Helper()
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	return topo, NewResolver(topo)
}

func specialSet() map[topology.NodeID]bool {
	s := make(map[topology.NodeID]bool)
	for _, id := range topology.ServiceNodes {
		s[id] = true
	}
	return s
}

func TestDiscoverSeparateGroups(t *testing.T) {
	topo, r := labAndResolver(t)
	log := logWith(
		[2]netip.Addr{addrOf(t, topo, "S1"), addrOf(t, topo, "S2")},
		[2]netip.Addr{addrOf(t, topo, "S2"), addrOf(t, topo, "S3")},
		[2]netip.Addr{addrOf(t, topo, "S10"), addrOf(t, topo, "S11")},
	)
	groups := discover(log, r, specialSet())
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(groups), groups)
	}
	if !groups[0].Contains("S1") || !groups[0].Contains("S3") {
		t.Errorf("first group = %v", groups[0].Nodes)
	}
	if !groups[1].Contains("S10") || !groups[1].Contains("S11") {
		t.Errorf("second group = %v", groups[1].Nodes)
	}
}

func TestSpecialNodesDoNotMergeGroups(t *testing.T) {
	topo, r := labAndResolver(t)
	nfs := addrOf(t, topo, "NFS")
	log := logWith(
		[2]netip.Addr{addrOf(t, topo, "S1"), addrOf(t, topo, "S2")},
		[2]netip.Addr{addrOf(t, topo, "S1"), nfs},
		[2]netip.Addr{addrOf(t, topo, "S10"), nfs},
		[2]netip.Addr{addrOf(t, topo, "S10"), addrOf(t, topo, "S11")},
	)
	groups := discover(log, r, specialSet())
	if len(groups) != 2 {
		t.Fatalf("shared NFS merged groups: %d groups %v", len(groups), groups)
	}
	// Without the special marking, the NFS node merges everything.
	groups = discover(log, r, nil)
	if len(groups) != 1 {
		t.Fatalf("without special nodes, want 1 merged group, got %d", len(groups))
	}
}

func TestEdgesThroughSpecialNodesAttributed(t *testing.T) {
	topo, r := labAndResolver(t)
	nfs := addrOf(t, topo, "NFS")
	log := logWith(
		[2]netip.Addr{addrOf(t, topo, "S1"), addrOf(t, topo, "S2")},
		[2]netip.Addr{addrOf(t, topo, "S1"), nfs},
	)
	groups := discover(log, r, specialSet())
	if len(groups) != 1 {
		t.Fatalf("groups = %v", groups)
	}
	foundNFSEdge := false
	for _, e := range groups[0].Edges {
		if e.Dst == "NFS" {
			foundNFSEdge = true
		}
	}
	if !foundNFSEdge {
		t.Error("edge to the NFS service should be attributed to the group")
	}
	if groups[0].Contains("NFS") {
		t.Error("special node must not be a group member")
	}
}

func TestUnknownAddressesGetSyntheticNodes(t *testing.T) {
	topo, r := labAndResolver(t)
	foreign := netip.MustParseAddr("203.0.113.9")
	log := logWith(
		[2]netip.Addr{foreign, addrOf(t, topo, "S1")},
	)
	groups := discover(log, r, specialSet())
	if len(groups) != 1 {
		t.Fatalf("groups = %v", groups)
	}
	if !groups[0].Contains("ip:203.0.113.9") {
		t.Errorf("foreign host missing from group: %v", groups[0].Nodes)
	}
}

func TestMatchPairsByOverlap(t *testing.T) {
	base := []Group{
		{Nodes: []topology.NodeID{"S1", "S2", "S3"}},
		{Nodes: []topology.NodeID{"S10", "S11"}},
	}
	cur := []Group{
		{Nodes: []topology.NodeID{"S10", "S11"}},
		{Nodes: []topology.NodeID{"S1", "S2"}},   // S3 crashed
		{Nodes: []topology.NodeID{"S20", "S21"}}, // brand new
	}
	pairs := Match(base, cur)
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	var matched, newGroups int
	for _, p := range pairs {
		if p.Base >= 0 && p.Cur >= 0 {
			matched++
			if base[p.Base].Contains("S1") && !cur[p.Cur].Contains("S1") {
				t.Error("S1 group mismatched")
			}
		}
		if p.Base < 0 {
			newGroups++
			if !cur[p.Cur].Contains("S20") {
				t.Error("wrong group flagged as new")
			}
		}
	}
	if matched != 2 || newGroups != 1 {
		t.Errorf("matched=%d new=%d, want 2/1", matched, newGroups)
	}
}

func TestGroupKeyDeterministic(t *testing.T) {
	g1 := Group{Nodes: []topology.NodeID{"S1", "S2"}}
	g2 := Group{Nodes: []topology.NodeID{"S1", "S2"}}
	if g1.Key() != g2.Key() {
		t.Error("identical groups should share a key")
	}
	g3 := Group{Nodes: []topology.NodeID{"S1", "S3"}}
	if g1.Key() == g3.Key() {
		t.Error("different groups should not share a key")
	}
}

func TestDiscoverDeterministicOrder(t *testing.T) {
	topo, r := labAndResolver(t)
	log := logWith(
		[2]netip.Addr{addrOf(t, topo, "S9"), addrOf(t, topo, "S8")},
		[2]netip.Addr{addrOf(t, topo, "S1"), addrOf(t, topo, "S2")},
		[2]netip.Addr{addrOf(t, topo, "S5"), addrOf(t, topo, "S6")},
	)
	a := discover(log, r, specialSet())
	b := discover(log, r, specialSet())
	if len(a) != len(b) {
		t.Fatal("nondeterministic group count")
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("nondeterministic group order")
		}
	}
}
