package controller

import (
	"net/netip"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/topology"
)

func labTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func hostAddr(t *testing.T, topo *topology.Topology, id topology.NodeID) netip.Addr {
	t.Helper()
	n, ok := topo.Node(id)
	if !ok {
		t.Fatalf("missing node %s", id)
	}
	return n.Addr
}

// tcp is the flow key of a TCP packet.
func tcp(src, dst netip.Addr, sp, dp uint16) flowlog.FlowKey {
	return flowlog.FlowKey{Proto: 6, Src: src, Dst: dst, SrcPort: sp, DstPort: dp}
}

func TestShortestPathInstallsOnReportingSwitch(t *testing.T) {
	topo := labTopo(t)
	l := NewShortestPath(topo, ModeReactive)
	src := hostAddr(t, topo, "S1")
	dst := hostAddr(t, topo, "S6")
	pkt := tcp(src, dst, 5000, 80)

	hops, err := topo.Path("S1", "S6")
	if err != nil {
		t.Fatal(err)
	}
	swHops := topo.SwitchHops(hops)
	if len(swHops) == 0 {
		t.Fatal("no switch hops")
	}
	for _, h := range swHops {
		ops, err := l.PacketIn(string(h.Node), pkt)
		if err != nil {
			t.Fatalf("PacketIn at %s: %v", h.Node, err)
		}
		if len(ops) != 1 {
			t.Fatalf("got %d ops, want 1", len(ops))
		}
		op := ops[0]
		if op.Switch != string(h.Node) {
			t.Errorf("installed on %s, want %s", op.Switch, h.Node)
		}
		if op.Entry.OutPort != h.OutPort {
			t.Errorf("out port %d, want %d", op.Entry.OutPort, h.OutPort)
		}
		if op.Entry.Match.HostPair {
			t.Error("reactive mode should install exact-match entries")
		}
		if op.Entry.IdleTimeout != 5*time.Second || op.Entry.HardTimeout != 60*time.Second {
			t.Errorf("timeouts = %v/%v", op.Entry.IdleTimeout, op.Entry.HardTimeout)
		}
		if !op.Entry.NotifyRemoved {
			t.Error("reactive entries should request FlowRemoved")
		}
	}
}

func TestWildcardModeInstallsHostPair(t *testing.T) {
	topo := labTopo(t)
	l := NewShortestPath(topo, ModeWildcard)
	src := hostAddr(t, topo, "S1")
	dst := hostAddr(t, topo, "S6")
	pkt := tcp(src, dst, 5000, 80)
	ops, err := l.PacketIn("sw2", pkt)
	if err != nil {
		t.Fatal(err)
	}
	m := ops[0].Entry.Match
	if !m.HostPair {
		t.Error("wildcard mode should not install exact entries")
	}
	// The installed wildcard must cover a different flow between the same
	// hosts.
	other := tcp(src, dst, 6000, 443)
	if !m.Matches(other) {
		t.Error("host-pair entry should match other flows between the pair")
	}
}

func TestPacketInErrors(t *testing.T) {
	topo := labTopo(t)
	l := NewShortestPath(topo, ModeReactive)
	src := hostAddr(t, topo, "S1")
	dst := hostAddr(t, topo, "S6")

	t.Run("unknown source", func(t *testing.T) {
		pkt := tcp(netip.MustParseAddr("1.2.3.4"), dst, 1, 2)
		if _, err := l.PacketIn("sw2", pkt); err == nil {
			t.Error("want error for unknown source host")
		}
	})
	t.Run("unknown destination", func(t *testing.T) {
		pkt := tcp(src, netip.MustParseAddr("1.2.3.4"), 1, 2)
		if _, err := l.PacketIn("sw2", pkt); err == nil {
			t.Error("want error for unknown destination host")
		}
	})
	t.Run("switch off path", func(t *testing.T) {
		pkt := tcp(src, dst, 1, 2)
		if _, err := l.PacketIn("sw5", pkt); err == nil {
			t.Error("want error when reporting switch is not on the path")
		}
	})
	t.Run("destination down", func(t *testing.T) {
		n, _ := topo.Node("S6")
		n.Down = true
		defer func() { n.Down = false; l.InvalidateRoutes() }()
		l.InvalidateRoutes()
		pkt := tcp(src, dst, 1, 2)
		if _, err := l.PacketIn("sw2", pkt); err == nil {
			t.Error("want error when destination host is down")
		}
	})
}

func TestRouteCacheInvalidation(t *testing.T) {
	topo := labTopo(t)
	l := NewShortestPath(topo, ModeReactive)
	src := hostAddr(t, topo, "S1")
	dst := hostAddr(t, topo, "S6")
	pkt := tcp(src, dst, 1, 2)
	if _, err := l.PacketIn("sw2", pkt); err != nil {
		t.Fatal(err)
	}
	// Fail the destination: the cached path keeps working until routes are
	// invalidated (matching real controllers that recompute lazily).
	n, _ := topo.Node("S6")
	n.Down = true
	if _, err := l.PacketIn("sw2", pkt); err != nil {
		t.Fatalf("cached route should still answer: %v", err)
	}
	l.InvalidateRoutes()
	if _, err := l.PacketIn("sw2", pkt); err == nil {
		t.Error("after invalidation, routing to a down host should fail")
	}
	n.Down = false
}

func TestProactiveRules(t *testing.T) {
	topo := labTopo(t)
	l := NewShortestPath(topo, ModeProactive)
	ops, err := l.ProactiveRules()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no proactive rules generated")
	}
	for _, op := range ops {
		if op.Entry.IdleTimeout != 0 || op.Entry.HardTimeout != 0 {
			t.Fatal("proactive rules must not expire")
		}
		if op.Entry.NotifyRemoved {
			t.Fatal("proactive rules must not emit FlowRemoved")
		}
		n, ok := topo.Node(topology.NodeID(op.Switch))
		if !ok || !n.OpenFlow {
			t.Fatalf("rule targets non-OpenFlow node %q", op.Switch)
		}
	}
	// Every reachable host pair must have a rule on every OpenFlow switch
	// of its path. Spot-check one pair.
	src := hostAddr(t, topo, "S1")
	dst := hostAddr(t, topo, "S6")
	hops, _ := topo.Path("S1", "S6")
	for _, h := range topo.SwitchHops(hops) {
		found := false
		for _, op := range ops {
			if op.Switch == string(h.Node) && op.Entry.Match.Matches(tcp(src, dst, 42, 80)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no proactive rule for S1->S6 on %s", h.Node)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeReactive.String() != "reactive" || ModeWildcard.String() != "wildcard" ||
		ModeProactive.String() != "proactive" {
		t.Error("mode names wrong")
	}
}
