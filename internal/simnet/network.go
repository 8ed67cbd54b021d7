package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"flowdiff/internal/controller"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/stats"
	"flowdiff/internal/switchsim"
	"flowdiff/internal/topology"
)

// Config tunes the simulated control and data planes. Zero fields take
// the defaults documented on each field.
type Config struct {
	// Seed drives all randomness (loss sampling, controller jitter).
	Seed int64
	// Mode selects the controller's rule-installation strategy.
	Mode controller.Mode
	// IdleTimeout / HardTimeout for installed entries. Defaults: 5 s / 60 s.
	IdleTimeout time.Duration
	HardTimeout time.Duration
	// ControlLatency is the one-way switch-controller delay. Default 500 µs.
	ControlLatency time.Duration
	// ControllerService is the mean controller processing time per
	// PacketIn. Default 200 µs.
	ControllerService time.Duration
	// ControllerJitter is the fractional jitter on service time. Default 0.2.
	ControllerJitter float64
	// PacketSize is the bytes-per-packet quantum. Default 1500.
	PacketSize int
	// LineRate is the transfer rate in bytes/second. Default 125 MB/s
	// (1 Gb/s).
	LineRate float64
	// RetxPenalty is the extra delivery delay per lost packet (TCP
	// retransmission). Default 40 ms.
	RetxPenalty time.Duration
	// SweepInterval is how often switch tables are scanned for expired
	// entries. Default 250 ms.
	SweepInterval time.Duration
	// Controllers is the number of controller instances (§VI distributed
	// controller). Switches are sharded across instances; each instance
	// has its own processing queue, and the captured logs are merged as
	// a FlowVisor-style synchronization layer would. Default 1.
	Controllers int
}

func (c Config) withDefaults() Config {
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Second
	}
	if c.HardTimeout == 0 {
		c.HardTimeout = 60 * time.Second
	}
	if c.ControlLatency == 0 {
		c.ControlLatency = 500 * time.Microsecond
	}
	if c.ControllerService == 0 {
		c.ControllerService = 200 * time.Microsecond
	}
	if c.ControllerJitter == 0 {
		c.ControllerJitter = 0.2
	}
	if c.PacketSize == 0 {
		c.PacketSize = 1500
	}
	if c.LineRate == 0 {
		c.LineRate = 125e6
	}
	if c.RetxPenalty == 0 {
		c.RetxPenalty = 40 * time.Millisecond
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 250 * time.Millisecond
	}
	if c.Controllers <= 0 {
		c.Controllers = 1
	}
	return c
}

// Flow is one application-level transfer (a request, response, or bulk
// copy) identified by its 5-tuple.
type Flow struct {
	Key   flowlog.FlowKey
	Bytes uint64
}

// Delivery notifies a host that a flow finished arriving.
type Delivery struct {
	Flow      Flow
	Src, Dst  topology.NodeID
	Started   time.Duration
	Delivered time.Duration
}

// DeliveryHandler reacts to a completed flow at a host (e.g. an
// application tier issuing its dependent flow).
type DeliveryHandler func(d Delivery)

// Network binds an Engine, a Topology, simulated switches, and the
// controller logic into a runnable data center.
type Network struct {
	Eng  *Engine
	Topo *topology.Topology

	cfg   Config
	rng   *rand.Rand
	logic *controller.ShortestPath

	switches map[topology.NodeID]*switchsim.Switch
	log      *flowlog.Log
	handlers map[topology.NodeID][]DeliveryHandler

	// pathCache avoids recomputing BFS for every flow; cleared by
	// InvalidateRoutes.
	pathCache map[pathKey][]topology.Hop

	// ctrlBusyUntil tracks each controller instance's queue; switches are
	// sharded across instances (§VI distributed controller).
	ctrlBusyUntil []time.Duration
	ctrlOf        map[topology.NodeID]int
	// ControllerDown drops all control traffic: table misses blackhole.
	ControllerDown bool

	dropped int
	stopped bool
}

type pathKey struct{ src, dst topology.NodeID }

// NewNetwork wires a simulated data center over the given topology.
func NewNetwork(topo *topology.Topology, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	n := &Network{
		Eng:       NewEngine(),
		Topo:      topo,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		switches:  make(map[topology.NodeID]*switchsim.Switch),
		log:       flowlog.New(0, 0),
		handlers:  make(map[topology.NodeID][]DeliveryHandler),
		pathCache: make(map[pathKey][]topology.Hop),
	}
	n.logic = controller.NewShortestPath(topo, cfg.Mode)
	n.logic.IdleTimeout = cfg.IdleTimeout
	n.logic.HardTimeout = cfg.HardTimeout
	n.ctrlBusyUntil = make([]time.Duration, cfg.Controllers)
	n.ctrlOf = make(map[topology.NodeID]int)
	shard := 0
	for _, sn := range topo.Switches() {
		if !sn.OpenFlow {
			continue
		}
		n.ctrlOf[sn.ID] = shard % cfg.Controllers
		shard++
		sw := switchsim.New(string(sn.ID), sn.DPID)
		id := sn.ID
		sw.OnFlowRemoved(func(s *switchsim.Switch, e *switchsim.Entry, reason uint8, now time.Duration) {
			n.log.Append(flowlog.Event{
				Time:         now + n.cfg.ControlLatency,
				Type:         flowlog.EventFlowRemoved,
				Switch:       string(id),
				DPID:         s.DPID,
				Flow:         e.Match.Key,
				Bytes:        e.Bytes,
				Packets:      e.Packets,
				FlowDuration: now - e.Installed,
				Reason:       reason,
			})
		})
		n.switches[sn.ID] = sw
	}
	if cfg.Mode == controller.ModeProactive {
		ops, err := n.logic.ProactiveRules()
		if err != nil {
			return nil, fmt.Errorf("simnet: computing proactive rules: %w", err)
		}
		for _, op := range ops {
			sw, ok := n.switches[topology.NodeID(op.Switch)]
			if !ok {
				return nil, fmt.Errorf("simnet: proactive rule for unknown switch %q", op.Switch)
			}
			e := op.Entry
			if err := sw.Install(&e, 0); err != nil {
				return nil, err
			}
		}
	}
	n.scheduleSweep()
	return n, nil
}

// Config returns the effective (default-filled) configuration.
func (n *Network) Config() Config { return n.cfg }

// Switch returns the simulated datapath for a switch node.
func (n *Network) Switch(id topology.NodeID) (*switchsim.Switch, bool) {
	sw, ok := n.switches[id]
	return sw, ok
}

// Log returns the control-traffic log accumulated so far, sorted, with
// bounds [capture start, now).
func (n *Network) Log() *flowlog.Log {
	out := flowlog.New(n.log.Start, n.Eng.Now())
	out.Events = append(out.Events, n.log.Events...)
	out.Sort()
	return out
}

// ResetLog discards captured events and restarts the log at the current
// virtual time (used to capture L1 and L2 from the same running system).
func (n *Network) ResetLog() {
	n.log = flowlog.New(n.Eng.Now(), n.Eng.Now())
	// Rewire FlowRemoved closures? Not needed: they append via n.log
	// through the method receiver.
}

// Dropped returns how many flows could not be delivered (no route,
// controller down, or dead switch on path).
func (n *Network) Dropped() int { return n.dropped }

// OnDeliver registers a handler invoked when flows complete at host id.
func (n *Network) OnDeliver(id topology.NodeID, fn DeliveryHandler) {
	n.handlers[id] = append(n.handlers[id], fn)
}

// InvalidateRoutes clears both the controller's and the data plane's path
// caches; call after changing the topology (failures/recoveries).
func (n *Network) InvalidateRoutes() {
	n.logic.InvalidateRoutes()
	n.pathCache = make(map[pathKey][]topology.Hop)
}

// Stop ceases the periodic table sweeps so the event queue can drain.
func (n *Network) Stop() { n.stopped = true }

// ReportPortStatus logs an asynchronous PORT_STATUS message from a switch
// (link up/down detection). Fault injectors use it to model neighbors
// noticing a dead peer.
func (n *Network) ReportPortStatus(sw topology.NodeID, port uint16, reason uint8) {
	node, ok := n.Topo.Node(sw)
	if !ok || !node.OpenFlow || node.Down {
		return
	}
	n.log.Append(flowlog.Event{
		Time:   n.Eng.Now() + n.cfg.ControlLatency,
		Type:   flowlog.EventPortStatus,
		Switch: string(sw),
		DPID:   node.DPID,
		InPort: port,
		Reason: reason,
	})
}

// SetControllerService changes the mean controller processing time (used
// by the controller-overload fault injector).
func (n *Network) SetControllerService(d time.Duration) { n.cfg.ControllerService = d }

func (n *Network) scheduleSweep() {
	if n.stopped {
		return
	}
	n.Eng.After(n.cfg.SweepInterval, func() {
		// Sorted order keeps the log deterministic across runs.
		for _, sn := range n.Topo.Switches() {
			if sw, ok := n.switches[sn.ID]; ok {
				sw.Sweep(n.Eng.Now())
			}
		}
		n.scheduleSweep()
	})
}

func (n *Network) path(src, dst topology.NodeID) ([]topology.Hop, bool) {
	k := pathKey{src, dst}
	if p, ok := n.pathCache[k]; ok {
		return p, p != nil
	}
	p, err := n.Topo.Path(src, dst)
	if err != nil {
		n.pathCache[k] = nil
		return nil, false
	}
	n.pathCache[k] = p
	return p, true
}

// StartFlow schedules a flow to begin at virtual time at. The flow's
// first packet performs per-hop reactive setup; the remaining bytes
// stream at line rate, inflated by retransmissions on lossy links.
func (n *Network) StartFlow(at time.Duration, f Flow) {
	n.Eng.Schedule(at, func() { n.transmit(f) })
}

func (n *Network) serviceTime() time.Duration {
	return stats.Jitter(n.rng, n.cfg.ControllerService, n.cfg.ControllerJitter)
}

func (n *Network) transmit(f Flow) {
	srcHost, ok := n.Topo.HostByAddr(f.Key.Src)
	if !ok || srcHost.Down {
		n.dropped++
		return
	}
	dstHost, ok := n.Topo.HostByAddr(f.Key.Dst)
	if !ok || dstHost.Down {
		n.dropped++
		return
	}
	hops, ok := n.path(srcHost.ID, dstHost.ID)
	if !ok {
		n.dropped++
		return
	}
	n.walk(f, hops, n.Eng.Now(), 1, n.Eng.Now())
}

// walk advances the flow's first packet hop by hop (Figure 3): each
// OpenFlow switch either hits its table or suspends the walk for a
// PacketIn -> controller -> FlowMod round trip. Controller contention is
// resolved at PacketIn arrival time — each miss is its own scheduled
// event, so the controller's busy period advances in virtual-time order
// across concurrent flows.
func (n *Network) walk(f Flow, hops []topology.Hop, started time.Duration, idx int, cur time.Duration) {
	pktBytes := uint64(n.cfg.PacketSize)
	if f.Bytes < pktBytes {
		pktBytes = f.Bytes
	}
	for i := idx; i < len(hops); i++ {
		link, ok := n.Topo.LinkBetween(hops[i-1].Node, hops[i].Node)
		if !ok {
			n.dropped++
			return
		}
		cur += link.Latency
		node, _ := n.Topo.Node(hops[i].Node)
		if node.Kind != topology.KindSwitch {
			continue // arrived at the destination host
		}
		if node.Down {
			n.dropped++
			return
		}
		sw, isOF := n.switches[node.ID]
		if !isOF || !node.OpenFlow {
			continue // legacy switch: transparent forwarding
		}
		if sw.Down {
			n.dropped++
			return
		}
		if _, hit := sw.Process(f.Key, pktBytes, cur); hit {
			continue
		}
		// Table miss: suspend the walk until the rule is installed.
		if n.ControllerDown {
			n.dropped++
			return
		}
		i := i
		piArrive := cur + n.cfg.ControlLatency
		n.Eng.Schedule(piArrive, func() {
			n.handleMiss(f, hops, started, i, pktBytes)
		})
		return
	}
	n.deliver(f, hops, started, cur)
}

// handleMiss runs at the controller when a PacketIn arrives: it queues
// behind in-flight work, consults the routing logic, installs the rule,
// and resumes the packet's walk at the reporting switch.
func (n *Network) handleMiss(f Flow, hops []topology.Hop, started time.Duration, i int, pktBytes uint64) {
	now := n.Eng.Now()
	node, _ := n.Topo.Node(hops[i].Node)
	n.log.Append(flowlog.Event{
		Time:   now,
		Type:   flowlog.EventPacketIn,
		Switch: string(node.ID),
		DPID:   node.DPID,
		Flow:   f.Key,
		InPort: hops[i].InPort,
		Reason: switchsim.PacketInReasonNoMatch,
	})
	inst := n.ctrlOf[node.ID]
	start := now
	if n.ctrlBusyUntil[inst] > start {
		start = n.ctrlBusyUntil[inst]
	}
	finish := start + n.serviceTime()
	n.ctrlBusyUntil[inst] = finish
	ops, err := n.logic.PacketIn(string(node.ID), f.Key)
	if err != nil {
		n.dropped++
		return
	}
	installAt := finish + n.cfg.ControlLatency
	for _, op := range ops {
		target, ok := n.switches[topology.NodeID(op.Switch)]
		if !ok {
			continue
		}
		op := op
		n.log.Append(flowlog.Event{
			Time:    finish,
			Type:    flowlog.EventFlowMod,
			Switch:  op.Switch,
			DPID:    target.DPID,
			Flow:    op.Entry.Match.Key,
			OutPort: op.Entry.OutPort,
		})
		onSwitch := op.Switch == string(node.ID)
		n.Eng.Schedule(installAt, func() {
			e := op.Entry
			if err := target.Install(&e, n.Eng.Now()); err != nil {
				n.dropped++
				return
			}
			if onSwitch {
				// The buffered first packet matches the new rule and
				// resumes toward the next hop.
				target.Account(&e, 1, pktBytes, n.Eng.Now())
				n.walk(f, hops, started, i+1, n.Eng.Now())
			}
		})
	}
}

// deliver finishes the flow: stream the remaining bytes, model
// loss-driven retransmission, account volume, and notify the
// destination.
func (n *Network) deliver(f Flow, hops []topology.Hop, started, cur time.Duration) {
	dstHost, ok := n.Topo.HostByAddr(f.Key.Dst)
	if !ok {
		n.dropped++
		return
	}
	srcHost, ok := n.Topo.HostByAddr(f.Key.Src)
	if !ok {
		n.dropped++
		return
	}
	pktBytes := uint64(n.cfg.PacketSize)
	if f.Bytes < pktBytes {
		pktBytes = f.Bytes
	}

	// Stream the remaining bytes and model loss-driven retransmission.
	packets := uint64(1)
	if f.Bytes > 0 {
		packets = (f.Bytes + uint64(n.cfg.PacketSize) - 1) / uint64(n.cfg.PacketSize)
	}
	var lost uint64
	for i := 1; i < len(hops); i++ {
		link, ok := n.Topo.LinkBetween(hops[i-1].Node, hops[i].Node)
		if !ok {
			continue
		}
		if link.LossProb > 0 {
			lost += uint64(stats.Poisson(n.rng, float64(packets)*link.LossProb))
		}
	}
	transfer := time.Duration(float64(f.Bytes) / n.cfg.LineRate * float64(time.Second))
	deliverAt := cur + transfer + time.Duration(lost)*n.cfg.RetxPenalty

	extraBytes := f.Bytes - pktBytes + lost*uint64(n.cfg.PacketSize)
	extraPkts := packets - 1 + lost
	n.Eng.Schedule(deliverAt, func() {
		// Account the rest of the flow's volume on every entry still
		// installed along the path.
		if extraPkts > 0 {
			for _, h := range n.Topo.SwitchHops(hops) {
				sw, ok := n.switches[h.Node]
				if !ok || sw.Down {
					continue
				}
				if e, ok := sw.Lookup(f.Key); ok {
					sw.Account(e, extraPkts, extraBytes, n.Eng.Now())
				}
			}
		}
		d := Delivery{
			Flow:      f,
			Src:       srcHost.ID,
			Dst:       dstHost.ID,
			Started:   started,
			Delivered: n.Eng.Now(),
		}
		for _, fn := range n.handlers[dstHost.ID] {
			fn(d)
		}
	})
}
