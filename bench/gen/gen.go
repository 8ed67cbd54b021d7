// Package gen is flowbench's seeded, distribution-driven control-traffic
// generator. It stands in for a controller's capture of a data centre:
// three-tier application groups placed on topology.Tree320, Poisson
// request arrivals per group (the paper's P(x,y)), Zipf group
// popularity (group 0 sits in one rack, the hot rack), connection reuse,
// and lognormal FlowRemoved byte counts — the flow-size, inter-arrival
// and skewed node-pair distributions of "Traffic Generation for
// Benchmarking Data Centre Networks" (PAPERS.md), as a small generator
// rather than a simulator.
//
// Time is cut into cells of Window on the Monitor's grid. A cell is a
// pure function of (seed, cell index, shifted), so any window can be
// generated alone, and the same seed always yields the same bytes.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/topology"
)

const (
	// Window is one grid cell, the Monitor window the harness serves.
	Window = 30 * time.Second
	// WindowEvents is the target event count of a cell; every cell is
	// within Tolerance of it.
	WindowEvents = 5000
	Tolerance    = 0.05
	// Groups is the number of three-tier application groups.
	Groups = 12
	// ReuseProb is the chance a request rides the open connections of its
	// tiers and so raises no control traffic.
	ReuseProb = 0.6
	// BaselineCells cells form the baseline log (≈ 20k events).
	BaselineCells = 4
	// Every ShiftEvery-th stream window carries a mid→back processing
	// delay raised by Shift in group ShiftGroup (whose mid tier then also
	// stops reusing its back-end connection), so some windows alarm.
	ShiftEvery = 10
	Shift      = 50 * time.Millisecond
	ShiftGroup = 1

	// acceptBand is the resampling band around WindowEvents, kept inside
	// Tolerance so the documented bound has slack.
	acceptBand = 0.04
	// guard keeps the tail of a cell free of request arrivals, so a
	// request's last control message still lands inside its cell.
	guard       = 250 * time.Millisecond
	idleTimeout = time.Second
	zipfS       = 1.0
)

// hop is one OpenFlow switch a flow's first packet crosses.
type hop struct {
	name    string
	dpid    uint64
	in, out uint16
	// lat is the link latency from the previous path element.
	lat time.Duration
}

// leg is one tier-to-tier edge of a group: front→mid or mid→back.
type leg struct {
	src, dst netip.Addr
	dstPort  uint16
	hops     []hop
}

type group struct {
	hosts  [3]topology.NodeID
	legs   [2]leg
	weight float64
}

// Generator produces one seed's traffic.
type Generator struct {
	Topo   *topology.Topology
	seed   int64
	groups []group
	// requests is the mean request count of one cell, calibrated so a
	// cell holds WindowEvents events in expectation.
	requests float64
}

// locality classes of a leg: same rack (1 switch), same aggregation
// pair (3 switches), across the core (5 switches). They are fixed per
// group index so every seed has the same mix of path lengths and the
// same expected events per request; the seed picks racks and servers.
const (
	sameRack = iota
	samePair
	crossCore
)

func legClasses(g int) (int, int) { return g % 3, (g / 3) % 3 }

// New places the groups on Tree320 for the seed.
func New(seed int64) (*Generator, error) {
	topo, err := topology.Tree320()
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	g := &Generator{Topo: topo, seed: seed}
	rng := rand.New(rand.NewSource(int64(mix(uint64(seed), 0xfeed, 0))))
	used := make(map[topology.NodeID]bool)
	pickHost := func(rack int) topology.NodeID {
		for {
			id := topology.NodeID(fmt.Sprintf("h%02d-%02d", rack+1, rng.Intn(20)+1))
			if !used[id] {
				used[id] = true
				return id
			}
		}
	}
	pickRack := func(from, class int) int {
		switch class {
		case sameRack:
			return from
		case samePair:
			return from/4*4 + (from%4+1+rng.Intn(3))%4
		default:
			return ((from/4+1+rng.Intn(3))%4)*4 + rng.Intn(4)
		}
	}
	var norm float64
	for i := 0; i < Groups; i++ {
		norm += 1 / math.Pow(float64(i+1), zipfS)
	}
	for i := 0; i < Groups; i++ {
		c1, c2 := legClasses(i)
		frontRack := rng.Intn(16)
		midRack := pickRack(frontRack, c1)
		backRack := pickRack(midRack, c2)
		grp := group{
			hosts:  [3]topology.NodeID{pickHost(frontRack), pickHost(midRack), pickHost(backRack)},
			weight: 1 / math.Pow(float64(i+1), zipfS) / norm,
		}
		for l, port := range []uint16{8080, 3306} {
			lg, err := g.route(grp.hosts[l], grp.hosts[l+1], port)
			if err != nil {
				return nil, err
			}
			grp.legs[l] = lg
		}
		g.groups = append(g.groups, grp)
	}

	// A group with n requests opens 1 + (n-1)(1-ReuseProb) connections
	// per leg in expectation; solve for the request count that yields
	// WindowEvents events.
	var perGroup, perRequest float64
	for _, grp := range g.groups {
		ev := float64(legEvents(grp.legs[0]) + legEvents(grp.legs[1]))
		perGroup += ReuseProb * ev
		perRequest += grp.weight * (1 - ReuseProb) * ev
	}
	g.requests = (WindowEvents - perGroup) / perRequest
	return g, nil
}

// legEvents is the control traffic one new connection raises: a
// PacketIn and a FlowMod per switch, and one FlowRemoved.
func legEvents(l leg) int { return 2*len(l.hops) + 1 }

func (g *Generator) route(src, dst topology.NodeID, port uint16) (leg, error) {
	path, err := g.Topo.Path(src, dst)
	if err != nil {
		return leg{}, fmt.Errorf("gen: %w", err)
	}
	s, _ := g.Topo.Node(src)
	d, _ := g.Topo.Node(dst)
	lg := leg{src: s.Addr, dst: d.Addr, dstPort: port}
	for i, h := range path {
		n, _ := g.Topo.Node(h.Node)
		if n.Kind != topology.KindSwitch {
			continue
		}
		link, _ := g.Topo.LinkBetween(path[i-1].Node, h.Node)
		lg.hops = append(lg.hops, hop{name: string(h.Node), dpid: n.DPID, in: h.InPort, out: h.OutPort, lat: link.Latency})
	}
	return lg, nil
}

// Hosts returns every host the generator emits traffic for.
func (g *Generator) Hosts() []topology.NodeID {
	var out []topology.NodeID
	for _, grp := range g.groups {
		out = append(out, grp.hosts[:]...)
	}
	return out
}

// Shifted reports whether stream window k carries the delay shift.
func Shifted(k int) bool { return k%ShiftEvery == ShiftEvery-1 }

// Baseline is the known-good log: the first BaselineCells cells.
func (g *Generator) Baseline() *flowlog.Log { return g.Capture(0, BaselineCells, false) }

// StreamWindow is window k of the stream that follows the baseline.
func (g *Generator) StreamWindow(k int) *flowlog.Log {
	return g.Capture(BaselineCells+k, 1, Shifted(k))
}

// Capture is n consecutive cells from first as one time-ordered log.
func (g *Generator) Capture(first, n int, shifted bool) *flowlog.Log {
	l := flowlog.New(time.Duration(first)*Window, time.Duration(first+n)*Window)
	l.Events = make([]flowlog.Event, 0, int(float64(n)*WindowEvents*(1+Tolerance)))
	for c := first; c < first+n; c++ {
		l.Events = append(l.Events, g.cell(c, shifted)...)
	}
	return l
}

// cell draws cell c again until its event count is inside the accept
// band: the arrival process is Poisson, truncated to near-equal
// windows so that window cost is comparable across windows and seeds.
// A rejected draw only counts its events, which costs a tenth of
// building them: about every other draw is rejected, and how many are
// depends on the seed, which set-up time should not.
func (g *Generator) cell(c int, shifted bool) []flowlog.Event {
	for attempt := uint64(0); ; attempt++ {
		if _, n := g.draw(c, shifted, attempt, false); math.Abs(float64(n)-WindowEvents) <= acceptBand*WindowEvents {
			evs, _ := g.draw(c, shifted, attempt, true)
			return evs
		}
	}
}

// conn is one open connection of a leg.
type conn struct {
	key         flowlog.FlowKey
	start, last time.Duration
	bytes       uint64
}

// draw is one draw of cell c. It always consumes the same random
// numbers and returns the event count; it builds the events only when
// emit is set.
func (g *Generator) draw(c int, shifted bool, attempt uint64, emit bool) ([]flowlog.Event, int) {
	rng := rand.New(rand.NewSource(int64(mix(uint64(g.seed), uint64(c), attempt))))
	start := time.Duration(c) * Window
	end := start + Window
	horizon := float64(Window - guard)
	var evs []flowlog.Event
	if emit {
		evs = make([]flowlog.Event, 0, WindowEvents*11/10)
	}
	n := 0

	for gi := range g.groups {
		grp := &g.groups[gi]
		mean := horizon / (g.requests * grp.weight) // ns between requests
		var open [2]*conn
		port := uint16(1024)
		finish := func(l int) {
			cn := open[l]
			if cn == nil {
				return
			}
			n++
			if !emit {
				return
			}
			at := cn.last + idleTimeout
			if at >= end {
				at = end - time.Microsecond
			}
			first := grp.legs[l].hops[0]
			evs = append(evs, flowlog.Event{
				Time: at, Type: flowlog.EventFlowRemoved, Switch: first.name, DPID: first.dpid, Flow: cn.key,
				Bytes: cn.bytes, Packets: cn.bytes/1400 + 1, FlowDuration: at - cn.start,
			})
		}
		for t := rng.ExpFloat64() * mean; t < horizon; t += rng.ExpFloat64() * mean {
			at := start + time.Duration(t)
			// The mid tier answers after a processing delay; this is the
			// delay-distribution peak the shift moves.
			delay := 20*time.Millisecond + time.Duration(rng.ExpFloat64()*float64(4*time.Millisecond))
			slow := shifted && gi == ShiftGroup
			if slow {
				delay += Shift
			}
			// One draw per request: it rides the open connections of both
			// tiers or opens both anew, so the two legs' flow counts move
			// together and their correlation is a stable signature.
			reuse := rng.Float64() < ReuseProb
			for l := 0; l < 2; l++ {
				if l == 1 {
					at += delay
				}
				size := uint64(math.Exp(math.Log(30000) + rng.NormFloat64()))
				// A slow back tier holds its connections busy, so the mid
				// tier opens a new one per request. The flow-rate change
				// this raises names two hosts, which is what gives suspect
				// voting a path.
				if cn := open[l]; cn != nil && reuse && !(slow && l == 1) {
					cn.bytes += size
					if at > cn.last {
						cn.last = at
					}
					continue
				}
				finish(l)
				port++
				lg := &grp.legs[l]
				cn := &conn{
					key:   flowlog.FlowKey{Proto: 6, Src: lg.src, Dst: lg.dst, SrcPort: port, DstPort: lg.dstPort},
					start: at, last: at, bytes: size,
				}
				open[l] = cn
				now := at
				n += 2 * len(lg.hops)
				for _, h := range lg.hops {
					now += h.lat
					// Controller response time.
					response := 300*time.Microsecond + time.Duration(rng.ExpFloat64()*float64(200*time.Microsecond))
					if !emit {
						continue
					}
					evs = append(evs, flowlog.Event{Time: now, Type: flowlog.EventPacketIn, Switch: h.name, DPID: h.dpid, Flow: cn.key, InPort: h.in})
					now += response
					evs = append(evs, flowlog.Event{Time: now, Type: flowlog.EventFlowMod, Switch: h.name, DPID: h.dpid, Flow: cn.key, OutPort: h.out})
				}
			}
		}
		finish(0)
		finish(1)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	return evs, n
}

// mix hashes three words into one rand seed with splitmix64's finalizer,
// so every (seed, cell, attempt) gets an unrelated stream.
func mix(a, b, c uint64) uint64 {
	var x uint64
	for _, w := range [...]uint64{a, b, c} {
		x = (x ^ w) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}
