// Package switchsim models an OpenFlow 1.0 switch's data-plane state: a
// priority-ordered flow table with exact and host-pair wildcard matching,
// idle/hard timeouts, and per-entry byte/packet counters. A table miss
// surfaces as Process's ok=false, which the caller turns into a
// PacketIn, and an expired entry as a FlowRemoved callback — exactly the
// control-plane telemetry FlowDiff's measurement layer captures.
//
// The switch is driven by a virtual clock (time.Duration since simulation
// start) supplied by the caller; it never reads the wall clock.
package switchsim

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"flowdiff/internal/flowlog"
)

// Reason codes the switch reports, with their OpenFlow 1.0 values
// (ofp_packet_in_reason, ofp_flow_removed_reason). They reach captured
// events through flowlog.Event.Reason.
const (
	PacketInReasonNoMatch        uint8 = 0
	FlowRemovedReasonIdleTimeout uint8 = 0
	FlowRemovedReasonHardTimeout uint8 = 1
)

// Match selects the packets an entry applies to: exactly the 5-tuple
// Key, or, with HostPair set, all traffic from Key.Src to Key.Dst
// regardless of protocol and ports.
type Match struct {
	Key      flowlog.FlowKey
	HostPair bool
}

// ExactMatch builds a microflow match for one 5-tuple (the entries a
// reactive controller installs).
func ExactMatch(k flowlog.FlowKey) Match { return Match{Key: k} }

// HostPairMatch builds a wildcard match covering all traffic between two
// hosts regardless of transport ports (used by the wildcard deployment
// mode in §VI). Its key carries zero protocol and ports.
func HostPairMatch(src, dst netip.Addr) Match {
	return Match{Key: flowlog.FlowKey{Src: src, Dst: dst}, HostPair: true}
}

// Matches reports whether a packet with flow key pkt matches m.
func (m Match) Matches(pkt flowlog.FlowKey) bool {
	if m.HostPair {
		return m.Key.Src == pkt.Src && m.Key.Dst == pkt.Dst
	}
	return m.Key == pkt
}

// Entry is one installed flow-table rule.
type Entry struct {
	Match    Match
	Priority uint16
	OutPort  uint16

	// IdleTimeout expires the entry after inactivity; HardTimeout after
	// total lifetime. Zero disables the respective timeout.
	IdleTimeout time.Duration
	HardTimeout time.Duration

	Installed   time.Duration
	LastMatched time.Duration

	Packets uint64
	Bytes   uint64

	// NotifyRemoved requests a FlowRemoved message on expiry
	// (OFPFF_SEND_FLOW_REM).
	NotifyRemoved bool
}

// expired reports whether the entry has timed out at now, and the reason.
func (e *Entry) expired(now time.Duration) (uint8, bool) {
	if e.HardTimeout > 0 && now-e.Installed >= e.HardTimeout {
		return FlowRemovedReasonHardTimeout, true
	}
	if e.IdleTimeout > 0 && now-e.LastMatched >= e.IdleTimeout {
		return FlowRemovedReasonIdleTimeout, true
	}
	return 0, false
}

// FlowRemovedFunc is invoked when an entry with NotifyRemoved expires.
type FlowRemovedFunc func(sw *Switch, e *Entry, reason uint8, now time.Duration)

// Switch is a simulated OpenFlow datapath.
type Switch struct {
	// ID is the topology node id; DPID the OpenFlow datapath id.
	ID   string
	DPID uint64

	// Down marks a failed switch: it drops all packets and emits no
	// control traffic.
	Down bool

	table []*Entry

	onFlowRemoved FlowRemovedFunc
}

// New creates a switch with the given identity.
func New(id string, dpid uint64) *Switch {
	return &Switch{ID: id, DPID: dpid}
}

// OnFlowRemoved registers the expiry callback.
func (s *Switch) OnFlowRemoved(fn FlowRemovedFunc) { s.onFlowRemoved = fn }

// Install adds a rule to the flow table. Entries are kept sorted by
// descending priority (stable for equal priorities, so the earliest
// installed wins ties, matching common switch behavior).
func (s *Switch) Install(e *Entry, now time.Duration) error {
	if e == nil {
		return fmt.Errorf("switchsim: nil entry")
	}
	e.Installed = now
	e.LastMatched = now
	s.table = append(s.table, e)
	sort.SliceStable(s.table, func(i, j int) bool {
		return s.table[i].Priority > s.table[j].Priority
	})
	return nil
}

// Lookup finds the highest-priority entry matching the packet, without
// updating counters.
func (s *Switch) Lookup(pkt flowlog.FlowKey) (*Entry, bool) {
	for _, e := range s.table {
		if e.Match.Matches(pkt) {
			return e, true
		}
	}
	return nil, false
}

// Process handles one packet arrival: on a hit it updates counters and
// returns the entry; on a miss (the caller's PacketIn) and on a down
// switch, which silently drops the packet, it returns ok=false.
func (s *Switch) Process(pkt flowlog.FlowKey, bytes uint64, now time.Duration) (*Entry, bool) {
	if s.Down {
		return nil, false
	}
	e, ok := s.Lookup(pkt)
	if !ok {
		return nil, false
	}
	e.LastMatched = now
	e.Packets++
	e.Bytes += bytes
	return e, true
}

// Account adds additional traffic volume (e.g. the remaining packets of a
// flow after its first packet) to an installed entry.
func (s *Switch) Account(e *Entry, packets, bytes uint64, now time.Duration) {
	if now > e.LastMatched {
		e.LastMatched = now
	}
	e.Packets += packets
	e.Bytes += bytes
}

// Sweep expires timed-out entries, firing FlowRemoved callbacks, and
// returns how many entries were removed. Call it periodically from the
// simulation clock.
func (s *Switch) Sweep(now time.Duration) int {
	if s.Down {
		return 0
	}
	var kept []*Entry
	removed := 0
	for _, e := range s.table {
		reason, dead := e.expired(now)
		if !dead {
			kept = append(kept, e)
			continue
		}
		removed++
		if e.NotifyRemoved && s.onFlowRemoved != nil {
			s.onFlowRemoved(s, e, reason, now)
		}
	}
	s.table = kept
	return removed
}

// NextExpiry returns the earliest time at which some entry could expire,
// or ok=false when no entry has a timeout armed.
func (s *Switch) NextExpiry() (time.Duration, bool) {
	var best time.Duration
	found := false
	consider := func(t time.Duration) {
		if !found || t < best {
			best = t
			found = true
		}
	}
	for _, e := range s.table {
		if e.HardTimeout > 0 {
			consider(e.Installed + e.HardTimeout)
		}
		if e.IdleTimeout > 0 {
			consider(e.LastMatched + e.IdleTimeout)
		}
	}
	return best, found
}
