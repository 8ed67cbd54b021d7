// Package flowlog defines the control-traffic log FlowDiff consumes: a
// time-ordered sequence of PacketIn / FlowMod / FlowRemoved / PortStatus
// events observed at the centralized controller, each stamped with the
// controller's (virtual) clock. Logs can be segmented into intervals for
// stability analysis, filtered, merged, and serialized to JSON.
package flowlog

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"
)

// FlowKey identifies a flow by its IPv4 5-tuple.
type FlowKey struct {
	Proto   uint8      `json:"proto"`
	Src     netip.Addr `json:"src"`
	Dst     netip.Addr `json:"dst"`
	SrcPort uint16     `json:"srcPort"`
	DstPort uint16     `json:"dstPort"`
}

// Reverse returns the key of the opposite direction of the same
// conversation.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Proto: k.Proto, Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// String renders the key as "proto src:port->dst:port".
func (k FlowKey) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// EventType enumerates the control messages FlowDiff models.
type EventType int

// Control event types.
const (
	EventPacketIn EventType = iota + 1
	EventFlowMod
	EventFlowRemoved
	EventPortStatus
)

// eventTypeNames is the one table of OpenFlow message names: String and
// MarshalJSON index it, parseEventType searches it.
var eventTypeNames = [...]string{
	EventPacketIn:    "PacketIn",
	EventFlowMod:     "FlowMod",
	EventFlowRemoved: "FlowRemoved",
	EventPortStatus:  "PortStatus",
}

// parseEventType finds the type with exactly the given message name.
func parseEventType(name []byte) (EventType, bool) {
	for t := EventPacketIn; int(t) < len(eventTypeNames); t++ {
		if string(name) == eventTypeNames[t] {
			return t, true
		}
	}
	return 0, false
}

func (t EventType) known() bool { return t >= EventPacketIn && int(t) < len(eventTypeNames) }

// String returns the OpenFlow message name of the event type.
func (t EventType) String() string {
	if t.known() {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// MarshalJSON encodes the type as its message name.
func (t EventType) MarshalJSON() ([]byte, error) {
	if !t.known() {
		return nil, fmt.Errorf("flowlog: unknown event type %d", int(t))
	}
	return json.Marshal(eventTypeNames[t])
}

// UnmarshalJSON decodes a JSON string holding a message name back into
// an EventType; anything else, null included, is an error.
func (t *EventType) UnmarshalJSON(b []byte) error {
	s := jsonScanner{buf: b}
	var et EventType
	s.space()
	err := s.value(&et, 0)
	if s.space(); err == nil && s.pos != len(b) {
		err = s.expected("the end of the value")
	}
	if err != nil {
		return fmt.Errorf("flowlog: event type: %w", err)
	}
	*t = et
	return nil
}

// Event is one control message observed at the controller.
type Event struct {
	// Time is the controller timestamp, as virtual time since simulation
	// start.
	Time time.Duration `json:"t"`
	Type EventType     `json:"type"`
	// Switch is the reporting switch's node id; DPID its datapath id.
	Switch string  `json:"switch"`
	DPID   uint64  `json:"dpid,omitempty"`
	Flow   FlowKey `json:"flow"`
	// InPort is the ingress port (PacketIn), OutPort the egress port
	// installed by a FlowMod.
	InPort  uint16 `json:"inPort,omitempty"`
	OutPort uint16 `json:"outPort,omitempty"`
	// Bytes/Packets/FlowDuration are the final counters carried by a
	// FlowRemoved.
	Bytes        uint64        `json:"bytes,omitempty"`
	Packets      uint64        `json:"packets,omitempty"`
	FlowDuration time.Duration `json:"flowDuration,omitempty"`
	// Reason is the PacketIn / FlowRemoved / PortStatus reason code.
	Reason uint8 `json:"reason,omitempty"`
}

// Log is a time-ordered control-event capture over [Start, End).
type Log struct {
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Events []Event       `json:"events"`
}

// New creates an empty log covering the given interval.
func New(start, end time.Duration) *Log {
	return &Log{Start: start, End: end}
}

// Append adds an event (events may be appended out of order; call Sort
// before analysis).
func (l *Log) Append(e Event) { l.Events = append(l.Events, e) }

// Sort orders events by timestamp (stable, so same-instant events keep
// their capture order).
func (l *Log) Sort() {
	sort.SliceStable(l.Events, func(i, j int) bool {
		return l.Events[i].Time < l.Events[j].Time
	})
}

// Duration returns the length of the covered interval.
func (l *Log) Duration() time.Duration { return l.End - l.Start }

// Filter returns a new log containing only events for which keep returns
// true. The interval bounds are preserved.
func (l *Log) Filter(keep func(Event) bool) *Log {
	out := New(l.Start, l.End)
	// Two passes: counting first avoids repeated slice growth, which
	// dominates modeling time on multi-hundred-thousand-event logs.
	n := 0
	for i := range l.Events {
		if keep(l.Events[i]) {
			n++
		}
	}
	if n == 0 {
		return out
	}
	out.Events = make([]Event, 0, n)
	for i := range l.Events {
		if keep(l.Events[i]) {
			out.Events = append(out.Events, l.Events[i])
		}
	}
	return out
}

// ByType returns only the events of the given type.
func (l *Log) ByType(t EventType) *Log {
	return l.Filter(func(e Event) bool { return e.Type == t })
}

// timesSorted reports whether the events are in nondecreasing time order
// (Sort's postcondition; logs appended in capture order satisfy it too).
func (l *Log) timesSorted() bool {
	for i := 1; i < len(l.Events); i++ {
		if l.Events[i].Time < l.Events[i-1].Time {
			return false
		}
	}
	return true
}

// Window returns the events within [from, to), with the log bounds set to
// the window. On a time-sorted log (the normal case) the boundaries are
// located by binary search and the events are shared with the parent log
// as a capacity-capped subslice, so windowing allocates nothing beyond
// the Log header; windows are analysis views and must not have their
// events mutated in place. Unsorted logs fall back to a linear scan.
func (l *Log) Window(from, to time.Duration) *Log {
	return l.window(from, to, false)
}

// window implements Window; inclusiveEnd additionally admits events
// stamped exactly at to (used for the final stability segment, so an
// event at the log's End lands in exactly one interval instead of none).
func (l *Log) window(from, to time.Duration, inclusiveEnd bool) *Log {
	out := New(from, to)
	if l.timesSorted() {
		lo := sort.Search(len(l.Events), func(i int) bool { return l.Events[i].Time >= from })
		hi := sort.Search(len(l.Events), func(i int) bool {
			if inclusiveEnd {
				return l.Events[i].Time > to
			}
			return l.Events[i].Time >= to
		})
		if lo < hi {
			out.Events = l.Events[lo:hi:hi]
		}
		return out
	}
	for _, e := range l.Events {
		if e.Time >= from && (e.Time < to || (inclusiveEnd && e.Time == to)) {
			out.Append(e)
		}
	}
	return out
}

// Segment splits the log into n equal-width windows. The final window is
// inclusive of End: whole-log analysis iterates every event, so an event
// stamped exactly at End must land in exactly one segment rather than be
// dropped. It returns an error when n < 1 or the log covers no time.
func (l *Log) Segment(n int) ([]*Log, error) {
	if n < 1 {
		return nil, fmt.Errorf("flowlog: segment count %d < 1", n)
	}
	if l.End <= l.Start {
		return nil, fmt.Errorf("flowlog: log covers no time [%v,%v)", l.Start, l.End)
	}
	width := l.Duration() / time.Duration(n)
	if width <= 0 {
		return nil, fmt.Errorf("flowlog: interval %v too short for %d segments", l.Duration(), n)
	}
	segs := make([]*Log, n)
	for i := range segs {
		from := l.Start + time.Duration(i)*width
		if i == n-1 {
			// Absorb the rounding remainder and the End boundary.
			segs[i] = l.window(from, l.End, true)
			continue
		}
		segs[i] = l.Window(from, from+width)
	}
	return segs, nil
}

// Merge combines several logs into one covering their union interval,
// sorted by time.
func Merge(logs ...*Log) *Log {
	if len(logs) == 0 {
		return New(0, 0)
	}
	out := New(logs[0].Start, logs[0].End)
	for _, l := range logs {
		if l.Start < out.Start {
			out.Start = l.Start
		}
		if l.End > out.End {
			out.End = l.End
		}
		out.Events = append(out.Events, l.Events...)
	}
	out.Sort()
	return out
}

// Flows returns the set of distinct flow keys appearing in PacketIn
// events, in first-appearance order.
func (l *Log) Flows() []FlowKey {
	seen := make(map[FlowKey]bool)
	var keys []FlowKey
	for _, e := range l.Events {
		if e.Type != EventPacketIn {
			continue
		}
		if !seen[e.Flow] {
			seen[e.Flow] = true
			keys = append(keys, e.Flow)
		}
	}
	return keys
}

// FirstPacketIns returns, for each distinct flow, the earliest PacketIn
// event — the flow's start as seen by the controller.
func (l *Log) FirstPacketIns() map[FlowKey]Event {
	first := make(map[FlowKey]Event)
	for _, e := range l.Events {
		if e.Type != EventPacketIn {
			continue
		}
		if prev, ok := first[e.Flow]; !ok || e.Time < prev.Time {
			first[e.Flow] = e
		}
	}
	return first
}

// WriteJSON serializes the log.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(l); err != nil {
		return fmt.Errorf("flowlog: encoding log: %w", err)
	}
	return nil
}
