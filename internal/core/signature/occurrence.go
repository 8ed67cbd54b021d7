// Package signature builds FlowDiff's behavioral models from control
// traffic (paper §III): the five application signatures — connectivity
// graph (CG), flow statistics (FS), component interaction (CI), delay
// distribution (DD), and partial correlation (PC) — and the three
// infrastructure signatures — physical topology (PT), inter-switch
// latency (ISL), and controller response time (CRT) — plus the
// per-interval stability analysis that decides which signatures are
// trustworthy for diffing.
package signature

import (
	"cmp"
	"time"

	"flowdiff/internal/flowlog"
)

// Occurrence is one appearance of a flow in the log: the burst of control
// events (one PacketIn per switch on the path, plus the FlowMods answering
// them) produced when a flow without an installed rule starts. A flow key
// can occur several times in a log (entry expires, flow restarts); each
// episode is a separate occurrence.
type Occurrence struct {
	Key flowlog.FlowKey
	// Start is the earliest PacketIn timestamp of the episode — the
	// flow's start as the controller sees it.
	Start time.Duration
	// Events are the episode's PacketIn/FlowMod events in time order.
	Events []flowlog.Event
}

// DefaultOccurrenceGap separates two occurrences of the same flow key: a
// quiet period longer than this starts a new episode. Path setup spans
// milliseconds; entry timeouts are seconds, so one second cleanly
// separates episodes.
const DefaultOccurrenceGap = time.Second

// compareKeys orders flow keys by field (proto, src, src port, dst, dst
// port) without allocating. It replaces the former Key.String()
// comparison in the occurrence sort, which built two strings per
// comparison and dominated extraction allocs on large logs.
func compareKeys(a, b flowlog.FlowKey) int {
	if a.Proto != b.Proto {
		if a.Proto < b.Proto {
			return -1
		}
		return 1
	}
	if c := a.Src.Compare(b.Src); c != 0 {
		return c
	}
	if a.SrcPort != b.SrcPort {
		if a.SrcPort < b.SrcPort {
			return -1
		}
		return 1
	}
	if c := a.Dst.Compare(b.Dst); c != 0 {
		return c
	}
	if a.DstPort != b.DstPort {
		if a.DstPort < b.DstPort {
			return -1
		}
		return 1
	}
	return 0
}

// compareOccurrences is the canonical occurrence order: start time, then
// key. Two distinct occurrences never compare equal under it (episodes
// of one key are gap-separated, so they cannot share a start), which is
// what makes serial sorting, sharded merging, and streaming extraction
// produce the exact same slice.
func compareOccurrences(a, b Occurrence) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return compareKeys(a.Key, b.Key)
}

func occLess(a, b Occurrence) bool { return compareOccurrences(a, b) < 0 }

// relevant reports whether an event participates in occurrence
// extraction (only the control messages of path setup do).
func relevant(t flowlog.EventType) bool {
	return t == flowlog.EventPacketIn || t == flowlog.EventFlowMod
}

// episodeStart is the episode's start time: the earliest PacketIn, or —
// for episodes with no PacketIn (wildcard-mode FlowMods keyed by the
// installed match) — the first event's time.
func episodeStart(events []flowlog.Event) time.Duration {
	for _, e := range events {
		if e.Type == flowlog.EventPacketIn {
			return e.Time
		}
	}
	return events[0].Time
}

// appendEpisode appends one closed episode (a capacity-capped subslice of
// its flow's run) as an Occurrence.
func appendEpisode(out []Occurrence, key flowlog.FlowKey, events []flowlog.Event) []Occurrence {
	if len(events) == 0 {
		return out
	}
	return append(out, Occurrence{Key: key, Start: episodeStart(events), Events: events})
}

// Occurrences extracts a log's flow episodes: events are grouped per
// flow key, ordered by time (out-of-order logs included), and split
// wherever the gap between consecutive control events of the key
// exceeds gap (<=0 uses DefaultOccurrenceGap). The result is in the
// canonical order — start time, ties broken by key — for every worker
// count of OccurrencesSharded as well.
func Occurrences(log *flowlog.Log, gap time.Duration) []Occurrence {
	return controlEvents(log, gap).Flush()
}

// controlEvents loads a log's control events into a fresh extractor.
func controlEvents(log *flowlog.Log, gap time.Duration) *StreamExtractor {
	x := NewStreamExtractor(gap)
	for i := range log.Events {
		if e := &log.Events[i]; relevant(e.Type) {
			x.appendID(internFlow(x.ids, &e.Flow), e)
		}
	}
	return x
}
