package signature

import (
	"sort"
	"time"

	"flowdiff/internal/flowlog"
)

// StreamExtractor is the occurrence extractor: control events are
// appended one at a time as they arrive, per-key open episodes are
// maintained across appends (episode boundaries are detected at append
// time, not by a re-pass), and Flush closes out the buffered episodes in
// time proportional to the events appended since the previous Flush.
// Every build runs it — signature builds through streamShards, Monitor
// directly, one Flush per window.
//
// Out-of-order input is handled: a key whose events arrive out of order
// is marked dirty and its buffer is stably re-sorted and re-split at
// Flush. The retained batch extractor (occurrencesReference) is the
// oracle: TestStreamExtractorMatchesBatch pins byte-identical slices on
// sorted and shuffled logs.
//
// StreamExtractor is not safe for concurrent use; feed it from the
// goroutine that owns the event source (Monitor does).
type StreamExtractor struct {
	gap    time.Duration
	keys   map[flowlog.FlowKey]*keyStream
	events int
}

// keyStream is one flow key's buffered window events plus the episode
// boundaries found so far. splits[i] is the buf index where episode i+1
// begins. sorted tracks whether events arrived in time order; when they
// did not, splits are recomputed from a sorted copy at Flush.
type keyStream struct {
	buf    []flowlog.Event
	splits []int32
	last   time.Duration
	sorted bool
}

// NewStreamExtractor creates an empty extractor with the given episode
// gap (<= 0 uses DefaultOccurrenceGap).
func NewStreamExtractor(gap time.Duration) *StreamExtractor {
	if gap <= 0 {
		gap = DefaultOccurrenceGap
	}
	return &StreamExtractor{gap: gap, keys: make(map[flowlog.FlowKey]*keyStream)}
}

// Pending returns the number of control events buffered since the last
// Flush (non-control events are not buffered).
func (x *StreamExtractor) Pending() int { return x.events }

// Append feeds one event. Non-control events (FlowRemoved, PortStatus)
// are ignored. O(1) amortized.
func (x *StreamExtractor) Append(e flowlog.Event) {
	if !relevant(e.Type) {
		return
	}
	ks := x.keys[e.Flow]
	if ks == nil {
		ks = &keyStream{sorted: true}
		x.keys[e.Flow] = ks
	}
	if len(ks.buf) > 0 && ks.sorted {
		switch {
		case e.Time < ks.last:
			ks.sorted = false
		case e.Time-ks.last > x.gap:
			ks.splits = append(ks.splits, int32(len(ks.buf)))
		}
	}
	ks.buf = append(ks.buf, e)
	ks.last = e.Time
	x.events++
}

// Flush closes every open episode, returns the buffered occurrences in
// canonical order (start time, then key), and resets the extractor for
// the next window.
func (x *StreamExtractor) Flush() []Occurrence {
	out := make([]Occurrence, 0, len(x.keys))
	for key, ks := range x.keys {
		buf, splits := ks.buf, ks.splits
		if !ks.sorted {
			sort.SliceStable(buf, func(i, j int) bool { return buf[i].Time < buf[j].Time })
			splits = splits[:0]
			for j := 1; j < len(buf); j++ {
				if buf[j].Time-buf[j-1].Time > x.gap {
					splits = append(splits, int32(j))
				}
			}
		}
		epStart := 0
		for _, s := range splits {
			out = appendEpisode(out, key, buf[epStart:s:s])
			epStart = int(s)
		}
		out = appendEpisode(out, key, buf[epStart:len(buf):len(buf)])
	}
	sort.Slice(out, func(i, j int) bool { return occLess(out[i], out[j]) })
	if len(x.keys) > 0 {
		x.keys = make(map[flowlog.FlowKey]*keyStream)
	}
	x.events = 0
	return out
}
