package signature

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
)

// chunkEvents sizes an eventChunk at 40,848 bytes: objects this large
// are allocated in whole 8 KiB pages, and five pages hold no more.
const chunkEvents = 276

// eventChunk is one fixed-size piece of an extractor's event storage,
// never copied or re-grown (DESIGN.md, "Window memory and lifetimes").
// flow[i] is the interned id of ev[i]'s flow key (unused by gather runs).
type eventChunk struct {
	ev   [chunkEvents]flowlog.Event
	flow [chunkEvents]int32
}

// chunkPool is shared by every extractor in the process. Chunks are not
// cleared on return; every slot is written before it is read.
var chunkPool = sync.Pool{New: func() any { return new(eventChunk) }}

func releaseChunks(chunks []*eventChunk) []*eventChunk {
	for i, c := range chunks {
		chunkPool.Put(c)
		chunks[i] = nil
	}
	return chunks[:0]
}

// internFlow returns the dense id of a flow key, assigning the next one
// on first sight — the one hash an event's key costs.
func internFlow(ids map[flowlog.FlowKey]int32, k *flowlog.FlowKey) int32 {
	id, ok := ids[*k]
	if !ok {
		id = int32(len(ids))
		ids[*k] = id
	}
	return id
}

// StreamExtractor is the occurrence extractor, and all a Monitor window
// keeps of its events. Add folds each event into the aggregates (the
// one fold site) and appends control events (PacketIn, FlowMod), in
// arrival order, to an arena of pooled chunks, each tagged with its
// flow's interned id. Gather scatters the arena into per-flow
// contiguous runs (a stable counting sort by flow id, again in pooled
// chunks), splits every run at gaps, and returns the episodes in
// canonical order, consuming nothing; Reset hands every chunk back and
// clears the fold, keeping its storage. Every build runs it — a
// streamed build once, Monitor once per window.
//
// Out-of-order input is handled: a flow whose run is not in time order
// is stably sorted before it is split. The retained batch extractor
// (occurrencesReference) is the oracle: TestStreamExtractorMatchesBatch
// pins byte-identical slices on sorted and shuffled logs.
//
// StreamExtractor is not safe for concurrent use; feed it from the
// goroutine that owns the event source (Monitor does).
type StreamExtractor struct {
	gap time.Duration
	ids map[flowlog.FlowKey]int32
	// count[id] is how many control events the arena holds for flow id.
	count []int32
	// arena holds n control events.
	arena []*eventChunk
	n     int
	// agg is the fold of every event added since the last Reset.
	agg *sourceAgg

	// g is Gather's output, owned by the extractor until Reset.
	g gatherer
}

// gatherer holds one gather's output: runs back the occurrences' Events
// (runUsed slots of the last are taken); flows[i] is occs[i]'s flow id;
// spans is the per-flow scratch.
type gatherer struct {
	runs    []*eventChunk
	runUsed int
	spans   [][]flowlog.Event
	occs    []Occurrence
	flows   []int32
}

// Len, Less and Swap sort the gathered occurrences into canonical order,
// their flow ids alongside.
func (g *gatherer) Len() int           { return len(g.occs) }
func (g *gatherer) Less(i, j int) bool { return compareOccurrences(g.occs[i], g.occs[j]) < 0 }
func (g *gatherer) Swap(i, j int) {
	g.occs[i], g.occs[j] = g.occs[j], g.occs[i]
	g.flows[i], g.flows[j] = g.flows[j], g.flows[i]
}

// NewStreamExtractor creates an empty extractor with the given episode
// gap (<= 0 uses DefaultOccurrenceGap) whose fold resolves hosts through
// r. A reference build passes its stability interval count and bounds;
// a Monitor window passes 0 intervals and gets its bounds at flush.
func NewStreamExtractor(gap time.Duration, r *appgroup.Resolver, intervals int, start, end time.Duration) *StreamExtractor {
	if gap <= 0 {
		gap = DefaultOccurrenceGap
	}
	return &StreamExtractor{gap: gap, ids: make(map[flowlog.FlowKey]int32), agg: newSourceAgg(start, end, intervals, r)}
}

// Pending returns the number of control events held since the last
// Reset or Flush; Events counts added events of every type.
func (x *StreamExtractor) Pending() int { return x.n }
func (x *StreamExtractor) Events() int  { return x.agg.events }

// Add feeds one event. O(1) amortized: one hash of the flow key, the
// event's fold and, for a control event, one copy of *e into the arena;
// nothing keeps e.
func (x *StreamExtractor) Add(e *flowlog.Event) {
	x.agg.events++
	switch e.Type {
	case flowlog.EventPacketIn:
		id := internFlow(x.ids, &e.Flow)
		x.agg.packetIn(id, &e.Flow, e.Time)
		x.appendID(id, e)
	case flowlog.EventFlowMod:
		x.appendID(internFlow(x.ids, &e.Flow), e)
	case flowlog.EventFlowRemoved:
		x.agg.flowRemoved(internFlow(x.ids, &e.Flow), e)
	}
}

// appendID stores one control event whose flow key the caller interned
// to id: small integers, one per key, not all of which need show up
// here (a FlowRemoved-only flow has an id too).
func (x *StreamExtractor) appendID(id int32, e *flowlog.Event) {
	for int(id) >= len(x.count) {
		x.count = append(x.count, 0)
	}
	x.count[id]++
	slot := x.n % chunkEvents
	if slot == 0 {
		x.arena = append(x.arena, chunkPool.Get().(*eventChunk))
	}
	c := x.arena[len(x.arena)-1]
	c.ev[slot] = *e
	c.flow[slot] = id
	x.n++
}

// run carves n contiguous event slots out of the gather runs. A flow
// larger than a chunk gets a slab of its own, which the collector owns.
func (g *gatherer) run(n int) []flowlog.Event {
	if n > chunkEvents {
		return make([]flowlog.Event, 0, n)
	}
	if len(g.runs) == 0 || g.runUsed+n > chunkEvents {
		g.runs = append(g.runs, chunkPool.Get().(*eventChunk))
		g.runUsed = 0
	}
	c := g.runs[len(g.runs)-1]
	s := c.ev[g.runUsed : g.runUsed : g.runUsed+n]
	g.runUsed += n
	return s
}

// Gather returns the occurrences of everything appended so far, in
// canonical order (start time, then key). Nothing is consumed. The
// slice and every Occurrence.Events in it alias extractor-owned pooled
// memory: they are valid until the next Gather, Reset or Flush, and
// must not be retained past it.
func (x *StreamExtractor) Gather() []Occurrence { return x.gather(&x.g) }

// gather is Gather into g.
func (x *StreamExtractor) gather(g *gatherer) []Occurrence {
	g.runs = releaseChunks(g.runs)
	if cap(g.spans) < len(x.count) {
		g.spans = make([][]flowlog.Event, len(x.count))
	}
	spans := g.spans[:len(x.count)]
	flows := 0
	for i := range spans {
		spans[i] = nil
		if n := x.count[i]; n > 0 {
			spans[i] = g.run(int(n))
			flows++
		}
	}
	for i := 0; i < x.n; i++ {
		c := x.arena[i/chunkEvents]
		id := c.flow[i%chunkEvents]
		spans[id] = append(spans[id], c.ev[i%chunkEvents])
	}
	occs := g.occs[:0]
	if occs == nil || cap(occs) < flows {
		occs = make([]Occurrence, 0, flows)
	}
	ids := g.flows[:0]
	for id, buf := range spans {
		if len(buf) == 0 {
			continue
		}
		key := buf[0].Flow
		for j := 1; j < len(buf); j++ {
			if buf[j].Time < buf[j-1].Time {
				slices.SortStableFunc(buf, func(a, b flowlog.Event) int { return cmp.Compare(a.Time, b.Time) })
				break
			}
		}
		start := 0
		for j := 1; j < len(buf); j++ {
			if buf[j].Time-buf[j-1].Time > x.gap {
				occs = appendEpisode(occs, key, buf[start:j:j])
				start = j
			}
		}
		occs = appendEpisode(occs, key, buf[start:len(buf):len(buf)])
		for len(ids) < len(occs) {
			ids = append(ids, int32(id))
		}
	}
	g.occs, g.flows = occs, ids
	sort.Sort(g)
	return occs
}

// Reset empties the extractor for the next window: every chunk goes
// back to the pool, which invalidates what Gather returned and any
// pipeline built on the fold; the maps and the index slices are cleared
// and kept.
func (x *StreamExtractor) Reset() {
	x.arena = releaseChunks(x.arena)
	x.g.runs = releaseChunks(x.g.runs)
	// Stale aliases would pin chunks the pool has since dropped.
	clear(x.g.spans[:cap(x.g.spans)])
	clear(x.g.occs)
	x.g.occs, x.g.flows = x.g.occs[:0], x.g.flows[:0]
	clear(x.ids)
	x.count, x.n = x.count[:0], 0
	x.agg.reset()
}

// Flush is Gather then Reset for callers that keep the result: the
// occurrences and the runs behind them belong to the caller and never
// return to the pool.
func (x *StreamExtractor) Flush() []Occurrence { defer x.Reset(); return x.gather(new(gatherer)) }
