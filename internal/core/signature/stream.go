package signature

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
)

// chunkEvents sizes an eventChunk at 910 × 36 = 32,760 bytes, the
// largest small object the runtime allocates (32 KiB less the 8-byte
// header it puts before an object with pointers and no inline bitmap):
// a small object comes out of the P's size-class cache, while anything
// larger is a span of its own, taken from the page heap under its lock.
const chunkEvents = 910

// eventChunk is one fixed-size piece of an extractor's hop storage,
// never copied or re-grown (DESIGN.md, "Window memory and lifetimes").
// flow[i] is the interned id of hop[i]'s flow (unused by gather runs).
type eventChunk struct {
	hop  [chunkEvents]Hop
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

// StreamExtractor is the occurrence extractor, and all a Monitor window
// keeps of its events. Add folds each event into the aggregates (the
// one fold site) and appends control events (PacketIn, FlowMod), in
// arrival order and cut to hops, to an arena of pooled chunks, each
// tagged with its flow's interned id. Gather scatters the arena into
// per-flow contiguous runs (a stable counting sort by flow id, again in
// pooled chunks), splits every run at gaps, and returns the episodes in
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
	// count[id] is how many hops the arena holds for flow id.
	count []int32
	// arena holds n hops.
	arena []*eventChunk
	n     int
	// agg is the fold of every event added since the last Reset.
	agg *sourceAgg

	// g is Gather's output, owned by the extractor until Reset.
	g     gatherer
	model modelStore // the last build's products, until the next build
}

// gatherer holds one gather's output: runs back the occurrences' Hops
// (runUsed slots of the last are taken); flows[i] is occs[i]'s flow id.
// keys and spans (per flow) and order and spare (per occurrence) are
// scratch, kept so a Monitor window allocates none.
type gatherer struct {
	runs    []*eventChunk
	runUsed int
	keys    []flowlog.FlowKey
	spans   [][]Hop
	occs    []Occurrence
	flows   []int32
	order   []startAt
	spare   []startAt
}

// startAt is one occurrence's sort key: its start, and where it sits in
// the gathered slice, which breaks start ties by key.
type startAt struct {
	start time.Duration
	at    int32
}

// NewStreamExtractor creates an empty extractor with the given episode
// gap (<= 0 uses DefaultOccurrenceGap) whose fold resolves hosts through
// r. A reference build passes its stability interval count and bounds;
// a Monitor window passes 0 intervals and gets its bounds at flush.
func NewStreamExtractor(gap time.Duration, r *appgroup.Resolver, intervals int, start, end time.Duration) *StreamExtractor {
	return (&StreamExtractor{ids: make(map[flowlog.FlowKey]int32), agg: newSourceAgg()}).bind(gap, r, intervals, start, end)
}

// bind points an empty extractor at its next build.
func (x *StreamExtractor) bind(gap time.Duration, r *appgroup.Resolver, intervals int, start, end time.Duration) *StreamExtractor {
	if gap <= 0 {
		gap = DefaultOccurrenceGap
	}
	x.gap = gap
	x.agg.bind(start, end, intervals, r)
	return x
}

// extractors holds the empty extractors one-shot builds borrow, and
// Pipeline.Release hands back unless their build folded more than
// maxPooledEvents events, so that one huge capture pins nothing.
var extractors = sync.Pool{New: func() any { return NewStreamExtractor(0, nil, 0, 0, 0) }}

const maxPooledEvents = 1 << 17

// Pending returns the number of control events held since the last
// Reset or Flush; Events counts added events of every type.
func (x *StreamExtractor) Pending() int { return x.n }
func (x *StreamExtractor) Events() int  { return x.agg.events }

// Add feeds one event. O(1) amortized: one hash of the flow key, the
// event's fold and, for a control event, one hop into the arena;
// nothing keeps e.
func (x *StreamExtractor) Add(e *flowlog.Event) {
	x.agg.events++
	switch e.Type {
	case flowlog.EventPacketIn:
		id := x.intern(&e.Flow)
		x.agg.packetIn(id, &e.Flow, e.Time)
		x.appendID(id, e)
	case flowlog.EventFlowMod:
		x.agg.flowMods++
		x.appendID(x.intern(&e.Flow), e)
	case flowlog.EventFlowRemoved:
		x.agg.flowRemoved(x.intern(&e.Flow), e)
	}
}

// intern returns the dense id of a flow key, assigning the next one on
// first sight — the one hash an event's key costs.
func (x *StreamExtractor) intern(k *flowlog.FlowKey) int32 {
	id, ok := x.ids[*k]
	if !ok {
		id = int32(len(x.count))
		x.ids[*k] = id
		x.count = append(x.count, 0)
	}
	return id
}

// appendID stores one control event of the flow the caller interned to
// id as a hop.
func (x *StreamExtractor) appendID(id int32, e *flowlog.Event) {
	x.count[id]++
	slot := x.n % chunkEvents
	if slot == 0 {
		x.arena = append(x.arena, chunkPool.Get().(*eventChunk))
	}
	c := x.arena[len(x.arena)-1]
	c.hop[slot] = Hop{Time: e.Time, Switch: e.Switch, PacketIn: e.Type == flowlog.EventPacketIn}
	c.flow[slot] = id
	x.n++
}

// run carves n contiguous hop slots out of the gather runs. A flow
// larger than a chunk gets a slab of its own, which the collector owns.
func (g *gatherer) run(n int) []Hop {
	if n > chunkEvents {
		return make([]Hop, 0, n)
	}
	if len(g.runs) == 0 || g.runUsed+n > chunkEvents {
		g.runs = append(g.runs, chunkPool.Get().(*eventChunk))
		g.runUsed = 0
	}
	c := g.runs[len(g.runs)-1]
	s := c.hop[g.runUsed : g.runUsed : g.runUsed+n]
	g.runUsed += n
	return s
}

// Gather returns the occurrences of everything appended so far, in
// canonical order (start time, then key). Nothing is consumed. The
// slice and every Occurrence.Hops in it alias extractor-owned pooled
// memory: they are valid until the next Gather, Reset or Flush, and
// must not be retained past it.
func (x *StreamExtractor) Gather() []Occurrence { return x.gather(&x.g) }

// gather is Gather into g: scatter the arena into per-flow runs, then
// one pass that time-sorts any out-of-order run and counts the
// episodes, so occs and flows are sized once; emit per flow, and put
// the result in canonical order only if it is not already (a window of
// in-order events with one episode per flow usually is).
func (x *StreamExtractor) gather(g *gatherer) []Occurrence {
	g.runs = releaseChunks(g.runs)
	spans := resize(g.spans, len(x.count))
	g.spans = spans
	for i := range spans {
		spans[i] = nil
		if n := x.count[i]; n > 0 {
			spans[i] = g.run(int(n))
		}
	}
	for i := 0; i < x.n; i++ {
		c := x.arena[i/chunkEvents]
		id := c.flow[i%chunkEvents]
		spans[id] = append(spans[id], c.hop[i%chunkEvents])
	}
	// Each key is kept once, in the interning map, until here.
	g.keys = resize(g.keys, len(x.count))
	for k, id := range x.ids {
		g.keys[id] = k
	}
	byTime := func(a, b Hop) int { return cmp.Compare(a.Time, b.Time) }
	n := 0
	for _, run := range spans {
		if !slices.IsSortedFunc(run, byTime) {
			slices.SortStableFunc(run, byTime)
		}
		for j := range run {
			if j == 0 || run[j].Time-run[j-1].Time > x.gap {
				n++
			}
		}
	}
	occs, flows := resize(g.occs, n), resize(g.flows, n)
	k := 0
	for id, run := range spans {
		start := 0
		for j := 1; j <= len(run); j++ {
			if j == len(run) || run[j].Time-run[j-1].Time > x.gap {
				ep := run[start:j:j]
				occs[k] = Occurrence{Key: g.keys[id], Start: episodeStart(ep), Hops: ep}
				flows[k] = int32(id)
				k++
				start = j
			}
		}
	}
	g.occs, g.flows = occs, flows
	if !slices.IsSortedFunc(occs, compareOccurrences) {
		g.sort()
	}
	return occs
}

// resize returns s at length n (never nil), reusing its storage when
// it is large enough. A first use allocates exactly n: a streamed build
// gathers once. Outgrown storage comes back with a quarter of the old
// capacity as headroom, so a Monitor's slowly growing windows rarely
// regrow it.
func resize[T any](s []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+cap(s)/4)
}

// sort puts the gathered occurrences, their flow ids alongside, in
// canonical order: radix-sort 16-byte (start, position) keys by start,
// compare keys only within runs of equal start, then move every
// occurrence once, cycle by cycle.
func (g *gatherer) sort() {
	occs, flows := g.occs, g.flows
	order := resize(g.order, len(occs))
	for i := range occs {
		order[i] = startAt{occs[i].Start, int32(i)}
	}
	order, g.spare = radixByStart(order, resize(g.spare, len(occs)))
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi].start == order[lo].start {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b startAt) int { return compareKeys(occs[a.at].Key, occs[b.at].Key) })
		}
		lo = hi
	}
	// Slot j takes the occurrence at order[j].at; a placed slot points
	// at itself.
	for i := range order {
		if int(order[i].at) == i {
			continue
		}
		o, f := occs[i], flows[i]
		j := i
		for {
			from := int(order[j].at)
			order[j].at = int32(j)
			if from == i {
				occs[j], flows[j] = o, f
				break
			}
			occs[j], flows[j] = occs[from], flows[from]
			j = from
		}
	}
	g.order = order
}

const radixBits = 11

// radixByStart stably sorts keys by start with an LSD radix sort, in
// radixBits digits, of their unsigned offset from the smallest start, so
// a span wider than int64 still orders, over only the digits the span
// needs. It returns the sorted keys and the other buffer; spare is as
// long as keys.
func radixByStart(keys, spare []startAt) (sorted, other []startAt) {
	lo, hi := time.Duration(math.MaxInt64), time.Duration(math.MinInt64)
	for _, k := range keys {
		lo, hi = min(lo, k.start), max(hi, k.start)
	}
	for shift := 0; shift < bits.Len64(uint64(hi)-uint64(lo)); shift += radixBits {
		digit := func(k startAt) uint64 { return (uint64(k.start) - uint64(lo)) >> shift & (1<<radixBits - 1) }
		var at [1 << radixBits]int32
		for _, k := range keys {
			at[digit(k)]++
		}
		next := int32(0)
		for d, n := range at {
			at[d], next = next, next+n
		}
		for _, k := range keys {
			spare[at[digit(k)]] = k
			at[digit(k)]++
		}
		keys, spare = spare, keys
	}
	return keys, spare
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
	clear(x.g.occs[:cap(x.g.occs)])
	x.g.occs, x.g.flows = x.g.occs[:0], x.g.flows[:0]
	clear(x.ids)
	x.count, x.n = x.count[:0], 0
	x.agg.reset()
}

// Flush is Gather then Reset for callers that keep the result: the
// occurrences and the runs behind them belong to the caller and never
// return to the pool.
func (x *StreamExtractor) Flush() []Occurrence { defer x.Reset(); return x.gather(new(gatherer)) }
