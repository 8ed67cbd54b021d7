package signature

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
)

// feedAll drives an extractor event by event over a log slice.
func feedAll(x *StreamExtractor, events []flowlog.Event) {
	for i := range events {
		x.Add(&events[i])
	}
}

// TestStreamExtractorMatchesBatch pins the extractor against the
// retained batch oracle: fed event-by-event it must flush the
// byte-identical occurrence slice occurrencesReference produces on the
// same events — on sorted logs, shuffled logs, and logs with wildcard
// (FlowMod-only) keys, and on a log shaped like a whole capture, whose
// per-flow emission is far from canonical order.
func TestStreamExtractorMatchesBatch(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		name := "sorted"
		if shuffle {
			name = "shuffled"
		}
		t.Run(name, func(t *testing.T) {
			for _, log := range []*flowlog.Log{messyLog(t, 200, shuffle), captureLog(60, 12, shuffle)} {
				want := hopsOf(occurrencesReference(log, 0))
				if len(want) == 0 {
					t.Fatal("batch extraction found nothing; equivalence would be vacuous")
				}
				x := NewStreamExtractor(0, appgroup.NewResolver(nil), 0, 0, 0)
				feedAll(x, log.Events)
				got := x.Flush()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("streaming result differs from batch (%d vs %d occurrences)", len(got), len(want))
				}
				if x.Pending() != 0 || len(x.Flush()) != 0 {
					t.Error("Flush did not reset the extractor")
				}
			}
		})
	}
}

// captureLog is a whole capture in miniature: nKeys flows with episodes
// episodes each, two seconds apart, every flow active in every period
// so episodes of different flows interleave. Flows whose index agrees
// mod 7 start their episodes at the same instant, and they are logged
// in descending key order, so the canonical order must break those
// ties by key against arrival; every seventh flow is FlowMod-only.
func captureLog(nKeys, episodes int, shuffle bool) *flowlog.Log {
	l := flowlog.New(0, time.Duration(episodes)*2*time.Second)
	for ep := 0; ep < episodes; ep++ {
		for k := nKeys - 1; k >= 0; k-- {
			key := flowlog.FlowKey{Proto: 6, Src: addr(byte(k)), Dst: addr(byte(k + 1)), SrcPort: uint16(2000 + k), DstPort: 443}
			t0 := time.Duration(ep)*2*time.Second + time.Duration(k%7)*37*time.Millisecond
			if k%7 == 3 {
				l.Append(flowlog.Event{Time: t0, Type: flowlog.EventFlowMod, Switch: "sw1", Flow: key})
				continue
			}
			l.Append(flowlog.Event{Time: t0, Type: flowlog.EventPacketIn, Switch: "sw1", Flow: key})
			l.Append(flowlog.Event{Time: t0 + time.Millisecond, Type: flowlog.EventFlowMod, Switch: "sw1", Flow: key})
			l.Append(flowlog.Event{Time: t0 + 2*time.Millisecond, Type: flowlog.EventPacketIn, Switch: "sw2", Flow: key})
			l.Append(flowlog.Event{Time: t0 + 3*time.Millisecond, Type: flowlog.EventFlowMod, Switch: "sw2", Flow: key})
		}
	}
	if shuffle {
		rand.New(rand.NewSource(11)).Shuffle(len(l.Events), func(i, j int) {
			l.Events[i], l.Events[j] = l.Events[j], l.Events[i]
		})
	} else {
		l.Sort()
	}
	return l
}

// TestStreamExtractorWindowed feeds one log through the extractor in
// windows cut at arbitrary points; every window's flush must match
// batch extraction over exactly that window's events — the invariant
// Monitor relies on.
func TestStreamExtractorWindowed(t *testing.T) {
	log := messyLog(t, 120, false)
	cuts := []int{0, 17, len(log.Events) / 3, len(log.Events) / 2, len(log.Events) - 5, len(log.Events)}
	x := NewStreamExtractor(0, appgroup.NewResolver(nil), 0, 0, 0)
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		feedAll(x, log.Events[lo:hi])
		got := x.Flush()
		window := flowlog.New(0, 10*time.Minute)
		window.Events = append(window.Events, log.Events[lo:hi]...)
		want := hopsOf(occurrencesReference(window, 0))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window [%d,%d): streaming flush differs from batch (%d vs %d occurrences)", lo, hi, len(got), len(want))
		}
	}
}

// TestStreamExtractorGapBoundary: a quiet period of exactly the gap must
// NOT split an episode (batch uses strictly-greater), one tick more
// must.
func TestStreamExtractorGapBoundary(t *testing.T) {
	key := flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 5, DstPort: 80}
	gap := time.Second
	x := NewStreamExtractor(gap, appgroup.NewResolver(nil), 0, 0, 0)
	x.Add(&flowlog.Event{Time: 0, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	x.Add(&flowlog.Event{Time: gap, Type: flowlog.EventFlowMod, Switch: "sw", Flow: key})
	x.Add(&flowlog.Event{Time: 2*gap + 1, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	occs := x.Flush()
	if len(occs) != 2 {
		t.Fatalf("got %d occurrences, want 2 (split only on strictly-greater gap)", len(occs))
	}
	if len(occs[0].Hops) != 2 || len(occs[1].Hops) != 1 {
		t.Errorf("episode sizes = %d,%d, want 2,1", len(occs[0].Hops), len(occs[1].Hops))
	}
}

// TestStreamExtractorIgnoresNonControl: FlowRemoved/PortStatus must not
// open episodes or extend them (they are invisible to batch extraction
// too).
func TestStreamExtractorIgnoresNonControl(t *testing.T) {
	key := flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 5, DstPort: 80}
	x := NewStreamExtractor(time.Second, appgroup.NewResolver(nil), 0, 0, 0)
	x.Add(&flowlog.Event{Time: 0, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	x.Add(&flowlog.Event{Time: 500 * time.Millisecond, Type: flowlog.EventFlowRemoved, Switch: "sw", Flow: key})
	x.Add(&flowlog.Event{Time: 600 * time.Millisecond, Type: flowlog.EventPortStatus, Switch: "sw"})
	if x.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (only the PacketIn is a control event)", x.Pending())
	}
	occs := x.Flush()
	if len(occs) != 1 || len(occs[0].Hops) != 1 {
		t.Fatalf("got %+v, want one single-event occurrence", occs)
	}
}

// TestPipelineFromOccurrencesMatchesNewPipeline: a pipeline built from
// an extractor that observed the log event by event (Monitor's entry)
// must yield the same signatures as the reference model of the log.
func TestPipelineFromOccurrencesMatchesNewPipeline(t *testing.T) {
	log := messyLog(t, 100, false)
	r := appgroup.NewResolver(nil)
	cfg := Config{}
	ref := newPipelineReference(log, r, cfg)
	x := NewStreamExtractor(0, r, 5, log.Start, log.End)
	feedAll(x, log.Events)
	occs := x.Gather()
	if !reflect.DeepEqual(occs, hopsOf(occurrencesReference(log, 0))) {
		t.Fatal("gathered occurrences differ from the reference")
	}
	p := NewPipelineFromOccurrencesContext(bg, x, log.Start, log.End, cfg, occs)
	if !reflect.DeepEqual(p.Edges(), edgesReference(log, r)) {
		t.Error("edge sets differ")
	}
	refApp := ref.App()
	if !reflect.DeepEqual(p.App(), refApp) {
		t.Error("app signatures differ")
	}
	if !reflect.DeepEqual(p.Infra(), ref.Infra()) {
		t.Error("infra signatures differ")
	}
	stab, err := p.Stability(StabilityConfig{}, refApp)
	if err != nil {
		t.Fatal(err)
	}
	refStab, err := ref.Stability(StabilityConfig{}, refApp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stab, refStab) {
		t.Error("stability verdicts differ")
	}
}

// TestStreamExtractorRecycledCycles drives one extractor through
// repeated windows over different shuffled logs, so every cycle after
// the first runs on recycled chunks, a cleared map and reused index
// slices still holding the previous log's data. Each cycle gathers
// mid-stream (which must consume nothing), appends the rest, and
// flushes; every result must be the batch oracle's, byte for byte.
func TestStreamExtractorRecycledCycles(t *testing.T) {
	x := NewStreamExtractor(0, appgroup.NewResolver(nil), 0, 0, 0)
	for cycle := 0; cycle < 6; cycle++ {
		log := messyLog(t, 150+90*cycle, true)
		rand.New(rand.NewSource(int64(cycle))).Shuffle(len(log.Events), func(i, j int) {
			log.Events[i], log.Events[j] = log.Events[j], log.Events[i]
		})
		half := len(log.Events) / 2
		feedAll(x, log.Events[:half])
		first := flowlog.New(log.Start, log.End)
		first.Events = log.Events[:half]
		if got, want := x.Gather(), hopsOf(occurrencesReference(first, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: mid-stream gather differs from the reference (%d vs %d occurrences)", cycle, len(got), len(want))
		}
		feedAll(x, log.Events[half:])
		if x.Events() != len(log.Events) {
			t.Fatalf("cycle %d: the mid-stream gather consumed events: %d held, %d appended", cycle, x.Events(), len(log.Events))
		}
		got := x.Flush()
		if want := hopsOf(occurrencesReference(log, 0)); !reflect.DeepEqual(got, want) {
			t.Errorf("cycle %d: flush differs from the reference (%d vs %d occurrences)", cycle, len(got), len(want))
		}
		if x.Events() != 0 || x.Pending() != 0 || len(x.Gather()) != 0 {
			t.Fatalf("cycle %d: flush did not reset the extractor", cycle)
		}
	}
}

// TestStreamExtractorOversizeFlow: a flow with more control events than
// a chunk holds still comes out as contiguous episodes.
func TestStreamExtractorOversizeFlow(t *testing.T) {
	log := flowlog.New(0, time.Hour)
	key := flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 5, DstPort: 80}
	other := flowlog.FlowKey{Proto: 6, Src: addr(3), Dst: addr(4), SrcPort: 6, DstPort: 80}
	for i := 0; i < 3*chunkEvents+7; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		if i == 2*chunkEvents {
			at += time.Minute // one gap: two episodes, both longer than a chunk or nearly
		}
		log.Append(flowlog.Event{Time: at, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
		if i%50 == 0 {
			log.Append(flowlog.Event{Time: at, Type: flowlog.EventFlowMod, Switch: "sw", Flow: other})
		}
	}
	want := hopsOf(occurrencesReference(log, 0))
	if got := Occurrences(log, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("oversize flow: %d occurrences, reference %d", len(got), len(want))
	}
}

// TestOccurrencesAllocatesNoMoreThanReference is the allocation ceiling
// of whole-log extraction: in steady state (pool warm) the chunked arena
// must not cost more bytes than the batch oracle's per-key buffers. A
// single contiguous arena grown by append fails this by roughly half —
// growslice re-allocates a multi-megabyte slab about five times over.
func TestOccurrencesAllocatesNoMoreThanReference(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled chunks at random under the race detector")
	}
	log := benchLog(100_000)
	// No collection while measuring: one would empty the pool between
	// the warm-up and the measured run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(extract func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		extract()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	reference := measure(func() { occurrencesReference(log, 0) })
	Occurrences(log, 0)
	if got := measure(func() { Occurrences(log, 0) }); got > reference {
		t.Errorf("Occurrences allocates %d bytes on a 100k-event log, the reference extractor %d", got, reference)
	}
}

// TestGatherSortMatchesComparisonSort holds gatherer.sort's radix order
// to slices.SortFunc with compareOccurrences, each flow id moving with
// its occurrence: random starts over a wide span, heavy ties, a span of
// 0, one element, and starts at both ends of int64, whose span overflows
// int64. Keys are distinct and in no order. One gatherer sorts every
// case, so its scratch is reused across sizes.
func TestGatherSortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var g gatherer
	check := func(name string, starts []time.Duration) {
		t.Helper()
		occs := make([]Occurrence, len(starts))
		ports := rng.Perm(len(starts))
		for i, s := range starts {
			occs[i] = Occurrence{Start: s, Key: flowlog.FlowKey{Proto: 6, Src: addr(byte(ports[i] % 5)), Dst: addr(9), SrcPort: uint16(ports[i]), DstPort: 80}}
		}
		want := slices.Clone(occs)
		slices.SortFunc(want, compareOccurrences)
		g.occs, g.flows = slices.Clone(occs), make([]int32, len(occs))
		for i := range g.flows {
			g.flows[i] = int32(i)
		}
		g.sort()
		for i := range want {
			if got := g.occs[i]; got.Start != want[i].Start || got.Key != want[i].Key || occs[g.flows[i]].Key != got.Key {
				t.Fatalf("%s: slot %d holds %v at %v (flow %d), want %v at %v", name, i, got.Key, got.Start, g.flows[i], want[i].Key, want[i].Start)
			}
		}
	}
	draw := func(n int, f func() time.Duration) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = f()
		}
		return s
	}
	check("random", draw(3000, func() time.Duration { return time.Duration(rng.Int63n(1<<41) - 1<<40) }))
	check("ties", draw(3000, func() time.Duration { return time.Duration(rng.Intn(8)) * time.Millisecond }))
	check("span 0", draw(500, func() time.Duration { return 42 * time.Second }))
	check("one", []time.Duration{-time.Second})
	check("empty", nil)
	ends := []time.Duration{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1}
	check("int64 ends", draw(1000, func() time.Duration { return ends[rng.Intn(2)] }))
	check("int64 ends and between", draw(1000, func() time.Duration {
		if rng.Intn(2) == 0 {
			return ends[rng.Intn(len(ends))]
		}
		return time.Duration(rng.Int63() - rng.Int63())
	}))
	check("random again", draw(200, func() time.Duration { return time.Duration(rng.Int63n(1 << 20)) }))
}
