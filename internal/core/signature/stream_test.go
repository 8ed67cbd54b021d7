package signature

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
)

// feedAll drives an extractor event by event over a log slice.
func feedAll(x *StreamExtractor, events []flowlog.Event) {
	for _, e := range events {
		x.Append(e)
	}
}

// TestStreamExtractorMatchesBatch pins the extractor against the
// retained batch oracle: fed event-by-event it must flush the
// byte-identical occurrence slice occurrencesReference produces on the
// same events — on sorted logs, shuffled logs, and logs with wildcard
// (FlowMod-only) keys.
func TestStreamExtractorMatchesBatch(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		name := "sorted"
		if shuffle {
			name = "shuffled"
		}
		t.Run(name, func(t *testing.T) {
			log := messyLog(t, 200, shuffle)
			want := occurrencesReference(log, 0)
			if len(want) == 0 {
				t.Fatal("batch extraction found nothing; equivalence would be vacuous")
			}
			x := NewStreamExtractor(0)
			feedAll(x, log.Events)
			got := x.Flush()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streaming result differs from batch (%d vs %d occurrences)", len(got), len(want))
			}
			if x.Pending() != 0 || len(x.Flush()) != 0 {
				t.Error("Flush did not reset the extractor")
			}
		})
	}
}

// TestStreamExtractorWindowed feeds one log through the extractor in
// windows cut at arbitrary points; every window's flush must match
// batch extraction over exactly that window's events — the invariant
// Monitor relies on.
func TestStreamExtractorWindowed(t *testing.T) {
	log := messyLog(t, 120, false)
	cuts := []int{0, 17, len(log.Events) / 3, len(log.Events) / 2, len(log.Events) - 5, len(log.Events)}
	x := NewStreamExtractor(0)
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		feedAll(x, log.Events[lo:hi])
		got := x.Flush()
		window := flowlog.New(0, 10*time.Minute)
		window.Events = append(window.Events, log.Events[lo:hi]...)
		want := occurrencesReference(window, 0)
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
	x := NewStreamExtractor(gap)
	x.Append(flowlog.Event{Time: 0, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	x.Append(flowlog.Event{Time: gap, Type: flowlog.EventFlowMod, Switch: "sw", Flow: key})
	x.Append(flowlog.Event{Time: 2*gap + 1, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	occs := x.Flush()
	if len(occs) != 2 {
		t.Fatalf("got %d occurrences, want 2 (split only on strictly-greater gap)", len(occs))
	}
	if len(occs[0].Events) != 2 || len(occs[1].Events) != 1 {
		t.Errorf("episode sizes = %d,%d, want 2,1", len(occs[0].Events), len(occs[1].Events))
	}
}

// TestStreamExtractorIgnoresNonControl: FlowRemoved/PortStatus must not
// open episodes or extend them (they are invisible to batch extraction
// too).
func TestStreamExtractorIgnoresNonControl(t *testing.T) {
	key := flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 5, DstPort: 80}
	x := NewStreamExtractor(time.Second)
	x.Append(flowlog.Event{Time: 0, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	x.Append(flowlog.Event{Time: 500 * time.Millisecond, Type: flowlog.EventFlowRemoved, Switch: "sw", Flow: key})
	x.Append(flowlog.Event{Time: 600 * time.Millisecond, Type: flowlog.EventPortStatus, Switch: "sw"})
	if x.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (only the PacketIn is a control event)", x.Pending())
	}
	occs := x.Flush()
	if len(occs) != 1 || len(occs[0].Events) != 1 {
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
	x := NewStreamExtractor(0)
	feedAll(x, log.Events)
	occs := x.Gather()
	if !reflect.DeepEqual(occs, occurrencesReference(log, 0)) {
		t.Fatal("gathered occurrences differ from the reference")
	}
	p := NewPipelineFromOccurrencesContext(bg, x, log.Start, log.End, r, cfg, 5, occs)
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
	x := NewStreamExtractor(0)
	for cycle := 0; cycle < 6; cycle++ {
		log := messyLog(t, 150+90*cycle, true)
		rand.New(rand.NewSource(int64(cycle))).Shuffle(len(log.Events), func(i, j int) {
			log.Events[i], log.Events[j] = log.Events[j], log.Events[i]
		})
		half := len(log.Events) / 2
		feedAll(x, log.Events[:half])
		first := flowlog.New(log.Start, log.End)
		first.Events = log.Events[:half]
		if got, want := x.Gather(), occurrencesReference(first, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: mid-stream gather differs from the reference (%d vs %d occurrences)", cycle, len(got), len(want))
		}
		feedAll(x, log.Events[half:])
		if x.Events() != len(log.Events) {
			t.Fatalf("cycle %d: the mid-stream gather consumed events: %d held, %d appended", cycle, x.Events(), len(log.Events))
		}
		got := x.Flush()
		if want := occurrencesReference(log, 0); !reflect.DeepEqual(got, want) {
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
	want := occurrencesReference(log, 0)
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
