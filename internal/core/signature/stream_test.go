package signature

import (
	"reflect"
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

// TestPipelineFromOccurrencesMatchesNewPipeline: handing a pipeline
// pre-extracted occurrences (Monitor's entry) must yield the same
// signatures as the reference model of the log.
func TestPipelineFromOccurrencesMatchesNewPipeline(t *testing.T) {
	log := messyLog(t, 100, false)
	r := appgroup.NewResolver(nil)
	cfg := Config{}
	ref := newPipelineReference(log, r, cfg)
	p := NewPipelineFromOccurrencesContext(bg, log, r, cfg, StabilityConfig{}, occurrencesReference(log, 0))
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
