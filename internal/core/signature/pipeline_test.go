package signature

import (
	"net/netip"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
)

func addr(last byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 9, 0, last}) }

// chainLog builds a tiny A->B->C log by hand: one flow per edge, with
// FlowRemoved counters, over a log of the given duration.
func chainLog(dur time.Duration) *flowlog.Log {
	l := flowlog.New(0, dur)
	ab := flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 1000, DstPort: 80}
	bc := flowlog.FlowKey{Proto: 6, Src: addr(2), Dst: addr(3), SrcPort: 2000, DstPort: 3306}
	l.Append(flowlog.Event{Time: time.Second, Type: flowlog.EventPacketIn, Switch: "sw1", Flow: bc})
	l.Append(flowlog.Event{Time: 2 * time.Second, Type: flowlog.EventPacketIn, Switch: "sw1", Flow: ab})
	l.Append(flowlog.Event{Time: 3 * time.Second, Type: flowlog.EventFlowRemoved, Switch: "sw1", Flow: bc,
		Bytes: 3000, Packets: 30, FlowDuration: 2 * time.Second})
	l.Append(flowlog.Event{Time: 4 * time.Second, Type: flowlog.EventFlowRemoved, Switch: "sw1", Flow: ab,
		Bytes: 1000, Packets: 10, FlowDuration: 2 * time.Second})
	l.Sort()
	return l
}

// Regression: GroupFS used to carry only FlowCount, so group-granularity
// diffs compared zero FirstSeen/Bytes/Packets/Duration aggregates.
func TestGroupFSAggregates(t *testing.T) {
	sigs := model(t, chainLog(30*time.Second), appgroup.NewResolver(nil), Config{}, 0).App()
	if len(sigs) != 1 {
		t.Fatalf("got %d groups, want 1", len(sigs))
	}
	g := sigs[0].GroupFS
	if g.FlowCount != 2 {
		t.Errorf("GroupFS.FlowCount = %d, want 2", g.FlowCount)
	}
	if g.FirstSeen != time.Second {
		t.Errorf("GroupFS.FirstSeen = %v, want 1s (earliest edge occurrence)", g.FirstSeen)
	}
	if g.Bytes.Count != 2 || g.Bytes.Sum != 4000 {
		t.Errorf("GroupFS.Bytes = %+v, want count 2 sum 4000", g.Bytes)
	}
	if g.Bytes.Min != 1000 || g.Bytes.Max != 3000 {
		t.Errorf("GroupFS.Bytes min/max = %v/%v, want 1000/3000", g.Bytes.Min, g.Bytes.Max)
	}
	if g.Packets.Sum != 40 {
		t.Errorf("GroupFS.Packets.Sum = %v, want 40", g.Packets.Sum)
	}
	if g.Duration.Count != 2 || g.Duration.Mean != float64(2*time.Second) {
		t.Errorf("GroupFS.Duration = %+v, want 2 samples of 2s", g.Duration)
	}
}

// Regression: delayDistribution used a strict > on the pairing window
// start, so an outgoing flow starting at exactly the same instant as the
// incoming one (delay 0, common with the discrete-event clock) never
// landed in the histogram.
func TestDelayDistributionZeroDelay(t *testing.T) {
	cfg := Config{}.withDefaults()
	ins := []time.Duration{10 * time.Second}
	outs := []time.Duration{
		10 * time.Second,                    // delay 0
		10*time.Second + 5*time.Millisecond, // delay 5ms, same bucket
		10*time.Second + 2*cfg.DDWindow,     // outside the window
	}
	dd, ok := delayDistribution(ins, outs, cfg, new(modelStore))
	if !ok {
		t.Fatal("no DD built")
	}
	if dd.Samples != 2 {
		t.Errorf("samples = %d, want 2 (zero-delay pair must count)", dd.Samples)
	}
	if len(dd.Histogram.Counts) == 0 || dd.Histogram.Counts[0] != 2 {
		t.Errorf("bucket 0 = %v, want 2 samples including the delay-0 pair", dd.Histogram.Counts)
	}
}

// Regression: edgeCorrelation truncated the epoch count to
// int(duration/epoch), silently dropping every occurrence in the tail
// remainder — here the whole signal lives in the final 4 s of a 29 s log
// and the old code found no correlated epochs at all.
func TestEdgeCorrelationIncludesTailEpoch(t *testing.T) {
	log := flowlog.New(0, 29*time.Second)
	var ins, outs []time.Duration
	for _, s := range []time.Duration{26 * time.Second, 27 * time.Second, 28 * time.Second} {
		ins = append(ins, s)
		outs = append(outs, s+100*time.Millisecond)
	}
	cfg := Config{}.withDefaults()
	pc, ok := edgeCorrelation(ins, outs, logMeta{Start: log.Start, End: log.End}, cfg, new([]float64))
	if !ok {
		t.Fatal("no PC computed: tail-epoch occurrences were dropped")
	}
	if pc < 0.99 {
		t.Errorf("PC = %.3f, want ~1 (both edges burst in the tail epoch)", pc)
	}
}

func TestPartitionByStartBoundaries(t *testing.T) {
	log := flowlog.New(0, 10*time.Second)
	starts := []time.Duration{0, 2 * time.Second, 4 * time.Second, 5 * time.Second, 8 * time.Second, 10 * time.Second}
	occs := make([]Occurrence, len(starts))
	for i, s := range starts {
		occs[i] = Occurrence{Start: s}
	}
	segs, err := log.Segment(2)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]logMeta, len(segs))
	for i, s := range segs {
		metas[i] = logMeta{Start: s.Start, End: s.End}
	}
	parts := partitionByStart(occs, metas)
	if len(parts[0]) != 3 {
		t.Errorf("first interval got %d occurrences, want 3 (start 5s belongs to the second)", len(parts[0]))
	}
	// The occurrence at exactly End must land in the last interval, not
	// vanish: intervals collectively must see every occurrence.
	if len(parts[1]) != 3 {
		t.Errorf("last interval got %d occurrences, want 3 including the one at End", len(parts[1]))
	}
	// The pipeline slices its per-edge start index with the same
	// boundaries.
	index := map[Edge][]time.Duration{{Src: "a", Dst: "b"}: starts}
	for i, m := range metas {
		if got := sliceStarts(index, m, i == len(metas)-1, nil)[Edge{Src: "a", Dst: "b"}]; len(got) != len(parts[i]) || got[0] != parts[i][0].Start {
			t.Errorf("interval %d: sliced starts %v disagree with partitionByStart (%d from %v)", i, got, len(parts[i]), parts[i][0].Start)
		}
	}
}

// windowLog is one Monitor window of an A->B->C chain: flows keys per
// edge, each with episodes two-switch path setups two seconds apart,
// every setup followed by its FlowRemoved.
func windowLog(flows, episodes int) *flowlog.Log {
	l := flowlog.New(0, 20*time.Second)
	for ep := 0; ep < episodes; ep++ {
		for f := 0; f < flows; f++ {
			t0 := time.Duration(ep)*2*time.Second + time.Duration(f)*time.Millisecond
			for hop, k := range []flowlog.FlowKey{
				{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: uint16(1000 + f), DstPort: 80},
				{Proto: 6, Src: addr(2), Dst: addr(3), SrcPort: uint16(2000 + f), DstPort: 3306},
			} {
				at := t0 + time.Duration(hop)*30*time.Millisecond
				l.Append(flowlog.Event{Time: at, Type: flowlog.EventPacketIn, Switch: "sw1", Flow: k})
				l.Append(flowlog.Event{Time: at + time.Millisecond, Type: flowlog.EventFlowMod, Switch: "sw1", Flow: k})
				l.Append(flowlog.Event{Time: at + 2*time.Millisecond, Type: flowlog.EventPacketIn, Switch: "sw2", Flow: k})
				l.Append(flowlog.Event{Time: at + 3*time.Millisecond, Type: flowlog.EventFlowMod, Switch: "sw2", Flow: k})
				l.Append(flowlog.Event{Time: at + 500*time.Millisecond, Type: flowlog.EventFlowRemoved, Switch: "sw1", Flow: k,
					Bytes: uint64(1000 * (ep + 1)), Packets: uint64(10 + f), FlowDuration: 400 * time.Millisecond})
			}
		}
	}
	l.Sort()
	return l
}

// TestWindowBuildAllocsFlatInSamples builds the products of two windows
// with the same flows and edges, one with 4x the FlowMod and FlowRemoved
// samples, and requires the same allocation count: the window's
// statistics are folded where they are met and each retained sample
// field is allocated once, so no allocation grows with the samples.
func TestWindowBuildAllocsFlatInSamples(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops group discovery's recycled scratch at random under the race detector")
	}
	// Collection off: a span's sample ring grows until it is full.
	ctx := obs.WithRegistry(bg, nil)
	build := func(episodes int) (float64, AppSignature, InfraSignature) {
		log := windowLog(6, episodes)
		x := NewStreamExtractor(0, appgroup.NewResolver(nil), 0, 0, 0)
		feedAll(x, log.Events)
		occs := x.Gather()
		var app []AppSignature
		var inf InfraSignature
		allocs := testing.AllocsPerRun(20, func() {
			p := NewPipelineFromOccurrencesContext(ctx, x, log.Start, log.End, Config{}, occs)
			app, inf = p.App(), p.Infra()
		})
		if len(app) != 1 {
			t.Fatalf("%d episodes: %d groups, want 1", episodes, len(app))
		}
		return allocs, app[0], inf
	}
	few, fewApp, fewInf := build(2)
	many, manyApp, manyInf := build(8)
	if len(manyInf.CRTSamples) != 4*len(fewInf.CRTSamples) || manyApp.GroupFS.Bytes.Count != 4*fewApp.GroupFS.Bytes.Count ||
		manyInf.ISL[SwitchPair{"sw1", "sw2"}].Count != 4*fewInf.ISL[SwitchPair{"sw1", "sw2"}].Count || len(fewInf.CRTSamples) == 0 {
		t.Fatalf("the larger window does not hold 4x the samples: CRT %d vs %d, bytes %d vs %d",
			len(manyInf.CRTSamples), len(fewInf.CRTSamples), manyApp.GroupFS.Bytes.Count, fewApp.GroupFS.Bytes.Count)
	}
	if len(manyApp.DD) == 0 || len(manyApp.PC) == 0 {
		t.Fatal("the window builds no DD or PC signature; the check would skip them")
	}
	if few != many {
		t.Errorf("a window build allocates %v times with 4x the samples, %v without", many, few)
	}
}
