package signature

import (
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/workload"
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
	sigs := BuildApp(chainLog(30*time.Second), appgroup.NewResolver(nil), Config{})
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
	dd, ok := delayDistribution(ins, outs, cfg)
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
	pc, ok := edgeCorrelation(ins, outs, logMeta{Start: log.Start, End: log.End}, cfg)
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
		if got := sliceStarts(index, m, i == len(metas)-1)[Edge{Src: "a", Dst: "b"}]; len(got) != len(parts[i]) || got[0] != parts[i][0].Start {
			t.Errorf("interval %d: sliced starts %v disagree with partitionByStart (%d from %v)", i, got, len(parts[i]), parts[i][0].Start)
		}
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	// Raise GOMAXPROCS so the clamp doesn't collapse every width to 1 on
	// single-CPU CI hosts — the race detector must see real concurrent
	// builds at each width.
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	log, r, _ := simCase5(t, workload.Case5Params{MeanA: 300, MeanB: 300}, 31, time.Minute)
	base := Config{Special: defaultSpecial()}
	var refApps []AppSignature
	var refStab map[string]Stability
	for _, workers := range []int{1, 2, 4, 7} {
		cfg := base
		cfg.Parallelism = workers
		apps := BuildApp(log, r, cfg)
		stab, err := AnalyzeStability(log, r, cfg, StabilityConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if refApps == nil {
			refApps, refStab = apps, stab
			continue
		}
		if !reflect.DeepEqual(apps, refApps) {
			t.Errorf("workers=%d: app signatures differ from sequential build", workers)
		}
		if !reflect.DeepEqual(stab, refStab) {
			t.Errorf("workers=%d: stability verdicts differ from sequential build", workers)
		}
	}
}
