// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation studies listed in DESIGN.md. Each bench
// regenerates its experiment end to end (simulation, modeling, diffing),
// so -bench also doubles as a reproduction driver:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig13bProcessingTime -benchtime=10x
package flowdiff_test

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/experiments"
	"flowdiff/internal/flowlog"
)

// BenchmarkTable1DetectProblems regenerates Table I: inject each of the
// seven operational problems and run the full detection pipeline.
func BenchmarkTable1DetectProblems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if !row.Detected {
				b.Fatalf("problem %d not detected", row.ID)
			}
		}
	}
}

// BenchmarkTable3TaskMatching regenerates Table III: train per-VM startup
// automata and measure matching accuracy.
func BenchmarkTable3TaskMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(int64(i)+1, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ByteCountCDF regenerates Figure 9's byte-count and delay
// CDFs under loss and logging faults.
func BenchmarkFig9ByteCountCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.MeanBytes["loss"] <= res.MeanBytes["vanilla"] {
			b.Fatal("loss did not inflate byte counts")
		}
	}
}

// BenchmarkFig10DelayDistribution regenerates Figure 10: DD peak
// stability across workload and reuse settings.
func BenchmarkFig10DelayDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(int64(i)+1, 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Panels {
			if p.Samples == 0 {
				b.Fatalf("%s: no samples", p.Setting.Label)
			}
		}
	}
}

// BenchmarkFig11PartialCorrelation regenerates Figure 11a (PC across
// cases 1-4).
func BenchmarkFig11PartialCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11a(int64(i)+1, 2*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12ComponentInteraction regenerates Figure 12 (CI stability
// at S4 across cases 1-4).
func BenchmarkFig12ComponentInteraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(int64(i)+1, 2*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13aPacketInRate measures control-traffic generation on the
// 320-server tree for a 9-application workload (Figure 13a's middle
// series).
func BenchmarkFig13aPacketInRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, _, err := experiments.Fig13Trace(int64(i)+1, 9, 60*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if len(log.Events) == 0 {
			b.Fatal("no control traffic")
		}
	}
}

// BenchmarkFig13bProcessingTime measures FlowDiff's modeling phase on a
// 19-application trace — the quantity on Figure 13b's y-axis.
func BenchmarkFig13bProcessingTime(b *testing.B) {
	log, topo, err := experiments.Fig13Trace(1, 19, 60*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.FlowDiffProcess(log, topo); err != nil {
			b.Fatal(err)
		}
	}
}

// synthThreeTierLog builds a deterministic control log of roughly
// nEvents events: eight independent three-tier application groups, each
// request producing a front->mid and a mid->back flow (PacketIn+FlowMod
// on two switches plus a FlowRemoved per flow). It exercises every
// signature component (CG/FS/CI/DD/PC) at a controlled event count,
// which the simulator-driven benches cannot.
func synthThreeTierLog(nEvents int) *flowdiff.Log {
	return synthThreeTierStream(0, 5*time.Minute, nEvents)
}

// synthThreeTierStream is synthThreeTierLog generalized to an arbitrary
// interval, so Monitor tests can generate a continuous stream that
// starts where the baseline log ends.
func synthThreeTierStream(start, dur time.Duration, nEvents int) *flowdiff.Log {
	const (
		groups       = 8
		eventsPerReq = 10 // 2 flows x (2 PacketIn + 2 FlowMod + 1 FlowRemoved)
	)
	l := flowlog.New(start, start+dur)
	reqs := nEvents / (groups * eventsPerReq)
	if reqs < 1 {
		reqs = 1
	}
	step := dur / time.Duration(reqs+1)
	host := func(g, role int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(g), byte(role), 1})
	}
	emit := func(k flowlog.FlowKey, at time.Duration, sw1, sw2 string) {
		l.Append(flowlog.Event{Time: at, Type: flowlog.EventPacketIn, Switch: sw1, Flow: k})
		l.Append(flowlog.Event{Time: at + time.Millisecond, Type: flowlog.EventFlowMod, Switch: sw1, Flow: k})
		l.Append(flowlog.Event{Time: at + 2*time.Millisecond, Type: flowlog.EventPacketIn, Switch: sw2, Flow: k})
		l.Append(flowlog.Event{Time: at + 3*time.Millisecond, Type: flowlog.EventFlowMod, Switch: sw2, Flow: k})
		l.Append(flowlog.Event{Time: at + 500*time.Millisecond, Type: flowlog.EventFlowRemoved, Switch: sw1, Flow: k,
			Bytes: 30000, Packets: 40, FlowDuration: 400 * time.Millisecond})
	}
	for i := 0; i < reqs; i++ {
		t0 := start + time.Duration(i+1)*step
		port := uint16(1024 + i%50000)
		for g := 0; g < groups; g++ {
			sw1, sw2 := fmt.Sprintf("sw%d-1", g), fmt.Sprintf("sw%d-2", g)
			front := flowlog.FlowKey{Proto: 6, Src: host(g, 1), Dst: host(g, 2), SrcPort: port, DstPort: 80}
			back := flowlog.FlowKey{Proto: 6, Src: host(g, 2), Dst: host(g, 3), SrcPort: port, DstPort: 3306}
			emit(front, t0, sw1, sw2)
			emit(back, t0+10*time.Millisecond, sw1, sw2)
		}
	}
	l.Sort()
	return l
}

// --- ablation benches (DESIGN.md) ------------------------------------

// BenchmarkAblationDeploymentModes compares control-traffic volume under
// reactive / wildcard / proactive rule installation (§VI).
func BenchmarkAblationDeploymentModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DeploymentModes(int64(i)+1, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].PacketIns == 0 {
			b.Fatal("reactive mode produced no control traffic")
		}
	}
}

// BenchmarkAblationClosedPruning measures task mining with closed-pattern
// pruning (automaton size ablation).
func BenchmarkAblationClosedPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClosedPruning(int64(i)+1, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInterleaveThreshold measures task detection as the
// interleave bound varies around the paper's 1 s setting.
func BenchmarkAblationInterleaveThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.InterleaveThreshold(int64(i)+1, nil, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStabilityFilter measures the false-alarm suppression
// of the stability filter on clean diffs.
func BenchmarkAblationStabilityFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.StabilityFilter(int64(i)+1, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.AlarmsWithFilter > res.AlarmsWithoutFilter {
			b.Fatal("stability filter increased alarms")
		}
	}
}

// BenchmarkAblationPCEpoch sweeps the PC epoch length.
func BenchmarkAblationPCEpoch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PCEpoch(int64(i)+1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationControllerScaling measures CRT relief from sharding
// switches across controller instances (§VI distributed controller).
func BenchmarkAblationControllerScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ControllerScaling(int64(i)+1, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		if res.CRTMean[1] >= res.CRTMean[0] {
			b.Fatal("distribution did not reduce CRT")
		}
	}
}

// BenchmarkAblationHybridDeployment measures the §VI incremental
// deployment's granularity trade-off.
func BenchmarkAblationHybridDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Hybrid(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.HybridPacketIns >= res.FullPacketIns {
			b.Fatal("hybrid deployment did not reduce control traffic")
		}
	}
}

// BenchmarkAblationTimeoutSweep measures the §III-A soft-timeout
// granularity trade-off.
func BenchmarkAblationTimeoutSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TimeoutSweep(int64(i)+1, nil, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].PacketIns == 0 {
			b.Fatal("no control traffic")
		}
	}
}
