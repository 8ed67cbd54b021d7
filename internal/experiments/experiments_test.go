package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/controller"
)

func TestTable1AllProblemsDetected(t *testing.T) {
	res, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Detected {
			t.Errorf("problem %d (%s) not detected", row.ID, row.Problem)
		}
		if len(row.Impacted) == 0 {
			t.Errorf("problem %d has no impacted signatures", row.ID)
		}
	}
	out := res.String()
	if !strings.Contains(out, "TABLE I") {
		t.Error("render missing title")
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	var ubuntuIdx int
	for i, row := range res.Rows {
		if row.VM.Flavor.String() == "ubuntu" {
			ubuntuIdx = i
		}
		// Near-perfect true positives on the VM's own automaton.
		if row.TPUnmasked < row.VM.Restarts*7/10 {
			t.Errorf("%s: TP unmasked %d/%d too low", row.VM.Name, row.TPUnmasked, row.VM.Restarts)
		}
		if row.TPMasked < row.VM.Restarts*7/10 {
			t.Errorf("%s: TP masked %d/%d too low", row.VM.Name, row.TPMasked, row.VM.Restarts)
		}
		// False positives must stay low.
		if row.FPMasked > row.ForeignRuns/3 {
			t.Errorf("%s: FP masked %d/%d too high", row.VM.Name, row.FPMasked, row.ForeignRuns)
		}
	}
	// Ubuntu never matches AMI startups: its automaton has a different
	// flow set.
	if res.Rows[ubuntuIdx].FPMasked != 0 {
		t.Errorf("Ubuntu automaton matched AMI startups %d times", res.Rows[ubuntuIdx].FPMasked)
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(3)
	if err != nil {
		t.Fatal(err)
	}
	// Loss must shift the byte distribution right and the delay CDF right.
	if res.MeanBytes["loss"] <= res.MeanBytes["vanilla"]*1.02 {
		t.Errorf("loss should inflate bytes: vanilla mean=%.0f loss mean=%.0f",
			res.MeanBytes["vanilla"], res.MeanBytes["loss"])
	}
	if res.MedianDelay["logging"] <= res.MedianDelay["vanilla"] {
		t.Errorf("logging should inflate delay: vanilla=%v logging=%v",
			res.MedianDelay["vanilla"], res.MedianDelay["logging"])
	}
	if res.MedianDelay["loss"] < res.MedianDelay["vanilla"] {
		t.Errorf("loss should not reduce delay: vanilla=%v loss=%v",
			res.MedianDelay["vanilla"], res.MedianDelay["loss"])
	}
}

func TestFig10PeakPersists(t *testing.T) {
	res, err := Fig10(4, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 6 {
		t.Fatalf("got %d panels", len(res.Panels))
	}
	for _, p := range res.Panels {
		if p.Samples == 0 {
			t.Errorf("%s: no DD samples", p.Setting.Label)
			continue
		}
		msPeak := float64(p.Peak) / float64(time.Millisecond)
		if msPeak < 40 || msPeak > 80 {
			t.Errorf("%s: peak %.0fms left the [40,80]ms band (truth 60ms)", p.Setting.Label, msPeak)
		}
	}
}

func TestFig11Stability(t *testing.T) {
	a, err := Fig11a(5, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PC) != 4 {
		t.Fatalf("fig11a has %d cases", len(a.PC))
	}
	for i, pc := range a.PC {
		if pc < 0.2 {
			t.Errorf("case %d: PC=%.3f too weak for dependent edges", i+1, pc)
		}
	}
	b, err := Fig11b(6, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Series) != 6 {
		t.Fatalf("fig11b has %d series", len(b.Series))
	}
	for _, s := range b.Series {
		if len(s.Y) != 10 {
			t.Errorf("%s: %d intervals, want 10", s.Label, len(s.Y))
		}
	}
}

func TestFig12CIStable(t *testing.T) {
	res, err := Fig12(7, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 4 {
		t.Fatalf("got %d cases", len(res.Cases))
	}
	for _, c := range res.Cases[1:] {
		if c.ChiSquare > 0.2 {
			t.Errorf("case %d: chi2=%.4f too large (CI should be stable)", c.Case, c.ChiSquare)
		}
	}
}

func TestFig13Scalability(t *testing.T) {
	res, err := Fig13(8, Fig13Config{
		AppCounts:     []int{1, 5, 9},
		Capture:       30 * time.Second,
		Repetitions:   3,
		RateSeriesFor: []int{1, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// PacketIn volume grows with app count.
	if !(res.PacketIns[0] < res.PacketIns[1] && res.PacketIns[1] < res.PacketIns[2]) {
		t.Errorf("PacketIns not increasing: %v", res.PacketIns)
	}
	if len(res.RateSeries) != 2 {
		t.Fatalf("rate series = %d", len(res.RateSeries))
	}
	// The 9-app series must carry more traffic than the 1-app series.
	sum := func(s Series) float64 {
		total := 0.0
		for _, y := range s.Y {
			total += y
		}
		return total
	}
	if sum(res.RateSeries[1]) <= sum(res.RateSeries[0]) {
		t.Error("9-app PacketIn rate not above 1-app rate")
	}
	// Wall-clock timing under a parallel test run is noisy, so this test
	// only guards against a quadratic blowup: per-message cost may at
	// most 2.5x across a ~9x volume sweep. The standalone harness
	// (cmd/experiments -run fig13) reports the tighter ScalesGracefully
	// measure.
	first := res.ProcessingMin[0] / float64(res.PacketIns[0])
	last := res.ProcessingMin[len(res.ProcessingMin)-1] / float64(res.PacketIns[len(res.PacketIns)-1])
	if last > first*2.5 {
		t.Errorf("per-message processing cost grew too fast: %+v / %v", res.ProcessingMin, res.PacketIns)
	}
}

func TestMatricesShape(t *testing.T) {
	res, err := Matrices(9)
	if err != nil {
		t.Fatal(err)
	}
	// Congestion: some app row x ISL set, CGxPT clear.
	isl := false
	for _, row := range res.Congestion.Rows {
		if res.Congestion.Cells[row]["ISL"] {
			isl = true
		}
	}
	if !isl {
		t.Errorf("congestion matrix has no ISL column hits:\n%s", res.Congestion)
	}
	// Switch failure: CG x PT set.
	if !res.SwitchFailure.Cells["CG"]["PT"] {
		t.Errorf("switch-failure matrix missing CG x PT:\n%s", res.SwitchFailure)
	}
	if out := res.String(); !strings.Contains(out, "FIGURE 2b") {
		t.Error("render missing impact table")
	}
}

func TestDeploymentModesAblation(t *testing.T) {
	res, err := DeploymentModes(10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Exact rows pin the flow table's matching semantics: a reactive
	// microflow entry covers one 5-tuple, a wildcard entry one host pair,
	// and proactive rules leave no control traffic at all.
	want := []DeploymentModeRow{
		{Mode: controller.ModeReactive, PacketIns: 8400, FlowMods: 8400, Removed: 7599, DistinctFlows: 3123},
		{Mode: controller.ModeWildcard, PacketIns: 26, FlowMods: 26, Removed: 0, DistinctFlows: 10},
		{Mode: controller.ModeProactive},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %+v, want %+v", res.Rows, want)
	}
}

func TestClosedPruningAblation(t *testing.T) {
	res, err := ClosedPruning(11, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.StatesPruned > row.StatesUnpruned {
			t.Errorf("%s: pruning increased states %d > %d", row.Task, row.StatesPruned, row.StatesUnpruned)
		}
	}
}

func TestStabilityFilterAblation(t *testing.T) {
	res, err := StabilityFilter(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlarmsWithFilter > res.AlarmsWithoutFilter {
		t.Errorf("filter increased alarms: %d > %d", res.AlarmsWithFilter, res.AlarmsWithoutFilter)
	}
}

func TestPCEpochAblation(t *testing.T) {
	res, err := PCEpoch(13, []time.Duration{2 * time.Second, 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PC) != 2 {
		t.Fatalf("got %d epochs", len(res.PC))
	}
}

func TestControllerScalingReducesCRT(t *testing.T) {
	res, err := ControllerScaling(31, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CRTMean) != 2 {
		t.Fatalf("got %d rows", len(res.CRTMean))
	}
	if res.CRTMean[1] >= res.CRTMean[0] {
		t.Errorf("4 controllers should beat 1 under load: %v vs %v", res.CRTMean[1], res.CRTMean[0])
	}
}

func TestHybridGranularity(t *testing.T) {
	res, err := Hybrid(32)
	if err != nil {
		t.Fatal(err)
	}
	if res.HybridPacketIns >= res.FullPacketIns {
		t.Errorf("hybrid deployment should reduce control traffic: %d vs %d",
			res.HybridPacketIns, res.FullPacketIns)
	}
	if res.HybridISLPairs >= res.FullISLPairs {
		t.Errorf("hybrid deployment should see fewer ISL pairs: %d vs %d",
			res.HybridISLPairs, res.FullISLPairs)
	}
	if !res.FullPinpointsLink {
		t.Errorf("full deployment should pinpoint the congested tor01 uplink: %v", res.FullISLImplicated)
	}
	for _, hit := range res.HybridISLImplicated {
		if strings.Contains(hit, "tor01") {
			t.Errorf("hybrid deployment should NOT see the ToR link in ISL: %v", res.HybridISLImplicated)
		}
	}
	// The hybrid deployment still detects the problem at application
	// level: the delay distribution at the rack-1 web server shifts.
	found := false
	for _, n := range res.HybridDDShift {
		if n == "h01-01" {
			found = true
		}
	}
	if !found {
		t.Errorf("hybrid deployment should localize via DD at h01-01: %v", res.HybridDDShift)
	}
}

func TestTimeoutSweepTradeoff(t *testing.T) {
	res, err := TimeoutSweep(40, []time.Duration{time.Second, 30 * time.Second}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	short, long := res.Rows[0], res.Rows[1]
	if short.PacketIns <= long.PacketIns {
		t.Errorf("short idle timeout should produce more PacketIns: %d vs %d",
			short.PacketIns, long.PacketIns)
	}
	if short.MeanEntryLife >= long.MeanEntryLife {
		t.Errorf("short idle timeout should produce shorter entry lives: %v vs %v",
			short.MeanEntryLife, long.MeanEntryLife)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf strings.Builder
	series := []Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
	}
	if err := WriteSeriesCSV(&buf, "x", series); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"x,a,b", "1,10,30", "2,20,40"} {
		if !strings.Contains(got, want) {
			t.Errorf("csv missing %q:\n%s", want, got)
		}
	}
}

func TestWriteSeriesCSVUnevenLengths(t *testing.T) {
	var buf strings.Builder
	series := []Series{
		{Label: "long", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
		{Label: "short", X: []float64{1}, Y: []float64{9}},
	}
	if err := WriteSeriesCSV(&buf, "x", series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3,3,") {
		t.Errorf("short series not padded:\n%s", buf.String())
	}
}
