package diff

import (
	"context"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/stats"
	"flowdiff/internal/topology"
)

func edge(a, b string) signature.Edge {
	return signature.Edge{Src: topology.NodeID(a), Dst: topology.NodeID(b)}
}

// sigWith builds a minimal app signature over A->B->C.
func sigWith() signature.AppSignature {
	s := signature.AppSignature{
		Group: appgroup.Group{
			Nodes: []topology.NodeID{"A", "B", "C"},
			Edges: []signature.Edge{edge("A", "B"), edge("B", "C")},
		},
		LogDuration: time.Minute,
		CG:          map[signature.Edge]bool{edge("A", "B"): true, edge("B", "C"): true},
		FS: map[signature.Edge]signature.FlowStats{
			edge("A", "B"): {FlowCount: 60, Bytes: stats.Summarize(repeat(2048, 60))},
			edge("B", "C"): {FlowCount: 60, Bytes: stats.Summarize(repeat(4096, 60))},
		},
		CI: map[topology.NodeID]signature.CISig{
			"B": {
				Edges:     []signature.Edge{edge("A", "B"), edge("B", "C")},
				Counts:    []float64{60, 60},
				Fractions: []float64{0.5, 0.5},
			},
		},
		DD: map[signature.EdgePair]signature.DDSig{},
		PC: map[signature.EdgePair]float64{},
	}
	pair := signature.EdgePair{In: edge("A", "B"), Out: edge("B", "C")}
	h, _ := stats.NewHistogram(0, float64(20*time.Millisecond))
	for i := 0; i < 50; i++ {
		h.Add(float64(60 * time.Millisecond))
	}
	peak, _ := h.DominantPeak()
	s.DD[pair] = signature.DDSig{Histogram: h, Peak: peak, Samples: 50}
	s.PC[pair] = 0.9
	return s
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func compareOne(t *testing.T, mutate func(*signature.AppSignature)) []Change {
	t.Helper()
	base := sigWith()
	cur := sigWith()
	if mutate != nil {
		mutate(&cur)
	}
	var inf signature.InfraSignature
	return Compare(
		context.Background(),
		Prepare([]signature.AppSignature{base}, inf, nil),
		[]signature.AppSignature{cur}, inf, Thresholds{},
	)
}

func TestIdenticalSignaturesNoChanges(t *testing.T) {
	if changes := compareOne(t, nil); len(changes) != 0 {
		t.Errorf("identical signatures produced changes: %+v", changes)
	}
}

func TestCGEdgeRemoved(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		delete(s.CG, edge("B", "C"))
	})
	found := false
	for _, c := range changes {
		if c.Kind == signature.KindCG && strings.Contains(c.Description, "missing") {
			found = true
			if c.Components[0] != "B" || c.Components[1] != "C" {
				t.Errorf("components = %v", c.Components)
			}
		}
	}
	if !found {
		t.Errorf("missing-edge change not reported: %+v", changes)
	}
}

func TestCGEdgeAddedCarriesTimestamp(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		e := edge("B", "D")
		s.CG[e] = true
		s.FS[e] = signature.FlowStats{FlowCount: 5, FirstSeen: 42 * time.Second}
	})
	found := false
	for _, c := range changes {
		if c.Kind == signature.KindCG && strings.Contains(c.Description, "new edge") {
			found = true
			if c.At != 42*time.Second {
				t.Errorf("At = %v, want 42s", c.At)
			}
		}
	}
	if !found {
		t.Error("new-edge change not reported")
	}
}

func TestCIShiftDetected(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		ci := s.CI["B"]
		ci.Counts = []float64{114, 6}
		ci.Fractions = []float64{0.95, 0.05}
		s.CI["B"] = ci
	})
	found := false
	for _, c := range changes {
		if c.Kind == signature.KindCI && c.Components[0] == "B" {
			found = true
		}
	}
	if !found {
		t.Errorf("CI shift not reported: %+v", changes)
	}
}

func TestDDPeakShiftDetected(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		pair := signature.EdgePair{In: edge("A", "B"), Out: edge("B", "C")}
		h, _ := stats.NewHistogram(0, float64(20*time.Millisecond))
		for i := 0; i < 50; i++ {
			h.Add(float64(120 * time.Millisecond)) // moved 3 bins
		}
		peak, _ := h.DominantPeak()
		s.DD[pair] = signature.DDSig{Histogram: h, Peak: peak, Samples: 50}
	})
	found := false
	for _, c := range changes {
		if c.Kind == signature.KindDD {
			found = true
			if c.Components[0] != "B" {
				t.Errorf("DD change should implicate the shared node B, got %v", c.Components)
			}
		}
	}
	if !found {
		t.Errorf("DD shift not reported: %+v", changes)
	}
}

func TestDDSmallShiftIgnored(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		pair := signature.EdgePair{In: edge("A", "B"), Out: edge("B", "C")}
		h, _ := stats.NewHistogram(0, float64(20*time.Millisecond))
		for i := 0; i < 50; i++ {
			h.Add(float64(75 * time.Millisecond)) // one bin over: within slack
		}
		peak, _ := h.DominantPeak()
		s.DD[pair] = signature.DDSig{Histogram: h, Peak: peak, Samples: 50}
	})
	for _, c := range changes {
		if c.Kind == signature.KindDD {
			t.Errorf("one-bin DD shift should be tolerated: %+v", c)
		}
	}
}

func TestPCShiftDetected(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		pair := signature.EdgePair{In: edge("A", "B"), Out: edge("B", "C")}
		s.PC[pair] = 0.1
	})
	found := false
	for _, c := range changes {
		if c.Kind == signature.KindPC {
			found = true
		}
	}
	if !found {
		t.Errorf("PC shift not reported: %+v", changes)
	}
}

func TestFSByteShiftDetected(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		fs := s.FS[edge("A", "B")]
		fs.Bytes = stats.Summarize(repeat(2048*1.2, 60)) // +20%
		s.FS[edge("A", "B")] = fs
	})
	found := false
	for _, c := range changes {
		if c.Kind == signature.KindFS && strings.Contains(c.Description, "bytes") {
			found = true
		}
	}
	if !found {
		t.Errorf("FS byte shift not reported: %+v", changes)
	}
}

func TestFSRateShiftDetected(t *testing.T) {
	changes := compareOne(t, func(s *signature.AppSignature) {
		fs := s.FS[edge("A", "B")]
		fs.FlowCount = 10 // 60 -> 10 flows in the same duration
		s.FS[edge("A", "B")] = fs
	})
	found := false
	for _, c := range changes {
		if c.Kind == signature.KindFS && strings.Contains(c.Description, "rate") {
			found = true
		}
	}
	if !found {
		t.Errorf("FS rate shift not reported: %+v", changes)
	}
}

func TestStabilityFilterSuppressesUnstableComponents(t *testing.T) {
	base := sigWith()
	cur := sigWith()
	ci := cur.CI["B"]
	ci.Counts = []float64{114, 6}
	ci.Fractions = []float64{0.95, 0.05}
	cur.CI["B"] = ci
	stab := map[string]signature.Stability{
		base.Group.Key(): {
			CGStable: true,
			CINodes:  map[topology.NodeID]bool{"B": false}, // CI at B unstable
			DDPairs:  map[signature.EdgePair]bool{},
			PCPairs:  map[signature.EdgePair]bool{},
		},
	}
	var inf signature.InfraSignature
	changes := Compare(context.Background(), Prepare([]signature.AppSignature{base}, inf, stab), []signature.AppSignature{cur}, inf, Thresholds{})
	for _, c := range changes {
		if c.Kind == signature.KindCI {
			t.Errorf("unstable CI should not raise alarms: %+v", c)
		}
	}
}

func TestGroupDisappeared(t *testing.T) {
	base := sigWith()
	var inf signature.InfraSignature
	changes := Compare(context.Background(), Prepare([]signature.AppSignature{base}, inf, nil), nil, inf, Thresholds{})
	if len(changes) == 0 {
		t.Fatal("vanished group not reported")
	}
	if changes[0].Kind != signature.KindCG {
		t.Errorf("kind = %v", changes[0].Kind)
	}
}

func TestNewGroupReported(t *testing.T) {
	cur := sigWith()
	var inf signature.InfraSignature
	changes := Compare(context.Background(), Prepare(nil, inf, nil), []signature.AppSignature{cur}, inf, Thresholds{})
	if len(changes) != 2 { // two edges of the new group
		t.Fatalf("got %d changes, want 2: %+v", len(changes), changes)
	}
	for _, c := range changes {
		if !strings.Contains(c.Description, "new group") {
			t.Errorf("description = %q", c.Description)
		}
	}
}

func TestInfraISLAndCRT(t *testing.T) {
	mkInf := func(islMean, crtMean float64) signature.InfraSignature {
		return signature.InfraSignature{
			SwitchAdj:       map[signature.SwitchPair]int{{From: "sw1", To: "sw2"}: 10},
			HostAttach:      map[string]string{"A": "sw1"},
			HostAttachCount: map[string]int{"A": 40},
			ISL: map[signature.SwitchPair]stats.Summary{
				{From: "sw1", To: "sw2"}: {Count: 50, Mean: islMean, StdDev: islMean * 0.02},
			},
			CRT: stats.Summary{Count: 50, Mean: crtMean, StdDev: crtMean * 0.05},
		}
	}
	base := mkInf(float64(2*time.Millisecond), float64(200*time.Microsecond))

	t.Run("no change", func(t *testing.T) {
		if cs := Compare(context.Background(), Prepare(nil, base, nil), nil, mkInf(float64(2*time.Millisecond), float64(200*time.Microsecond)), Thresholds{}); len(cs) != 0 {
			t.Errorf("identical infra produced %+v", cs)
		}
	})
	t.Run("ISL shift", func(t *testing.T) {
		cs := Compare(context.Background(), Prepare(nil, base, nil), nil, mkInf(float64(10*time.Millisecond), float64(200*time.Microsecond)), Thresholds{})
		found := false
		for _, c := range cs {
			if c.Kind == signature.KindISL {
				found = true
			}
		}
		if !found {
			t.Errorf("ISL shift not reported: %+v", cs)
		}
	})
	t.Run("CRT shift", func(t *testing.T) {
		cs := Compare(context.Background(), Prepare(nil, base, nil), nil, mkInf(float64(2*time.Millisecond), float64(5*time.Millisecond)), Thresholds{})
		found := false
		for _, c := range cs {
			if c.Kind == signature.KindCRT {
				found = true
			}
		}
		if !found {
			t.Errorf("CRT shift not reported: %+v", cs)
		}
	})
	t.Run("adjacency diff", func(t *testing.T) {
		cur := mkInf(float64(2*time.Millisecond), float64(200*time.Microsecond))
		delete(cur.SwitchAdj, signature.SwitchPair{From: "sw1", To: "sw2"})
		cur.SwitchAdj[signature.SwitchPair{From: "sw1", To: "sw3"}] = 5
		cs := Compare(context.Background(), Prepare(nil, base, nil), nil, cur, Thresholds{})
		var missing, added bool
		for _, c := range cs {
			if c.Kind == signature.KindPT {
				if strings.Contains(c.Description, "missing") {
					missing = true
				}
				if strings.Contains(c.Description, "new") {
					added = true
				}
			}
		}
		if !missing || !added {
			t.Errorf("PT diff incomplete: %+v", cs)
		}
	})
	t.Run("host moved", func(t *testing.T) {
		cur := mkInf(float64(2*time.Millisecond), float64(200*time.Microsecond))
		cur.HostAttach["A"] = "sw2"
		cs := Compare(context.Background(), Prepare(nil, base, nil), nil, cur, Thresholds{})
		found := false
		for _, c := range cs {
			if c.Kind == signature.KindPT && strings.Contains(c.Description, "moved") {
				found = true
			}
		}
		if !found {
			t.Errorf("host move not reported: %+v", cs)
		}
	})
}

func TestChangesDeterministicOrder(t *testing.T) {
	mutate := func(s *signature.AppSignature) {
		delete(s.CG, edge("B", "C"))
		e := edge("B", "D")
		s.CG[e] = true
		s.FS[e] = signature.FlowStats{FlowCount: 5}
		ci := s.CI["B"]
		ci.Fractions = []float64{0.95, 0.05}
		s.CI["B"] = ci
	}
	a := compareOne(t, mutate)
	b := compareOne(t, mutate)
	if len(a) != len(b) {
		t.Fatal("nondeterministic change count")
	}
	for i := range a {
		if a[i].Description != b[i].Description {
			t.Fatal("nondeterministic change order")
		}
	}
}
