package signature

import (
	"sort"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/simnet"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

// simCase runs Table II case 5 (custom three-tier apps) and returns its
// control log plus resolver.
func simCase5(t *testing.T, p workload.Case5Params, seed int64, dur time.Duration) (*flowlog.Log, *appgroup.Resolver, *simnet.Network) {
	t.Helper()
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	n, err := simnet.NewNetwork(topo, simnet.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration == 0 {
		p.Duration = dur
	}
	for i, spec := range workload.Case5Specs(p) {
		app, err := workload.Attach(n, spec, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		app.Run(0, dur)
	}
	n.Eng.Run(dur + 5*time.Second)
	return n.Log(), appgroup.NewResolver(topo), n
}

func defaultSpecial() map[topology.NodeID]bool {
	s := make(map[topology.NodeID]bool)
	for _, id := range topology.ServiceNodes {
		s[id] = true
	}
	return s
}

func findGroup(t *testing.T, sigs []AppSignature, member topology.NodeID) AppSignature {
	t.Helper()
	for _, s := range sigs {
		if s.Group.Contains(member) {
			return s
		}
	}
	t.Fatalf("no group containing %s", member)
	return AppSignature{}
}

// model builds a log's pipeline from one in-memory batch: a current
// build at 0 intervals, a reference build otherwise.
func model(t *testing.T, log *flowlog.Log, r *appgroup.Resolver, cfg Config, intervals int) *Pipeline {
	t.Helper()
	p, err := NewPipelineFromSourceContext(bg, LogSource(log), r, cfg, intervals)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOccurrencesSplitEpisodes(t *testing.T) {
	l := flowlog.New(0, time.Minute)
	key := flowlog.FlowKey{Proto: 6, SrcPort: 1, DstPort: 2}
	for _, ts := range []time.Duration{
		0, 2 * time.Millisecond, // episode 1 (PI, FM)
		10 * time.Second, 10*time.Second + 2*time.Millisecond, // episode 2
	} {
		typ := flowlog.EventPacketIn
		if ts == 2*time.Millisecond || ts == 10*time.Second+2*time.Millisecond {
			typ = flowlog.EventFlowMod
		}
		l.Append(flowlog.Event{Time: ts, Type: typ, Switch: "sw1", Flow: key})
	}
	occs := Occurrences(l, time.Second)
	if len(occs) != 2 {
		t.Fatalf("got %d occurrences, want 2", len(occs))
	}
	if occs[0].Start != 0 || occs[1].Start != 10*time.Second {
		t.Errorf("starts = %v, %v", occs[0].Start, occs[1].Start)
	}
	if len(occs[0].Hops) != 2 {
		t.Errorf("episode 1 has %d events", len(occs[0].Hops))
	}
}

func TestOccurrencesOrderedDeterministically(t *testing.T) {
	l := flowlog.New(0, time.Minute)
	k1 := flowlog.FlowKey{Proto: 6, SrcPort: 1, DstPort: 2}
	k2 := flowlog.FlowKey{Proto: 6, SrcPort: 3, DstPort: 4}
	l.Append(flowlog.Event{Time: time.Second, Type: flowlog.EventPacketIn, Flow: k2})
	l.Append(flowlog.Event{Time: time.Second, Type: flowlog.EventPacketIn, Flow: k1})
	a := Occurrences(l, 0)
	b := Occurrences(l, 0)
	if len(a) != 2 || len(b) != 2 {
		t.Fatal("want 2 occurrences")
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("order not deterministic")
		}
	}
}

func TestBuildAppCG(t *testing.T) {
	log, r, _ := simCase5(t, workload.Case5Params{MeanA: 200, MeanB: 200}, 1, 2*time.Minute)
	sigs := model(t, log, r, Config{Special: defaultSpecial()}, 0).App()
	if len(sigs) < 2 {
		t.Fatalf("found %d groups, want >= 2", len(sigs))
	}
	// Group containing S3 must have the edges S22->S1->S3->S8 and
	// S21->S2->S3.
	g := findGroup(t, sigs, "S3")
	for _, e := range []Edge{
		{Src: "S22", Dst: "S1"}, {Src: "S1", Dst: "S3"},
		{Src: "S21", Dst: "S2"}, {Src: "S2", Dst: "S3"},
		{Src: "S3", Dst: "S8"},
	} {
		if !g.CG[e] {
			t.Errorf("missing CG edge %v", e)
		}
	}
}

func TestDDPeakRecoversProcessingTime(t *testing.T) {
	log, r, _ := simCase5(t, workload.Case5Params{MeanA: 400, MeanB: 400}, 2, 3*time.Minute)
	sigs := model(t, log, r, Config{Special: defaultSpecial()}, 0).App()
	g := findGroup(t, sigs, "S3")
	pair := EdgePair{In: Edge{Src: "S2", Dst: "S3"}, Out: Edge{Src: "S3", Dst: "S8"}}
	dd, ok := g.DD[pair]
	if !ok {
		t.Fatalf("no DD for %v; have %v", pair, keysOfDD(g.DD))
	}
	// Ground truth: 60 ms app processing. Peak must fall within the
	// paper's [40, 60] ms band (20 ms bins: bucket centers 50 or 70 are
	// acceptable, i.e. the 60 ms truth sits on the bucket boundary).
	peakMS := dd.Peak.Value / float64(time.Millisecond)
	if peakMS < 40 || peakMS > 80 {
		t.Errorf("DD peak at %.1f ms, want near 60 ms", peakMS)
	}
}

func keysOfDD(m map[EdgePair]DDSig) []EdgePair {
	var out []EdgePair
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.In != b.In {
			if a.In.Src != b.In.Src {
				return a.In.Src < b.In.Src
			}
			return a.In.Dst < b.In.Dst
		}
		if a.Out.Src != b.Out.Src {
			return a.Out.Src < b.Out.Src
		}
		return a.Out.Dst < b.Out.Dst
	})
	return out
}

func TestDDPeakPersistsAcrossWorkloadAndReuse(t *testing.T) {
	// Figure 10: the DD peak persists across workload distributions and
	// connection-reuse ratios.
	settings := []workload.Case5Params{
		{MeanA: 400, MeanB: 400, ReuseA: 0, ReuseB: 0},
		{MeanA: 400, MeanB: 100, ReuseA: 0, ReuseB: 0.2},
		{MeanA: 100, MeanB: 400, ReuseA: 0, ReuseB: 0.9},
		{MeanA: 100, MeanB: 400, ReuseA: 0.5, ReuseB: 0.5},
	}
	pair := EdgePair{In: Edge{Src: "S2", Dst: "S3"}, Out: Edge{Src: "S3", Dst: "S8"}}
	for i, p := range settings {
		log, r, _ := simCase5(t, p, int64(10+i), 3*time.Minute)
		sigs := model(t, log, r, Config{Special: defaultSpecial()}, 0).App()
		g := findGroup(t, sigs, "S3")
		dd, ok := g.DD[pair]
		if !ok {
			t.Errorf("setting %d: no DD observations", i)
			continue
		}
		peakMS := dd.Peak.Value / float64(time.Millisecond)
		if peakMS < 40 || peakMS > 80 {
			t.Errorf("setting %d: DD peak %.1f ms drifted from 60 ms truth", i, peakMS)
		}
	}
}

func TestPCHighForDependentEdges(t *testing.T) {
	log, r, _ := simCase5(t, workload.Case5Params{MeanA: 500, MeanB: 500}, 3, 3*time.Minute)
	sigs := model(t, log, r, Config{Special: defaultSpecial()}, 0).App()
	g := findGroup(t, sigs, "S3")
	pair := EdgePair{In: Edge{Src: "S1", Dst: "S3"}, Out: Edge{Src: "S3", Dst: "S8"}}
	pc, ok := g.PC[pair]
	if !ok {
		t.Fatal("no PC for dependent edges")
	}
	if pc < 0.3 {
		t.Errorf("PC between dependent edges = %.3f, want clearly positive", pc)
	}
}

func TestCIStableFractions(t *testing.T) {
	log, r, _ := simCase5(t, workload.Case5Params{MeanA: 400, MeanB: 400}, 4, 3*time.Minute)
	sigs := model(t, log, r, Config{Special: defaultSpecial()}, 0).App()
	g := findGroup(t, sigs, "S3")
	ci, ok := g.CI["S3"]
	if !ok {
		t.Fatal("no CI at S3")
	}
	var sum float64
	for _, f := range ci.Fractions {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("CI fractions sum to %v", sum)
	}
	// S3 has three adjacent edges: in from S1, in from S2, out to S8.
	if len(ci.Edges) != 3 {
		t.Errorf("CI edges at S3 = %v", ci.Edges)
	}
	// The out edge carries roughly the sum of the two ins (every request
	// triggers a db query; reuse is 0): its fraction should be ~0.5.
	for i, e := range ci.Edges {
		if e.Src == "S3" {
			if ci.Fractions[i] < 0.35 || ci.Fractions[i] > 0.6 {
				t.Errorf("out-edge fraction = %.3f, want ~0.5", ci.Fractions[i])
			}
		}
	}
}

func TestFSByteCounts(t *testing.T) {
	log, r, _ := simCase5(t, workload.Case5Params{MeanA: 300, MeanB: 300}, 5, 2*time.Minute)
	sigs := model(t, log, r, Config{Special: defaultSpecial()}, 0).App()
	g := findGroup(t, sigs, "S3")
	fs := g.FS[Edge{Src: "S1", Dst: "S3"}]
	if fs.FlowCount == 0 {
		t.Fatal("no flows on S1->S3")
	}
	if fs.Bytes.Count == 0 || fs.Bytes.Mean <= 0 {
		t.Errorf("FS bytes summary empty: %+v", fs.Bytes)
	}
	if len(fs.BytesSamples) != fs.Bytes.Count {
		t.Error("BytesSamples inconsistent with summary count")
	}
}

func TestInfraSignature(t *testing.T) {
	log, r, n := simCase5(t, workload.Case5Params{MeanA: 300, MeanB: 300}, 6, 2*time.Minute)
	inf := model(t, log, r, Config{}, 0).Infra()
	if len(inf.SwitchAdj) == 0 {
		t.Fatal("no switch adjacency inferred")
	}
	// Host attachment: S1 hangs off sw2 in the lab topology.
	if sw := inf.HostAttach["S1"]; sw != "sw2" {
		t.Errorf("S1 attach = %q, want sw2", sw)
	}
	if inf.CRT.Count == 0 {
		t.Fatal("no controller response time samples")
	}
	// CRT must be at least the configured service time and not wildly
	// more under light load.
	svc := float64(n.Config().ControllerService)
	if inf.CRT.Mean < svc*0.5 || inf.CRT.Mean > svc*20 {
		t.Errorf("CRT mean = %v vs service %v", time.Duration(inf.CRT.Mean), time.Duration(svc))
	}
	if len(inf.ISL) == 0 {
		t.Fatal("no ISL samples")
	}
	if inf.MeanISL() <= 0 {
		t.Error("mean ISL should be positive")
	}
	// Adjacency must reflect real links: every inferred pair must be a
	// real link in the lab topology.
	for p := range inf.SwitchAdj {
		if _, ok := n.Topo.LinkBetween(topology.NodeID(p.From), topology.NodeID(p.To)); !ok {
			t.Errorf("inferred adjacency %v is not a physical link", p)
		}
	}
}

func TestStabilityCleanRunIsStable(t *testing.T) {
	log, r, _ := simCase5(t, workload.Case5Params{MeanA: 500, MeanB: 500}, 7, 5*time.Minute)
	p := model(t, log, r, Config{Special: defaultSpecial()}, StabilityConfig{}.IntervalCount())
	sigs := p.App()
	st, err := p.Stability(StabilityConfig{}, sigs)
	if err != nil {
		t.Fatal(err)
	}
	g := findGroup(t, sigs, "S3")
	verdict, ok := st[g.Group.Key()]
	if !ok {
		t.Fatalf("no stability verdict for group %s", g.Group.Key())
	}
	if !verdict.CGStable {
		t.Error("CG should be stable on a clean run")
	}
	if !verdict.StableCI("S3") {
		t.Error("CI at S3 should be stable (round-robin logic)")
	}
	pair := EdgePair{In: Edge{Src: "S2", Dst: "S3"}, Out: Edge{Src: "S3", Dst: "S8"}}
	if stable, ok := verdict.DDPairs[pair]; !ok || !stable {
		t.Error("DD for the dependent pair should be stable")
	}
}

func TestStabilityUnstableCIDetected(t *testing.T) {
	// Case 5's app C balances S5 -> S11/S17 with a skewed policy; over
	// short intervals the fractions fluctuate. The paper notes CI can be
	// unstable under non-uniform balancing — verify the verdict mechanism
	// reacts to instability injected directly.
	full := []AppSignature{{
		Group: appgroup.Group{Nodes: []topology.NodeID{"A", "B", "C"}},
		CI: map[topology.NodeID]CISig{
			"B": {
				Edges:     []Edge{{Src: "A", Dst: "B"}, {Src: "B", Dst: "C"}},
				Counts:    []float64{50, 50},
				Fractions: []float64{0.5, 0.5},
			},
		},
		CG: map[Edge]bool{{Src: "A", Dst: "B"}: true, {Src: "B", Dst: "C"}: true},
	}}
	unstable := AppSignature{
		Group: full[0].Group,
		CI: map[topology.NodeID]CISig{
			"B": {
				Edges:     []Edge{{Src: "A", Dst: "B"}, {Src: "B", Dst: "C"}},
				Counts:    []float64{95, 5},
				Fractions: []float64{0.95, 0.05},
			},
		},
		CG: full[0].CG,
	}
	st := Stabilities(full, [][]AppSignature{{unstable}}, StabilityConfig{})
	if st[full[0].Group.Key()].StableCI("B") {
		t.Error("skewed interval CI should be flagged unstable")
	}
}
