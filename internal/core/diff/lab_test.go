package diff

import (
	"context"
	"reflect"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/faults"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/simnet"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

// labCaptures runs the lab's Table II case-5 deployment for three
// minutes (L1), injects f, and runs three more (L2).
func labCaptures(t *testing.T, seed int64, f faults.Injector) (l1, l2 *flowlog.Log, topo *topology.Topology) {
	t.Helper()
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	n, err := simnet.NewNetwork(topo, simnet.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := workload.CaseSpecs(5)
	if err != nil {
		t.Fatal(err)
	}
	var apps []*workload.App
	for i, spec := range specs {
		app, err := workload.Attach(n, spec, seed+int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		app.Run(0, 6*time.Minute)
		apps = append(apps, app)
	}
	n.Eng.Run(3 * time.Minute)
	l1 = n.Log()
	n.ResetLog()
	if err := f.Apply(n, apps); err != nil {
		t.Fatal(err)
	}
	n.Eng.Run(6 * time.Minute)
	return l1, n.Log(), topo
}

// labSignatures models a capture as a reference build does: app and
// infra signatures, and the stability product.
func labSignatures(t *testing.T, log *flowlog.Log, topo *topology.Topology) ([]signature.AppSignature, signature.InfraSignature, map[string]signature.Stability) {
	t.Helper()
	special := make(map[topology.NodeID]bool)
	for _, id := range topology.ServiceNodes {
		special[id] = true
	}
	var scfg signature.StabilityConfig
	p, err := signature.NewPipelineFromSourceContext(context.Background(), signature.LogSource(log),
		appgroup.NewResolver(topo), signature.Config{Special: special}, scfg.IntervalCount())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	apps := p.App()
	stab, err := p.Stability(scfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	return apps, p.Infra(), stab
}

// TestCompareMatchesReferenceOnLabFaults holds Compare on a prepared
// baseline to the oracle on the lab's fault scenarios (the faults
// cmd/dcsim injects), with the baseline's stability map and without it,
// and checks the self-diff relation on each baseline: compared against
// itself, a baseline changes nothing.
func TestCompareMatchesReferenceOnLabFaults(t *testing.T) {
	scenarios := []faults.Injector{
		faults.EnableLogging{Host: "S3"},
		faults.PathLoss{From: "S1", To: "S3", Prob: 0.05},
		faults.CPUHog{Host: "S3"},
		faults.AppCrash{Host: "S3"},
		faults.HostShutdown{Host: "S3"},
		faults.FirewallBlock{Host: "S8", Port: workload.PortDB},
		faults.BackgroundTraffic{From: "S24", To: "S4", QueueDelay: 25 * time.Millisecond},
		faults.SwitchFailure{Switch: "sw2"},
		faults.ControllerOverload{},
		faults.UnauthorizedAccess{Attacker: "S24", Victim: "S8", Port: workload.PortDB},
	}
	ctx := context.Background()
	changed := 0
	for i, f := range scenarios {
		t.Run(f.Name(), func(t *testing.T) {
			l1, l2, topo := labCaptures(t, int64(401+i), f)
			base, baseInf, baseStab := labSignatures(t, l1, topo)
			cur, curInf, _ := labSignatures(t, l2, topo)
			for _, stab := range []map[string]signature.Stability{baseStab, nil} {
				b := Prepare(base, baseInf, stab)
				got := Compare(ctx, b, cur, curInf, Thresholds{})
				want := compareReference(base, cur, baseInf, curInf, stab, Thresholds{})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("stability %v: Compare\n%+v\nreference\n%+v", stab != nil, got, want)
				}
				if len(got) > 0 {
					changed++
				}
				if self := Compare(ctx, b, base, baseInf, Thresholds{}); len(self) != 0 {
					t.Errorf("stability %v: self-diff raised %+v", stab != nil, self)
				}
			}
		})
	}
	if changed < len(scenarios) {
		t.Errorf("only %d of %d comparisons raised a change: the oracle is barely exercised", changed, 2*len(scenarios))
	}
}
