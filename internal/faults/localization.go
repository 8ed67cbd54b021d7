package faults

// This file holds the localization faults and scenarios: silent fabric
// degradations the evidence-voting suspect ranker (diagnose.RankSuspectsContext)
// is built to pinpoint. Unlike the hard failures of Table I, none of
// these emit PORT_STATUS or topology changes — the only symptom is byte
// inflation (retransmissions) on the flows crossing the faulty
// component, exactly the gray-failure regime 007 targets.

import (
	"fmt"
	"time"

	"flowdiff/internal/simnet"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

// AggSwitchDrop emulates correlated drops at a shared switch: every
// link incident to the switch degrades at once (a failing linecard or
// overrun shared buffer), so all traffic through the switch inflates
// regardless of which port it uses.
type AggSwitchDrop struct {
	Switch topology.NodeID
	Prob   float64 // default 0.01
}

// Name implements Injector.
func (f AggSwitchDrop) Name() string { return "correlated drops at switch" }

// Apply implements Injector.
func (f AggSwitchDrop) Apply(n *simnet.Network, _ []*workload.App) error {
	p := f.Prob
	if p == 0 {
		p = 0.01
	}
	node, ok := n.Topo.Node(f.Switch)
	if !ok || node.Kind != topology.KindSwitch {
		return fmt.Errorf("faults: unknown switch %s", f.Switch)
	}
	links := n.Topo.LinksAt(f.Switch)
	if len(links) == 0 {
		return fmt.Errorf("faults: switch %s has no links", f.Switch)
	}
	for _, l := range links {
		l.LossProb = p
	}
	return nil
}

// IncastCollapse emulates congestion collapse on an aggregator's access
// link: synchronized many-to-one bursts overrun the last-hop buffer, so
// every flow toward (or from) the aggregator sees drops. Only the
// access link degrades — the rest of the fabric is healthy.
type IncastCollapse struct {
	Aggregator topology.NodeID
	Prob       float64 // default 0.01
}

// Name implements Injector.
func (f IncastCollapse) Name() string { return "incast collapse at aggregator" }

// Apply implements Injector.
func (f IncastCollapse) Apply(n *simnet.Network, _ []*workload.App) error {
	p := f.Prob
	if p == 0 {
		p = 0.01
	}
	node, ok := n.Topo.Node(f.Aggregator)
	if !ok || node.Kind != topology.KindHost {
		return fmt.Errorf("faults: unknown aggregator host %s", f.Aggregator)
	}
	links := n.Topo.LinksAt(f.Aggregator)
	if len(links) != 1 {
		return fmt.Errorf("faults: aggregator %s has %d links, want exactly 1 access link", f.Aggregator, len(links))
	}
	links[0].LossProb = p
	return nil
}

// LocalizationScenario pairs a fabric fault with the workload that
// exercises it and the ground-truth component id the suspect ranker
// should name first.
type LocalizationScenario struct {
	Name string
	// Truth is the faulty component's id: a switch node id or a
	// topology.LinkID.
	Truth string
	// Faults are injected at the start of the problem interval.
	Faults []Injector
	// Specs are multi-tier chain workloads running in both intervals.
	Specs []workload.Spec
	// Incast are synchronized burst workloads running in both intervals.
	Incast []workload.IncastSpec
}

// localizationLoss is the loss probability used by the scenarios. The
// chain workloads send constant-size requests, so the baseline byte
// variance is zero and the FS differ falls back to its relative slack
// floor (a few percent of the mean); 12% loss inflates bytes well past
// it on every crossing flow without drowning the simulation in
// retransmissions.
const localizationLoss = 0.12

// dualChains builds two three-tier chains mirrored around the core so
// the affected path sets of the scenarios overlap only at the faulty
// component:
//
//	A: S21 (sw6) -> web S1,S2 (sw2) -> app S6,S7 (sw3) -> db S11 (sw4)
//	B: S22 (sw6) -> web S16,S17 (sw5) -> app S12,S13 (sw4) -> db S8 (sw3)
//
// Chain A descends through sw3 into sw4; chain B descends through sw5
// into sw4 and back out to sw3 — so a fault on one core link, at the
// core switch, or on one access link each produce a distinct impacted
// flow set.
func dualChains() []workload.Spec {
	ia := 200 * time.Millisecond
	a := workload.Spec{
		Name:         "chain-a",
		Client:       "S21",
		Interarrival: ia,
		Tiers: []workload.Tier{
			{Hosts: []topology.NodeID{"S1", "S2"}, Port: workload.PortWeb, Processing: workload.WebProcessing},
			{Hosts: []topology.NodeID{"S6", "S7"}, Port: workload.PortApp, Processing: workload.AppProcessing},
			{Hosts: []topology.NodeID{"S11"}, Port: workload.PortDB, Processing: workload.DBProcessing},
		},
	}
	b := workload.Spec{
		Name:         "chain-b",
		Client:       "S22",
		Interarrival: ia,
		Tiers: []workload.Tier{
			{Hosts: []topology.NodeID{"S16", "S17"}, Port: workload.PortWeb, Processing: workload.WebProcessing},
			{Hosts: []topology.NodeID{"S12", "S13"}, Port: workload.PortApp, Processing: workload.AppProcessing},
			{Hosts: []topology.NodeID{"S8"}, Port: workload.PortDB, Processing: workload.DBProcessing},
		},
	}
	return []workload.Spec{a, b}
}

// LocalizationScenarios returns the three evaluation scenarios of the
// suspect ranker, in fixed order:
//
//  1. equal-cost-link-drop — silent partial drop on the core link
//     sw1-sw4, one among the six equal-cost core links.
//  2. agg-switch-drop — correlated drops on every port of the shared
//     core switch sw1.
//  3. incast-collapse — synchronized many-to-one bursts overrun
//     aggregator S12's access link.
//
// The count-based RankComponents baseline sees only the endpoints of
// the changed flows, which never include a switch or link — evidence
// voting is what turns those endpoint pairs into a fabric location.
func LocalizationScenarios() []LocalizationScenario {
	chains := dualChains()
	return []LocalizationScenario{
		{
			Name:   "equal-cost-link-drop",
			Truth:  topology.LinkID("sw1", "sw4"),
			Faults: []Injector{LinkLoss{A: "sw1", B: "sw4", Prob: localizationLoss}},
			Specs:  chains,
		},
		{
			Name:   "agg-switch-drop",
			Truth:  "sw1",
			Faults: []Injector{AggSwitchDrop{Switch: "sw1", Prob: localizationLoss}},
			Specs:  chains,
		},
		{
			Name:   "incast-collapse",
			Truth:  topology.LinkID("S12", "sw4"),
			Faults: []Injector{IncastCollapse{Aggregator: "S12", Prob: localizationLoss}},
			Specs:  chains,
			Incast: []workload.IncastSpec{{
				// Senders mix rack-local hosts (S11, S14: short paths
				// that pin the evidence onto the access link rather
				// than the shared core link) with remote ones.
				Name:       "shuffle",
				Senders:    []topology.NodeID{"S1", "S6", "S11", "S14", "S16", "S21"},
				Aggregator: "S12",
				Period:     500 * time.Millisecond,
			}},
		},
	}
}
