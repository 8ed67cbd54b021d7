package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"flowdiff/internal/core/taskmine"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

// Table3VM describes one test VM of the EC2 experiment.
type Table3VM struct {
	Name    string
	Flavor  workload.OSFlavor
	Variant int
	Node    topology.NodeID
	// Restarts is how many test restarts of this VM are matched (the
	// paper used 20/20/5/20).
	Restarts int
}

// Table3Row is one VM's accuracy numbers.
type Table3Row struct {
	VM Table3VM
	// TPUnmasked / TPMasked: own restarts matched by the own automaton.
	TPUnmasked, TPMasked int
	// FPMasked: foreign restarts matched by this VM's masked automaton.
	FPMasked int
	// ForeignRuns is the denominator of FPMasked.
	ForeignRuns int
}

// Table3Result reproduces Table III (task-signature matching accuracy).
type Table3Result struct {
	Rows     []Table3Row
	Training int
}

// DefaultTable3VMs mirrors the paper's four EC2 instances: three Amazon
// AMI VMs (same base OS, different instance personalities) and one
// Ubuntu VM.
func DefaultTable3VMs() []Table3VM {
	return []Table3VM{
		{Name: "i-3486634d (AMI)", Flavor: workload.FlavorAMI, Variant: 0, Node: "V1", Restarts: 20},
		{Name: "i-5d021f3b (AMI)", Flavor: workload.FlavorAMI, Variant: 1, Node: "V2", Restarts: 20},
		{Name: "i-c5ebf1a3 (Ubuntu)", Flavor: workload.FlavorUbuntu, Variant: 0, Node: "V3", Restarts: 5},
		{Name: "i-d55066b3 (AMI)", Flavor: workload.FlavorAMI, Variant: 2, Node: "V4", Restarts: 20},
	}
}

// Table3 trains per-VM startup automata (masked and unmasked) from
// `training` captured startup runs and measures true/false positives
// across `restarts` test startups per VM.
func Table3(seed int64, training int) (*Table3Result, error) {
	if training <= 0 {
		training = 50
	}
	topo, err := topology.Lab()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	vms := DefaultTable3VMs()
	rng := rand.New(rand.NewSource(seed))

	// Service nodes stay literal under masking, as NFS does in Figure 4.
	maskedCfg := taskmine.Config{MaskIPs: true, KeepAddrs: serviceAddrs(topo)}
	unmaskedCfg := taskmine.Config{}

	script := func(vm Table3VM) workload.TaskScript {
		return workload.VMStartupVariant(vm.Node, vm.Flavor, vm.Variant, "DHCP", "DNS", "NTP", "NFS")
	}

	generate := func(vm Table3VM) (workload.TaskRun, error) {
		return workload.GenerateTaskRun(topo, 0, script(vm), rng)
	}

	// Train both automata per VM.
	type automata struct {
		masked, unmasked *taskmine.Automaton
	}
	auts := make([]automata, len(vms))
	for i, vm := range vms {
		var maskedRuns, unmaskedRuns [][]taskmine.Template
		for r := 0; r < training; r++ {
			run, err := generate(vm)
			if err != nil {
				return nil, err
			}
			maskedRuns = append(maskedRuns, taskmine.Normalize(run.Flows, maskedCfg))
			unmaskedRuns = append(unmaskedRuns, taskmine.Normalize(run.Flows, unmaskedCfg))
		}
		m, err := taskmine.Mine(context.Background(), vm.Name+"/masked", maskedRuns, maskedCfg, taskmine.MineOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: mining %s masked: %w", vm.Name, err)
		}
		u, err := taskmine.Mine(context.Background(), vm.Name+"/unmasked", unmaskedRuns, unmaskedCfg, taskmine.MineOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: mining %s unmasked: %w", vm.Name, err)
		}
		auts[i] = automata{masked: m, unmasked: u}
	}

	// Generate test restarts per VM.
	tests := make([][]workload.TaskRun, len(vms))
	for i, vm := range vms {
		for r := 0; r < vm.Restarts; r++ {
			run, err := generate(vm)
			if err != nil {
				return nil, err
			}
			tests[i] = append(tests[i], run)
		}
	}

	matches := func(a *taskmine.Automaton, run workload.TaskRun) bool {
		flows := make([]taskmine.TimedFlow, len(run.Flows))
		for j := range run.Flows {
			flows[j] = taskmine.TimedFlow{Key: run.Flows[j], At: run.Times[j]}
		}
		return len(taskmine.Detect(a, flows)) > 0
	}

	res := &Table3Result{Training: training}
	for i, vm := range vms {
		row := Table3Row{VM: vm}
		for _, run := range tests[i] {
			if matches(auts[i].unmasked, run) {
				row.TPUnmasked++
			}
			if matches(auts[i].masked, run) {
				row.TPMasked++
			}
		}
		for j := range vms {
			if j == i {
				continue
			}
			for _, run := range tests[j] {
				row.ForeignRuns++
				if matches(auts[i].masked, run) {
					row.FPMasked++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func serviceAddrs(topo *topology.Topology) map[netip.Addr]bool {
	out := make(map[netip.Addr]bool)
	for _, id := range topology.ServiceNodes {
		if n, ok := topo.Node(id); ok {
			out[n.Addr] = true
		}
	}
	return out
}

// String renders Table III.
func (r *Table3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TABLE III: Accuracy of task signature matching (%d training runs)\n", r.Training)
	fmt.Fprintf(&sb, "%-3s %-22s %-16s %-14s %-10s\n", "ID", "AMI name", "TP (not masked)", "TP (masked)", "FP (masked)")
	for i, row := range r.Rows {
		fmt.Fprintf(&sb, "%-3d %-22s %8d/%-8d %6d/%-8d %4d/%-6d\n",
			i+1, row.VM.Name,
			row.TPUnmasked, row.VM.Restarts,
			row.TPMasked, row.VM.Restarts,
			row.FPMasked, row.ForeignRuns)
	}
	return sb.String()
}
