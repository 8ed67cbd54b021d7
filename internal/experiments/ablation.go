package experiments

import (
	"context"

	"fmt"
	"math/rand"
	"strings"
	"time"

	"flowdiff"
	"flowdiff/internal/controller"
	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/core/taskmine"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/simnet"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

// DeploymentModesResult is the §VI ablation: the control-traffic volume
// and signature richness per rule-installation strategy.
type DeploymentModesResult struct {
	Rows []DeploymentModeRow
}

// DeploymentModeRow is one deployment mode's measurement.
type DeploymentModeRow struct {
	Mode      controller.Mode
	PacketIns int
	FlowMods  int
	Removed   int
	// DistinctFlows counts flows visible to FlowDiff (measurement
	// granularity).
	DistinctFlows int
}

// DeploymentModes runs the same case-5 workload under reactive, wildcard,
// and proactive deployments.
func DeploymentModes(seed int64, dur time.Duration) (*DeploymentModesResult, error) {
	if dur == 0 {
		dur = 2 * time.Minute
	}
	res := &DeploymentModesResult{}
	for _, mode := range []controller.Mode{controller.ModeReactive, controller.ModeWildcard, controller.ModeProactive} {
		topo, err := topology.Lab()
		if err != nil {
			return nil, err
		}
		net, err := simnet.NewNetwork(topo, simnet.Config{Seed: seed, Mode: mode})
		if err != nil {
			return nil, err
		}
		p := workload.Case5Params{MeanA: 300, MeanB: 300, Duration: dur}
		for i, spec := range workload.Case5Specs(p) {
			app, err := workload.Attach(net, spec, seed+int64(i))
			if err != nil {
				return nil, err
			}
			app.Run(0, dur)
		}
		net.Eng.Run(dur)
		log := net.Log()
		res.Rows = append(res.Rows, DeploymentModeRow{
			Mode:          mode,
			PacketIns:     len(log.ByType(flowlog.EventPacketIn).Events),
			FlowMods:      len(log.ByType(flowlog.EventFlowMod).Events),
			Removed:       len(log.ByType(flowlog.EventFlowRemoved).Events),
			DistinctFlows: len(log.Flows()),
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *DeploymentModesResult) String() string {
	var sb strings.Builder
	sb.WriteString("ABLATION (§VI): deployment modes vs control traffic\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %14s\n", "mode", "PacketIn", "FlowMod", "Removed", "distinctFlows")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %10d %10d %10d %14d\n",
			row.Mode, row.PacketIns, row.FlowMods, row.Removed, row.DistinctFlows)
	}
	return sb.String()
}

// PruningResult is the closed-pruning ablation: automaton sizes with and
// without closed-pattern pruning across the task scripts.
type PruningResult struct {
	Rows []PruningRow
}

// PruningRow is one task's state counts.
type PruningRow struct {
	Task           string
	StatesPruned   int
	StatesUnpruned int
}

// ClosedPruning mines each task script with and without closed pruning.
func ClosedPruning(seed int64, training int) (*PruningResult, error) {
	if training <= 0 {
		training = 30
	}
	topo, err := topology.Lab()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	scripts := []workload.TaskScript{
		workload.VMMigration("V1", "V2", "NFS"),
		workload.VMStartup("V1", workload.FlavorAMI, "DHCP", "DNS", "NTP", "NFS"),
		workload.VMStartup("V3", workload.FlavorUbuntu, "DHCP", "DNS", "NTP", "NFS"),
		workload.VMStop("V1", "NFS", "DHCP"),
		workload.MountNFS("S1", "NFS"),
		workload.SoftwareUpgrade("S1", "NFS", "DNS"),
	}
	cfg := taskmine.Config{}
	res := &PruningResult{}
	for _, script := range scripts {
		var runs [][]taskmine.Template
		for i := 0; i < training; i++ {
			run, err := workload.GenerateTaskRun(topo, 0, script, rng)
			if err != nil {
				return nil, err
			}
			runs = append(runs, taskmine.Normalize(run.Flows, cfg))
		}
		pruned, err := taskmine.Mine(context.Background(), script.Name, runs, cfg, taskmine.MineOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: pruning ablation %q: %w", script.Name, err)
		}
		unpruned, err := taskmine.Mine(context.Background(), script.Name, runs, cfg, taskmine.MineOptions{DisableClosedPruning: true})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, PruningRow{
			Task:           script.Name,
			StatesPruned:   pruned.NumStates(),
			StatesUnpruned: unpruned.NumStates(),
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *PruningResult) String() string {
	var sb strings.Builder
	sb.WriteString("ABLATION: closed-pattern pruning vs automaton size\n")
	fmt.Fprintf(&sb, "%-22s %12s %12s\n", "task", "closed", "unpruned")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %12d %12d\n", row.Task, row.StatesPruned, row.StatesUnpruned)
	}
	return sb.String()
}

// InterleaveResult is the matching-threshold ablation: detection rate of
// a task under interleaved traffic as the gap bound varies.
type InterleaveResult struct {
	Gaps     []time.Duration
	Detected []int
	Trials   int
}

// InterleaveThreshold measures VM-migration detection in a busy log for
// several interleave bounds (the paper fixes 1 s).
func InterleaveThreshold(seed int64, gaps []time.Duration, trials int) (*InterleaveResult, error) {
	if len(gaps) == 0 {
		gaps = []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, time.Second, 3 * time.Second}
	}
	if trials <= 0 {
		trials = 10
	}
	script := workload.VMMigration("V1", "V2", "NFS")

	// Train once.
	topo, err := topology.Lab()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var runs [][]taskmine.Template
	baseCfg := taskmine.Config{}
	for i := 0; i < 30; i++ {
		run, err := workload.GenerateTaskRun(topo, 0, script, rng)
		if err != nil {
			return nil, err
		}
		runs = append(runs, taskmine.Normalize(run.Flows, baseCfg))
	}

	res := &InterleaveResult{Gaps: gaps, Trials: trials}
	for _, gap := range gaps {
		cfg := taskmine.Config{InterleaveGap: gap}
		a, err := taskmine.Mine(context.Background(), script.Name, runs, cfg, taskmine.MineOptions{})
		if err != nil {
			return nil, err
		}
		detected := 0
		for trial := 0; trial < trials; trial++ {
			// Busy background plus one task execution.
			sc, err := flowdiff.RunScenario(flowdiff.Scenario{
				Seed:        seed + int64(trial)*71,
				BaselineDur: time.Second,
				FaultDur:    time.Minute,
				Tasks:       []workload.TaskScript{script},
			})
			if err != nil {
				return nil, err
			}
			flows := taskmine.FlowsFromLog(sc.L2, 0)
			if len(taskmine.Detect(a, flows)) > 0 {
				detected++
			}
		}
		res.Detected = append(res.Detected, detected)
	}
	return res, nil
}

// String renders the ablation.
func (r *InterleaveResult) String() string {
	var sb strings.Builder
	sb.WriteString("ABLATION: interleave threshold vs task detection\n")
	for i, g := range r.Gaps {
		fmt.Fprintf(&sb, "  gap=%-8v detected %d/%d\n", g, r.Detected[i], r.Trials)
	}
	return sb.String()
}

// StabilityFilterResult compares false-alarm counts with and without the
// stability filter on a clean-vs-clean diff of the skewed case 5.
type StabilityFilterResult struct {
	AlarmsWithFilter    int
	AlarmsWithoutFilter int
	Trials              int
}

// StabilityFilter diffs two clean captures of the unstable case-5
// deployment; the stability filter should suppress CI flapping alarms.
func StabilityFilter(seed int64, trials int) (*StabilityFilterResult, error) {
	if trials <= 0 {
		trials = 5
	}
	res := &StabilityFilterResult{Trials: trials}
	for trial := 0; trial < trials; trial++ {
		sc, err := flowdiff.RunScenario(flowdiff.Scenario{
			Seed: seed + int64(trial)*41,
			// Short captures make CI fractions noisy at S5's skewed
			// balancer.
			BaselineDur: 45 * time.Second,
			FaultDur:    45 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		opts := sc.Options()
		base, err := flowdiff.BuildSignatures(context.Background(), sc.L1, opts)
		if err != nil {
			return nil, err
		}
		cur, err := flowdiff.BuildSignatures(context.Background(), sc.L2, opts)
		if err != nil {
			return nil, err
		}
		res.AlarmsWithFilter += len(flowdiff.Diff(context.Background(), base, cur, flowdiff.Thresholds{}))

		noFilter := *base
		noFilter.Stability = nil
		res.AlarmsWithoutFilter += len(flowdiff.Diff(context.Background(), &noFilter, cur, flowdiff.Thresholds{}))
	}
	return res, nil
}

// String renders the ablation.
func (r *StabilityFilterResult) String() string {
	return fmt.Sprintf("ABLATION: stability filter on clean diffs (%d trials)\n  alarms with filter: %d\n  alarms without filter: %d\n",
		r.Trials, r.AlarmsWithFilter, r.AlarmsWithoutFilter)
}

// PCEpochResult sweeps the PC epoch length and reports the correlation of
// the dependent case-5 edge pair.
type PCEpochResult struct {
	Epochs []time.Duration
	PC     []float64
}

// PCEpoch sweeps epoch lengths over one case-5 capture.
func PCEpoch(seed int64, epochs []time.Duration) (*PCEpochResult, error) {
	if len(epochs) == 0 {
		epochs = []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second}
	}
	sc, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:        seed,
		BaselineDur: 5 * time.Minute,
		FaultDur:    time.Second,
	})
	if err != nil {
		return nil, err
	}
	r := appgroup.NewResolver(sc.Topo)
	pair := signature.EdgePair{
		In:  signature.Edge{Src: "S2", Dst: "S3"},
		Out: signature.Edge{Src: "S3", Dst: "S8"},
	}
	res := &PCEpochResult{Epochs: epochs}
	for _, epoch := range epochs {
		cfg := signature.Config{Special: serviceSet(), PCEpoch: epoch}
		apps, _, err := model(sc.L1, r, cfg)
		if err != nil {
			return nil, err
		}
		pc := 0.0
		for _, app := range apps {
			if v, ok := app.PC[pair]; ok {
				pc = v
			}
		}
		res.PC = append(res.PC, pc)
	}
	return res, nil
}

// String renders the ablation.
func (r *PCEpochResult) String() string {
	var sb strings.Builder
	sb.WriteString("ABLATION: PC epoch length vs measured correlation (S2-S3 | S3-S8)\n")
	for i, e := range r.Epochs {
		fmt.Fprintf(&sb, "  epoch=%-6v PC=%.3f\n", e, r.PC[i])
	}
	return sb.String()
}
