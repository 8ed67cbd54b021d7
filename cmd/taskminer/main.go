// Command taskminer learns task automata from repeated runs of an
// operator task and detects executions of the learned tasks in a control
// log.
//
// Usage:
//
//	taskminer -task vm-migration -train 50          # learn + self-test
//	taskminer -task vm-startup-ami -train 50 -detect log.fdc   # any format
//	taskminer -task vm-startup-ubuntu -masked
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"

	"flowdiff/internal/core/taskmine"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "taskminer:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("taskminer", flag.ExitOnError)
	var (
		task   = fs.String("task", "vm-migration", "task: vm-migration | vm-startup-ami | vm-startup-ubuntu | vm-stop | mount-nfs | unmount-nfs | software-upgrade")
		train  = fs.Int("train", 50, "training runs")
		seed   = fs.Int64("seed", 1, "random seed")
		masked = fs.Bool("masked", false, "mask VM IP addresses (generalize across hosts)")
		detect = fs.String("detect", "", "control log (JSON or FDC1; format auto-detected) to scan for task executions")
	)
	// ExitOnError: Parse never returns a non-nil error to us.
	_ = fs.Parse(args)
	// printf keeps the first write error; run returns it at the end.
	var werr error
	printf := func(format string, a ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(out, format, a...)
		}
	}

	topo, err := topology.Lab()
	if err != nil {
		return err
	}
	var script workload.TaskScript
	switch *task {
	case "vm-migration":
		script = workload.VMMigration("V1", "V2", "NFS")
	case "vm-startup-ami":
		script = workload.VMStartup("V1", workload.FlavorAMI, "DHCP", "DNS", "NTP", "NFS")
	case "vm-startup-ubuntu":
		script = workload.VMStartup("V1", workload.FlavorUbuntu, "DHCP", "DNS", "NTP", "NFS")
	case "vm-stop":
		script = workload.VMStop("V1", "NFS", "DHCP")
	case "mount-nfs":
		script = workload.MountNFS("S1", "NFS")
	case "unmount-nfs":
		script = workload.UnmountNFS("S1", "NFS")
	case "software-upgrade":
		script = workload.SoftwareUpgrade("S1", "NFS", "DNS")
	default:
		return fmt.Errorf("unknown task %q", *task)
	}

	cfg := taskmine.Config{MaskIPs: *masked}
	if *masked {
		keep := make(map[netip.Addr]bool)
		for _, id := range topology.ServiceNodes {
			if n, ok := topo.Node(id); ok {
				keep[n.Addr] = true
			}
		}
		cfg.KeepAddrs = keep
	}

	rng := rand.New(rand.NewSource(*seed))
	var runs [][]taskmine.Template
	var rawRuns []workload.TaskRun
	for i := 0; i < *train; i++ {
		run, err := workload.GenerateTaskRun(topo, 0, script, rng)
		if err != nil {
			return err
		}
		runs = append(runs, taskmine.Normalize(run.Flows, cfg))
		rawRuns = append(rawRuns, run)
	}
	a, err := taskmine.Mine(context.Background(), script.Name, runs, cfg, taskmine.MineOptions{})
	if err != nil {
		return err
	}
	printf("mined automaton %q: %d states, %d start, %d final (masked=%v)\n",
		a.Name, a.NumStates(), len(a.StartStates()), len(a.FinalStates()), *masked)
	for i, st := range a.States {
		printf("  state %2d (support %.2f): ", i, st.Support)
		for _, tm := range st.Seq {
			printf("%v ", tm)
		}
		printf("\n")
	}

	// Self-test: every training run must be re-detected.
	ok := 0
	for _, run := range rawRuns {
		flows := make([]taskmine.TimedFlow, len(run.Flows))
		for j := range run.Flows {
			flows[j] = taskmine.TimedFlow{Key: run.Flows[j], At: run.Times[j]}
		}
		if len(taskmine.Detect(a, flows)) > 0 {
			ok++
		}
	}
	printf("self-test: %d/%d training runs re-detected\n", ok, len(rawRuns))

	if *detect != "" {
		f, err := os.Open(*detect)
		if err != nil {
			return err
		}
		defer f.Close()
		log, err := colseg.ReadAnyInto(context.Background(), f, colseg.ReaderOptions{}, nil)
		if err != nil {
			return fmt.Errorf("loading %s: %w", *detect, err)
		}
		flows := taskmine.FlowsFromLog(log, 0)
		ds := taskmine.DedupeDetections(taskmine.Detect(a, flows))
		printf("detections in %s: %d\n", *detect, len(ds))
		for _, d := range ds {
			printf("  %s at %v..%v involving %v\n", d.Task, d.Start, d.End, d.Hosts)
		}
	}
	return werr
}
