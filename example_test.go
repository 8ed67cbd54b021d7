package flowdiff_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"flowdiff"
	"flowdiff/internal/faults"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/workload"
)

// Example demonstrates the complete FlowDiff pipeline: simulate the lab
// data center, crash an application server during the second capture,
// and diagnose the difference between the two logs.
func Example() {
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:   7,
		Faults: []faults.Injector{faults.AppCrash{Host: "S3"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := flowdiff.Compare(context.Background(), res.L1, res.L2, nil, flowdiff.Thresholds{}, res.Options())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top hypothesis:", report.Problems[0].Problem)
	fmt.Println("top suspect:", report.Ranking[0].Component)
	// Output:
	// top hypothesis: application failure
	// top suspect: S3
}

// ExampleBuildSignaturesReader builds signatures from an FDC1 capture
// as a stream, one decoded segment at a time, never the whole event
// slice; a read filter narrows the build to one time window, and only
// the segments overlapping it are decoded.
func ExampleBuildSignaturesReader() {
	res, err := flowdiff.RunScenario(flowdiff.Scenario{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	// An FDC1 capture, as `flowdiff convert -to columnar` writes one.
	var capture bytes.Buffer
	if err := colseg.Write(&capture, res.L1, colseg.WriterOptions{}); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	src, err := flowdiff.NewColumnarSourceOptions(ctx, &capture, flowdiff.ColumnarOptions{
		Filter: flowdiff.ReadFilter{From: time.Minute, To: 3 * time.Minute},
	})
	if err != nil {
		log.Fatal(err)
	}
	sigs, err := flowdiff.BuildSignaturesReader(ctx, src, res.Options())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window [%v, %v): %d application groups\n", sigs.Log.Start, sigs.Log.End, len(sigs.Apps))
	// Output:
	// window [1m0s, 3m0s): 2 application groups
}

// ExampleCompare_threeTier runs the workload the paper's introduction
// motivates: two web chains sharing an app server (Table II case 5)
// under three of Table I's faults in turn, printing for each the
// unexplained signature changes and the most likely problem.
func ExampleCompare_threeTier() {
	scenarios := []struct {
		name  string
		fault faults.Injector
	}{
		{"misconfigured INFO logging on app server S3", faults.EnableLogging{Host: "S3", Overhead: 60 * time.Millisecond}},
		{"5% packet loss between web and app tiers", faults.PathLoss{From: "S1", To: "S3", Prob: 0.05}},
		{"firewall blocks the db port on S8", faults.FirewallBlock{Host: "S8", Port: workload.PortDB}},
	}
	for i, sc := range scenarios {
		fmt.Printf("fault %d: %s\n", i+1, sc.name)
		res, err := flowdiff.RunScenario(flowdiff.Scenario{
			Seed:   int64(100 + i),
			Faults: []faults.Injector{sc.fault},
		})
		if err != nil {
			log.Fatal(err)
		}
		report, err := flowdiff.Compare(context.Background(), res.L1, res.L2, nil, flowdiff.Thresholds{}, res.Options())
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range report.Unknown {
			fmt.Printf("  [%-3s] %s\n", c.Kind, c.Description)
		}
		if len(report.Problems) > 0 {
			fmt.Printf("  => most likely: %s (score %.2f)\n", report.Problems[0].Problem, report.Problems[0].Score)
		}
	}
	// Output:
	// fault 1: misconfigured INFO logging on app server S3
	//   [DD ] delay peak S1->S3|S3->S8 moved 70ms -> 130ms
	//   [DD ] delay peak S2->S3|S3->S8 moved 70ms -> 130ms
	//   => most likely: application performance (score 0.33)
	// fault 2: 5% packet loss between web and app tiers
	//   [FS ] mean flow bytes on S1->S3: 2048 -> 2270
	//   [FS ] mean flow bytes on S2->S3: 2048 -> 2134
	//   [FS ] mean flow bytes on S22->S1: 2048 -> 2159
	//   => most likely: application performance (score 0.33)
	// fault 3: firewall blocks the db port on S8
	//   [CG ] edge S3->S8 missing
	//   [CI ] component interaction at S3 shifted (chi2=72.717)
	//   [FS ] flow rate on S3->S8: 0.37/s -> 0.00/s
	//   => most likely: application failure (score 0.75)
}

// ExampleMineTask learns the VM-migration task signature of the
// paper's Figure 4 from repeated runs on a quiet fabric, detects a
// migration hidden in a busy control log, and shows the topology
// changes it causes validated as known.
func ExampleMineTask() {
	ctx := context.Background()
	script := workload.VMMigration("V1", "V2", "NFS")
	train, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:        1,
		BaselineDur: time.Second,
		FaultDur:    10 * time.Minute,
		Tasks: []workload.TaskScript{
			script, script, script, script, script,
			script, script, script, script, script,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	var runs [][]flowdiff.FlowKey
	for _, r := range train.TaskRuns {
		runs = append(runs, r.Flows)
	}
	automaton, err := flowdiff.MineTask(ctx, "vm-migration", runs, flowdiff.TaskConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d states from %d runs\n", automaton.NumStates(), len(runs))

	busy, err := flowdiff.RunScenario(flowdiff.Scenario{Seed: 2, Tasks: []workload.TaskScript{script}})
	if err != nil {
		log.Fatal(err)
	}
	automata := []*flowdiff.TaskAutomaton{automaton}
	for _, d := range flowdiff.DetectTasks(busy.L2, automata, 0) {
		fmt.Printf("detected %s at %v involving %v\n", d.Task, d.Start.Round(time.Millisecond), d.Hosts)
	}
	report, err := flowdiff.Compare(ctx, busy.L1, busy.L2, automata, flowdiff.Thresholds{}, busy.Options())
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range report.Known {
		fmt.Printf("  known: [%-3s] %s\n", c.Kind, c.Description)
	}
	for _, c := range report.Unknown {
		fmt.Printf("  unknown: [%-3s] %s\n", c.Kind, c.Description)
	}
	// Output:
	// mined 10 states from 10 runs
	// detected vm-migration at 3m5.021s involving [10.0.0.1 10.0.2.1 10.0.2.2]
	//   known: [CG ] new edge NFS->V1 (new group)
	//   known: [CG ] new edge NFS->V2 (new group)
	//   known: [CG ] new edge V1->NFS (new group)
	//   known: [CG ] new edge V1->V2 (new group)
	//   known: [CG ] new edge V2->NFS (new group)
	//   known: [CG ] new edge V2->V1 (new group)
	//   unknown: [PT ] new switch adjacency sw1->sw6
}

// ExampleMonitor runs FlowDiff as an operator would: a baseline frozen
// from a healthy capture, then the live stream fed to a Monitor in
// one-minute windows. A firewall drops S8's database connections
// throughout the live capture, so every window raises the alarm and
// names the application failure. The Monitor keeps no reports: the
// caller counts what ObserveBatch and Flush hand back.
func ExampleMonitor() {
	ctx := context.Background()
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:        11,
		BaselineDur: 3 * time.Minute,
		FaultDur:    4 * time.Minute,
		Faults:      []faults.Injector{faults.FirewallBlock{Host: "S8", Port: workload.PortDB}},
	})
	if err != nil {
		log.Fatal(err)
	}
	mon, err := flowdiff.NewMonitor(ctx, res.L1, time.Minute, nil, flowdiff.Thresholds{}, res.Options())
	if err != nil {
		log.Fatal(err)
	}
	windows, alarms := 0, 0
	show := func(rep *flowdiff.MonitorReport, err error) {
		if err != nil {
			log.Fatal(err)
		}
		if rep == nil {
			return
		}
		windows++
		fmt.Printf("[%v - %v]", rep.From.Round(time.Second), rep.To.Round(time.Second))
		if len(rep.Report.Unknown) == 0 {
			fmt.Println(" ok")
			return
		}
		alarms++
		fmt.Printf(" ALARM: %d unexplained changes\n", len(rep.Report.Unknown))
		for _, c := range rep.Report.Unknown {
			fmt.Printf("    [%-3s] %s\n", c.Kind, c.Description)
		}
		if len(rep.Report.Problems) > 0 {
			fmt.Printf("    => %s\n", rep.Report.Problems[0].Problem)
		}
	}
	mon.ObserveBatch(ctx, res.L2.Events, show)
	show(mon.Flush(ctx))
	fmt.Printf("%d windows, %d with alarms\n", windows, alarms)
	// Output:
	// [3m0s - 4m0s] ALARM: 2 unexplained changes
	//     [CG ] edge S3->S8 missing
	//     [CI ] component interaction at S3 shifted (chi2=21.640)
	//     => application failure
	// [4m0s - 5m0s] ALARM: 3 unexplained changes
	//     [CG ] edge S3->S8 missing
	//     [CI ] component interaction at S3 shifted (chi2=29.599)
	//     [PC ] correlation S23->S5|S5->S17 shifted 0.26 -> 0.65
	//     => application failure
	// [5m0s - 6m0s] ALARM: 3 unexplained changes
	//     [CG ] edge S3->S8 missing
	//     [CI ] component interaction at S3 shifted (chi2=22.458)
	//     [PT ] switch adjacency sw1->sw3 missing
	//     => network disconnectivity
	// [6m0s - 7m0s] ALARM: 2 unexplained changes
	//     [CG ] edge S3->S8 missing
	//     [CI ] component interaction at S3 shifted (chi2=25.191)
	//     => application failure
	// 4 windows, 4 with alarms
}
