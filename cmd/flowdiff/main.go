// Command flowdiff compares two control-traffic logs (captured with
// dcsim) and prints the diagnosis report: detected changes, validation
// against task signatures, the dependency matrix, ranked problem
// classes, and ranked suspect components.
//
// Usage:
//
//	flowdiff -baseline l1.json -current l2.json
//	flowdiff -baseline l1.json -current l2.json -topo lab
//	flowdiff -baseline l1.json -current l2.json -stats
//	flowdiff serve -addr 127.0.0.1:8080 -dir ./flowdiff-data
//	flowdiff convert -in l1.json -out l1.fdc -to columnar
//	flowdiff inspect l1.fdc
//	flowdiff inspect -columns l1.fdc
//
// Logs are accepted in either serialization — JSON or FDC1 (segmented
// columnar) — detected by magic prefix; the convert subcommand
// re-serializes between them. The inspect subcommand prints an FDC1
// log's metadata — per-segment time ranges, event counts, per-column
// encoded sizes, and dictionary cardinalities — without decoding any
// payload: it shows exactly what a query-aware read gets to prune on.
//
// The serve subcommand runs the multi-tenant diagnosis service: each
// tenant uploads a baseline (PUT /v1/tenants/{id}/baseline), streams
// current events (POST /v1/tenants/{id}/events, any serialization),
// and reads back per-window reports (GET /v1/tenants/{id}/reports)
// identical to an offline Monitor run over the same events. The same
// listener exposes /metrics, /debug/vars, and /debug/pprof/. Serve
// takes no -baseline/-current flags — baselines are per tenant, over
// the API. For the one-shot comparison, -metrics-addr serves the obs
// endpoints for the lifetime of the run, and -stats prints a
// human-readable stage-timing summary to stderr at exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"flowdiff"
	"flowdiff/internal/obs"
	"flowdiff/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "convert" {
		return runConvert(args[1:])
	}
	if len(args) > 0 && args[0] == "inspect" {
		return runInspect(args[1:])
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:])
	}
	fs := flag.NewFlagSet("flowdiff", flag.ExitOnError)
	var (
		baselinePath = fs.String("baseline", "", "baseline (L1) log (JSON or FDC1)")
		currentPath  = fs.String("current", "", "current (L2) log (JSON or FDC1)")
		topoFlag     = fs.String("topo", "lab", "topology for host naming: lab | tree320 | none")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address for the lifetime of the comparison")
		stats        = fs.Bool("stats", false, "print an end-of-run metrics summary to stderr")
	)
	// ExitOnError: Parse never returns a non-nil error to us.
	_ = fs.Parse(args)
	if *baselinePath == "" || *currentPath == "" {
		return fmt.Errorf("both -baseline and -current are required")
	}

	l1, err := loadLog(*baselinePath)
	if err != nil {
		return fmt.Errorf("loading baseline: %w", err)
	}
	l2, err := loadLog(*currentPath)
	if err != nil {
		return fmt.Errorf("loading current: %w", err)
	}

	opts := flowdiff.Options{}
	switch *topoFlag {
	case "lab":
		topo, err := topology.Lab()
		if err != nil {
			return err
		}
		opts.Topo = topo
		opts.Special = topology.ServiceNodes
	case "tree320":
		topo, err := topology.Tree320()
		if err != nil {
			return err
		}
		opts.Topo = topo
	case "none":
	default:
		return fmt.Errorf("unknown topology %q", *topoFlag)
	}

	// A fresh registry keeps this run's metrics isolated from anything
	// else using obs.Default in-process.
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	var stopMetrics func() error
	if *metricsAddr != "" {
		bound, stop, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("starting metrics server: %w", err)
		}
		stopMetrics = stop
		fmt.Fprintf(os.Stderr, "flowdiff: serving /metrics, /debug/vars, /debug/pprof/ on http://%s\n", bound)
	}

	report, err := flowdiff.Compare(ctx, l1, l2, nil, flowdiff.Thresholds{}, opts)
	if err != nil {
		return err
	}

	fmt.Printf("baseline: %d events over %v\n", len(l1.Events), l1.Duration())
	fmt.Printf("current:  %d events over %v\n\n", len(l2.Events), l2.Duration())

	if len(report.Known)+len(report.Unknown) == 0 {
		fmt.Println("no behavioral changes detected")
		return finish(*stats, reg, stopMetrics)
	}
	if len(report.Known) > 0 {
		fmt.Printf("KNOWN changes (explained by operator tasks): %d\n", len(report.Known))
		for _, c := range report.Known {
			fmt.Printf("  [%-3s] %s\n", c.Kind, c.Description)
		}
		fmt.Println()
	}
	fmt.Printf("UNKNOWN changes: %d\n", len(report.Unknown))
	for _, c := range report.Unknown {
		fmt.Printf("  [%-3s] %s\n", c.Kind, c.Description)
	}
	fmt.Println("\nDependency matrix (app signatures x infra signatures):")
	fmt.Print(report.Matrix)
	fmt.Println("\nProblem hypotheses:")
	for i, p := range report.Problems {
		if i >= 5 {
			break
		}
		fmt.Printf("  %.2f  %s\n", p.Score, p.Problem)
	}
	fmt.Println("\nSuspect components:")
	for i, c := range report.Ranking {
		if i >= 8 {
			break
		}
		fmt.Printf("  %2d changes  %s\n", c.Changes, c.Component)
	}
	if len(report.Suspects) > 0 {
		fmt.Println("\nFabric suspects (evidence voting over impacted flow paths):")
		for i, s := range report.Suspects {
			if i >= 8 {
				break
			}
			kind := "switch"
			if s.IsLink {
				kind = "link"
			}
			fmt.Printf("  %6.3f  %-6s %s  (%.3f votes from %d flows)\n",
				s.Score, kind, s.Component, s.Votes, s.Flows)
		}
	}
	return finish(*stats, reg, stopMetrics)
}

// finish handles the post-report tail shared by every exit path that
// produced output: the -stats summary and metrics-listener shutdown.
func finish(stats bool, reg *obs.Registry, stopMetrics func() error) error {
	if stats {
		fmt.Fprintln(os.Stderr)
		if err := obs.WriteSummary(os.Stderr, reg.Snapshot()); err != nil {
			return err
		}
	}
	if stopMetrics != nil {
		return stopMetrics()
	}
	return nil
}
