// Command dcsim runs a simulated flow-based data center and writes the
// controller's control-traffic log (JSON by default, or the segmented
// columnar FDC1 format with -format columnar).
//
// Usage:
//
//	dcsim -topo lab -case 5 -dur 3m -out baseline.json
//	dcsim -topo lab -case 5 -dur 3m -fault loss -out problem.json
//	dcsim -topo tree320 -apps 9 -dur 100s -out scale.json
//
// Faults: logging, loss, cpu, crash, shutdown, firewall, iperf, switch,
// controller, unauthorized.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"flowdiff/internal/faults"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/obs"
	"flowdiff/internal/simnet"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topoFlag = flag.String("topo", "lab", "topology: lab | tree320")
		caseNum  = flag.Int("case", 5, "Table II application deployment (lab topology)")
		apps     = flag.Int("apps", 9, "ON/OFF app count (tree320 topology)")
		dur      = flag.Duration("dur", 3*time.Minute, "capture duration (virtual time)")
		seed     = flag.Int64("seed", 1, "random seed")
		fault    = flag.String("fault", "", "fault to inject at t=0 (see doc comment)")
		mode     = flag.String("mode", "reactive", "controller mode: reactive | wildcard | proactive")
		out      = flag.String("out", "", "output file (default stdout)")
		format   = flag.String("format", "json", "output format: json | columnar")
		metrics  = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while the simulation runs")
	)
	flag.Parse()

	if *metrics != "" {
		bound, stop, err := obs.Serve(*metrics, obs.Default())
		if err != nil {
			return fmt.Errorf("starting metrics server: %w", err)
		}
		defer func() { _ = stop() }()
		fmt.Fprintf(os.Stderr, "dcsim: serving /metrics, /debug/vars, /debug/pprof/ on http://%s\n", bound)
	}

	cfg := simnet.Config{Seed: *seed}
	switch *mode {
	case "reactive":
	case "wildcard":
		cfg.Mode = 1
	case "proactive":
		cfg.Mode = 2
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	var (
		topo *topology.Topology
		err  error
	)
	switch *topoFlag {
	case "lab":
		topo, err = topology.Lab()
	case "tree320":
		topo, err = topology.Tree320()
	default:
		return fmt.Errorf("unknown topology %q", *topoFlag)
	}
	if err != nil {
		return err
	}
	net, err := simnet.NewNetwork(topo, cfg)
	if err != nil {
		return err
	}

	var appHandles []*workload.App
	switch *topoFlag {
	case "lab":
		specs, err := workload.CaseSpecs(*caseNum)
		if err != nil {
			return err
		}
		for i, spec := range specs {
			app, err := workload.Attach(net, spec, *seed+int64(i)+1)
			if err != nil {
				return err
			}
			app.Run(0, *dur)
			appHandles = append(appHandles, app)
		}
	case "tree320":
		rng := rand.New(rand.NewSource(*seed + 1))
		for i := 0; i < *apps; i++ {
			sizes := []int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
			spec, err := workload.RandomThreeTier(topo, rng, fmt.Sprintf("app%02d", i+1), sizes, 0.6)
			if err != nil {
				return err
			}
			app, err := workload.AttachOnOff(net, spec, *seed+int64(i)*7)
			if err != nil {
				return err
			}
			app.Run(0, *dur)
		}
	}

	if *fault != "" {
		inj, err := faultByName(*fault)
		if err != nil {
			return err
		}
		if err := inj.Apply(net, appHandles); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dcsim: injected fault %q\n", inj.Name())
	}

	net.Eng.Run(*dur)
	log := net.Log()
	fmt.Fprintf(os.Stderr, "dcsim: %d control events over %v (dropped flows: %d)\n",
		len(log.Events), log.Duration(), net.Dropped())

	w := os.Stdout
	var closeOut func() error
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		closeOut = f.Close
		w = f
	}
	var werr error
	switch *format {
	case "json":
		werr = log.WriteJSON(w)
	case "columnar":
		werr = colseg.Write(w, log, colseg.WriterOptions{})
	default:
		werr = fmt.Errorf("unknown format %q", *format)
	}
	if closeOut != nil {
		// A failed close on the output file can drop the tail of the
		// capture; it must not be masked by a successful write pass.
		if cerr := closeOut(); werr == nil && cerr != nil {
			werr = fmt.Errorf("closing %s: %w", *out, cerr)
		}
	}
	return werr
}

func faultByName(name string) (faults.Injector, error) {
	switch name {
	case "logging":
		return faults.EnableLogging{Host: "S3"}, nil
	case "loss":
		return faults.PathLoss{From: "S1", To: "S3", Prob: 0.05}, nil
	case "cpu":
		return faults.CPUHog{Host: "S3"}, nil
	case "crash":
		return faults.AppCrash{Host: "S3"}, nil
	case "shutdown":
		return faults.HostShutdown{Host: "S3"}, nil
	case "firewall":
		return faults.FirewallBlock{Host: "S8", Port: workload.PortDB}, nil
	case "iperf":
		return faults.BackgroundTraffic{From: "S24", To: "S4", QueueDelay: 25 * time.Millisecond}, nil
	case "switch":
		return faults.SwitchFailure{Switch: "sw2"}, nil
	case "controller":
		return faults.ControllerOverload{}, nil
	case "unauthorized":
		return faults.UnauthorizedAccess{Attacker: "S24", Victim: "S8", Port: workload.PortDB}, nil
	default:
		return nil, fmt.Errorf("unknown fault %q", name)
	}
}
