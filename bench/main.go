// Command flowbench is the repository's end-to-end and per-layer
// benchmark: it boots internal/serve in-process behind a loopback
// listener, drives it with closed-loop clients replaying seeded,
// pre-encoded control traffic, runs the offline compare path from FDC1
// captures, checks every output against an offline oracle, and reports
// the metrics BENCHMARK.json declares. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outDir receives result and trace files; the process runs from the
// benchmark's directory (run.sh and `go run .` both do).
const outDir = "out"

// envInfo is recorded in every result file: numbers taken at different
// widths or toolchains are not comparable.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// resultSet is one invocation's results, the content of a result file.
type resultSet struct {
	Env     envInfo   `json:"env"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func (s *resultSet) write(name string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

// issueName is the name the issue gave a workload's cycle or side
// metric, printed beside the generic one.
func issueName(r *result, name string) string {
	for _, role := range []string{"cycle", "side"} {
		if rest, ok := strings.CutPrefix(name, role+"_"); ok {
			return r.Meaning[role] + "_" + rest
		}
	}
	return name
}

func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		note := ""
		if alias := issueName(r, name); alias != name {
			role, _, _ := strings.Cut(name, "_")
			note = fmt.Sprintf("  (= %s, n=%d)", alias, r.Samples[role])
		}
		fmt.Printf("%-20s %-42s %14.4f %-10s%s\n", r.Workload, name, v.Value, v.Unit, note)
	}
	fmt.Printf("%-20s %-42s %14.6f %-10s  (%d of %d operations failed)\n",
		r.Workload, "failed_share", float64(r.Failed)/float64(r.Attempted), "share", r.Failed, r.Attempted)
}

// runSet runs the workloads once each, untraced, traced, or both.
func runSet(ctx context.Context, wls []workload, seed int64, seconds float64, untraced, traced bool) (*resultSet, error) {
	set := &resultSet{Env: readEnv(), Seed: seed, Seconds: seconds}
	scratch := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	for _, wl := range wls {
		for _, tr := range []bool{false, true} {
			if (tr && !traced) || (!tr && !untraced) {
				continue
			}
			r, err := runWorkload(ctx, wl, defaultPlan(wl, seconds), seed, tr, scratch)
			if err != nil {
				return nil, err
			}
			printResult(r)
			set.Results = append(set.Results, r)
		}
	}
	return set, nil
}

// worseBy is how much worse b is than a, as a share of a (negative
// when b is better).
func worseBy(d def, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, for every end-to-end metric of every workload,
// how far the two sets are apart against the metric's bound, and returns
// an error unless all agree. Sets taken at different widths are refused.
func compareSets(a, b *resultSet) error {
	if a.Env.NProc != b.Env.NProc {
		return fmt.Errorf("result sets were taken at nproc %d and %d: not comparable", a.Env.NProc, b.Env.NProc)
	}
	disagree := 0
	for _, ra := range a.Results {
		for _, rb := range b.Results {
			if ra.Workload != rb.Workload || ra.Traced || rb.Traced {
				continue
			}
			for _, d := range endToEnd {
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				diff := math.Max(worseBy(d, va, vb), worseBy(d, vb, va))
				verdict := "ok"
				if diff > d.Bound {
					verdict = "DISAGREE"
					disagree++
				}
				fmt.Printf("%-20s %-24s %14.4f %14.4f  apart %6.2f%%  bound %5.1f%%  %s\n",
					ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
			}
			if ra.Failed+rb.Failed > 0 {
				fmt.Printf("%-20s failed operations: %d and %d\n", ra.Workload, ra.Failed, rb.Failed)
				disagree++
			}
		}
	}
	if disagree > 0 {
		return fmt.Errorf("the two sets disagree on %d metrics", disagree)
	}
	return nil
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all four in sequence)")
		seed         = flag.Int64("seed", 1, "generator seed")
		seconds      = flag.Float64("seconds", 12, "length of one timed run")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; default both")
		agree        = flag.Bool("agree", false, "run two full sets on the same code and seed and require them to agree within the bounds")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	ctx := context.Background()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		a, err := loadSet(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := loadSet(flag.Arg(1))
		if err != nil {
			return err
		}
		return compareSets(a, b)
	}

	var wls []workload
	for _, w := range workloads {
		if *workloadFlag == "" || *workloadFlag == w.name {
			wls = append(wls, w)
		}
	}
	if len(wls) == 0 {
		return fmt.Errorf("unknown workload %q", *workloadFlag)
	}

	if *agree {
		var sets [2]*resultSet
		for i := range sets {
			s, err := runSet(ctx, wls, *seed, *seconds, true, false)
			if err != nil {
				return err
			}
			if err := s.write(fmt.Sprintf("agree_%d_seed%d.json", i, *seed)); err != nil {
				return err
			}
			sets[i] = s
		}
		return compareSets(sets[0], sets[1])
	}

	set, err := runSet(ctx, wls, *seed, *seconds, *trace != 1, *trace != 0)
	if err != nil {
		return err
	}
	scope := "all"
	if len(wls) == 1 {
		scope = wls[0].name
	}
	if err := set.write(fmt.Sprintf("result_%s_trace%d_seed%d.json", scope, *trace, *seed)); err != nil {
		return err
	}

	// The result line: the run's counts and metrics when one workload and
	// one mode were asked for, the totals otherwise.
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, r := range set.Results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		if len(set.Results) == 1 {
			line.Metrics = r.Metrics
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}
