package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog/colseg"
)

// TestInspectColumnar writes the canonical Seed-301 baseline capture as
// FDC1 with the convert subcommand, runs `inspect -columns` on it, and
// checks the report against colseg.Inspect: the format line, one seg
// line per segment, and column totals that add up to the payload.
func TestInspectColumnar(t *testing.T) {
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:        301,
		Case:        1,
		BaselineDur: 30 * time.Second,
		FaultDur:    30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	dir := t.TempDir()
	in, fdc := filepath.Join(dir, "l1.json"), filepath.Join(dir, "l1.fdc")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.L1.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runConvert([]string{"-in", in, "-out", fdc, "-to", "columnar", "-segment", "5s"}); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error { return runInspect([]string{"-columns", fdc}) })
	if !strings.Contains(out, "FDC1 version 2") {
		t.Errorf("no %q line in:\n%s", "FDC1 version 2", out)
	}
	raw, err := os.Open(fdc)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	info, err := colseg.Inspect(raw)
	if err != nil {
		t.Fatal(err)
	}
	segLines, totals, pct := 0, false, 0.0
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "seg "):
			segLines++
		case line == "column totals:":
			totals = true
		case totals && strings.HasSuffix(line, "%"):
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(strings.TrimSuffix(fields[len(fields)-1], "%"), 64)
			if err != nil {
				t.Fatalf("column total %q: %v", line, err)
			}
			pct += v
		}
	}
	if len(info.Segments) < 2 || segLines != len(info.Segments) {
		t.Errorf("%d seg lines for %d segments, want one per segment and at least two", segLines, len(info.Segments))
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("column-total percentages sum to %.1f, want 100 ± 0.1", pct)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
