package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at a tiny scale:
// the harness keeps compiling against the program and the oracle keeps
// passing.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	scratch := t.TempDir()
	for _, wl := range workloads {
		p := plan{seconds: 0.15, writers: 2, k: 3, tenants: 3, warmup: 1, reports: 20, gets: 3, think: time.Millisecond, cells: 2, setups: 1}
		if wl.reader {
			p.writers = 1
		}
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(ctx, wl, p, 1, traced, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wl.name, traced, r.Failed, r.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = layers
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", wl.name, traced, d.Name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.Name, v.Value)
				}
			}
		}
	}
}

func TestCompareRefusesDifferentWidths(t *testing.T) {
	a := &resultSet{Env: envInfo{NProc: 2}}
	b := &resultSet{Env: envInfo{NProc: 4}}
	if err := compareSets(a, b); err == nil {
		t.Fatal("compared result sets taken at nproc 2 and 4")
	}
	if err := compareSets(a, a); err != nil {
		t.Fatalf("a set does not agree with itself: %v", err)
	}
}

// TestBenchmarkJSONMatchesHarness keeps the declared contract and the
// harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var decl struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, harness %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, declared []entry, defs []def) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, harness has %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			e := declared[i]
			if e.Name != d.Name || e.Unit != d.Unit || e.Better != better || e.Bound != d.Bound {
				t.Errorf("%s %d: declared %+v, harness %+v", kind, i, e, d)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, layers)
}
