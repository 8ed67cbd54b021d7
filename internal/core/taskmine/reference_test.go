package taskmine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mineReference is the pre-interning miner, retained verbatim as the
// equivalence oracle: every stage works over []Template directly with
// string pattern keys, serially. The interned pipeline must produce
// DeepEqual automata.
func mineReference(name string, runs [][]Template, cfg Config, opt MineOptions) (*Automaton, error) {
	cfg = cfg.withDefaults()
	if len(runs) == 0 {
		return nil, fmt.Errorf("taskmine: no runs for task %q", name)
	}

	common := commonFlowsReference(runs)
	if len(common) == 0 {
		return nil, fmt.Errorf("taskmine: task %q has no flows common to all runs", name)
	}

	filtered := make([][]Template, 0, len(runs))
	for _, run := range runs {
		var f []Template
		for _, t := range run {
			if common[t.String()] {
				f = append(f, t)
			}
		}
		if len(f) > 0 {
			filtered = append(filtered, f)
		}
	}
	if len(filtered) == 0 {
		return nil, fmt.Errorf("taskmine: task %q has no usable runs after filtering", name)
	}

	patterns := frequentPatterns(filtered, cfg.MinSupport)
	states := patterns
	if !opt.DisableClosedPruning {
		states = closedPrune(patterns)
	}
	states = ensureSinglesReference(states, patterns)

	a := &Automaton{
		Name:        name,
		States:      states,
		start:       make(map[int]bool),
		final:       make(map[int]bool),
		transitions: make(map[int]map[int]bool),
		cfg:         cfg,
	}
	for _, run := range filtered {
		chunks, err := segmentReference(a.States, run)
		if err != nil {
			return nil, fmt.Errorf("taskmine: segmenting run for %q: %w", name, err)
		}
		a.start[chunks[0]] = true
		a.final[chunks[len(chunks)-1]] = true
		for i := 0; i+1 < len(chunks); i++ {
			next, ok := a.transitions[chunks[i]]
			if !ok {
				next = make(map[int]bool)
				a.transitions[chunks[i]] = next
			}
			next[chunks[i+1]] = true
		}
	}
	return a, nil
}

func commonFlowsReference(runs [][]Template) map[string]bool {
	counts := make(map[string]int)
	for _, run := range runs {
		seen := make(map[string]bool)
		for _, t := range run {
			k := t.String()
			if !seen[k] {
				seen[k] = true
				counts[k]++
			}
		}
	}
	common := make(map[string]bool)
	for k, c := range counts {
		if c == len(runs) {
			common[k] = true
		}
	}
	return common
}

func ensureSinglesReference(states, all []Pattern) []Pattern {
	have := make(map[string]bool)
	for _, s := range states {
		if len(s.Seq) == 1 {
			have[s.key()] = true
		}
	}
	out := append([]Pattern(nil), states...)
	for _, p := range all {
		if len(p.Seq) == 1 && !have[p.key()] {
			p.fallback = true
			out = append(out, p)
			have[p.key()] = true
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Seq) != len(out[j].Seq) {
			return len(out[i].Seq) > len(out[j].Seq)
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].key() < out[j].key()
	})
	return out
}

func segmentReference(states []Pattern, run []Template) ([]int, error) {
	var chunks []int
	pos := 0
	for pos < len(run) {
		matched := -1
		for si, st := range states {
			if pos+len(st.Seq) > len(run) {
				continue
			}
			ok := true
			for j, t := range st.Seq {
				if run[pos+j] != t {
					ok = false
					break
				}
			}
			if ok {
				matched = si
				break
			}
		}
		if matched < 0 {
			return nil, fmt.Errorf("no state matches at position %d (%v)", pos, run[pos])
		}
		chunks = append(chunks, matched)
		pos += len(states[matched].Seq)
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("empty segmentation")
	}
	return chunks, nil
}

// randomRuns builds n noisy runs sharing a core sequence of k templates:
// each run keeps the core order but drops some non-core inserts and adds
// random repeats, so mining sees realistic support in (MinSupport, 1).
func randomRuns(rng *rand.Rand, n, k int) [][]Template {
	refTmpl := func(src, dst, sport, dport string) Template {
		return Template{Proto: 6, Src: src, Dst: dst, SrcPort: sport, DstPort: dport}
	}
	core := make([]Template, k)
	for i := range core {
		core[i] = refTmpl(fmt.Sprintf("10.0.%d.1", i), "10.0.0.200", "*", fmt.Sprintf("%d", 2000+i))
	}
	runs := make([][]Template, n)
	for r := range runs {
		var run []Template
		for _, t := range core {
			// Occasional noise flow unique to this run (filtered out by
			// common-flow extraction in most cases).
			if rng.Intn(4) == 0 {
				run = append(run, refTmpl(fmt.Sprintf("172.16.%d.%d", r, rng.Intn(5)), "10.0.0.200", "*", "99"))
			}
			run = append(run, t)
			// Occasional repeat of a core flow, breaking long patterns in
			// some runs but not others.
			if rng.Intn(5) == 0 {
				run = append(run, core[rng.Intn(k)])
			}
		}
		runs[r] = run
	}
	return runs
}

// TestMineMatchesReference pins the interned miner against the
// retained naive miner on randomized workloads: DeepEqual automata,
// including state order, supports, and transition structure.
func TestMineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		runs := randomRuns(rng, 5+rng.Intn(10), 3+rng.Intn(8))
		for _, opt := range []MineOptions{{}, {DisableClosedPruning: true}} {
			want, wantErr := mineReference("t", runs, Config{}, opt)
			got, gotErr := Mine(context.Background(), "t", runs, Config{}, opt)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d opt %+v: err mismatch: reference %v, mine %v", trial, opt, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d opt %+v: automaton mismatch\nreference: %+v\nmine:      %+v", trial, opt, want, got)
			}
		}
	}
}

// BenchmarkMineReference benchmarks the retained naive miner on the same
// workloads as BenchmarkMine, for an in-tree before/after comparison.
func BenchmarkMineReference(b *testing.B) {
	for _, sz := range []struct{ runs, k int }{{20, 12}, {50, 30}} {
		runs := trainRuns(sz.runs, sz.k, 1)
		b.Run(fmt.Sprintf("runs=%d/len=%d", sz.runs, sz.k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mineReference("bench", runs, Config{}, MineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
