package taskmine

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
)

// flowN builds distinguishable flows f1..fN as used in the paper's
// Figure 6 walk-through.
func flowN(i int) flowlog.FlowKey {
	return flowlog.FlowKey{
		Proto:   6,
		Src:     netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		Dst:     netip.AddrFrom4([4]byte{10, 0, 1, byte(i)}),
		SrcPort: 100, // literal ports so each f_i is a distinct template
		DstPort: uint16(200 + i),
	}
}

func tmpl(run []flowlog.FlowKey, cfg Config) []Template {
	return Normalize(run, cfg)
}

func runOf(idxs ...int) []flowlog.FlowKey {
	var out []flowlog.FlowKey
	for _, i := range idxs {
		out = append(out, flowN(i))
	}
	return out
}

// TestFigure6Example reproduces the paper's state-extraction example:
// T'1 = f1 f2 f3 f4 f5, T'2 = f3 f4 f5 f1, T'3 = f3 f4 f5 f2 f1 with
// min_sup 0.6. The closed frequent pattern f3f4f5 subsumes f3, f4, f5,
// f3f4, and f4f5.
func TestFigure6Example(t *testing.T) {
	cfg := Config{MinSupport: 0.6}
	runs := [][]Template{
		tmpl(runOf(1, 2, 3, 4, 5), cfg),
		tmpl(runOf(3, 4, 5, 1), cfg),
		tmpl(runOf(3, 4, 5, 2, 1), cfg),
	}
	// The paper's example applies pattern mining to already-extracted
	// T'_i, so call the mining stages directly on them.
	pats := frequentPatterns(runs, cfg.MinSupport)
	bySig := make(map[string]Pattern)
	for _, p := range pats {
		bySig[p.key()] = p
	}
	// The paper's frequent list: f3f4 (3), f4f5 (3), and f3f4f5 (3);
	// pairs such as f1f2 or f5f1 fail min_sup.
	f3f4 := patternKey(tmpl(runOf(3, 4), cfg))
	f4f5 := patternKey(tmpl(runOf(4, 5), cfg))
	f3f4f5 := patternKey(tmpl(runOf(3, 4, 5), cfg))
	for _, k := range []string{f3f4, f4f5, f3f4f5} {
		p, ok := bySig[k]
		if !ok {
			t.Fatalf("pattern %s not mined", k)
		}
		if p.Support != 1.0 {
			t.Errorf("pattern %s support = %v, want 1.0 (3 of 3 runs)", k, p.Support)
		}
	}
	if _, ok := bySig[patternKey(tmpl(runOf(1, 2), cfg))]; ok {
		t.Error("f1f2 has support 1/3 and must not be frequent")
	}
	// Closed pruning removes f3, f4, f5, f3f4, and f4f5: all subsumed by
	// f3f4f5 with identical support.
	closed := closedPrune(pats)
	for _, p := range closed {
		if p.key() == f3f4 || p.key() == f4f5 {
			t.Errorf("%s survived closed pruning", p.key())
		}
		for _, i := range []int{3, 4, 5} {
			if p.key() == patternKey(tmpl(runOf(i), cfg)) {
				t.Errorf("f%d survived closed pruning", i)
			}
		}
	}

	// The full Mine pipeline on the same runs must accept every training
	// run (the paper: "all extracted logs can be precisely represented by
	// the constructed automata").
	a, err := Mine(context.Background(), "fig6", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, idxs := range [][]int{{1, 2, 3, 4, 5}, {3, 4, 5, 1}, {3, 4, 5, 2, 1}} {
		flows := timedRun(idxs, 0)
		if len(Detect(a, flows)) == 0 {
			t.Errorf("training run %d not accepted by its own automaton", i+1)
		}
	}
}

func timedRun(idxs []int, base time.Duration) []TimedFlow {
	var out []TimedFlow
	for j, i := range idxs {
		out = append(out, TimedFlow{Key: flowN(i), At: base + time.Duration(j)*50*time.Millisecond})
	}
	return out
}

func TestMineRejectsEmptyInput(t *testing.T) {
	if _, err := Mine(context.Background(), "x", nil, Config{}, MineOptions{}); err == nil {
		t.Error("want error for zero runs")
	}
	// Runs with nothing in common.
	cfg := Config{}
	runs := [][]Template{
		tmpl(runOf(1), cfg),
		tmpl(runOf(2), cfg),
	}
	if _, err := Mine(context.Background(), "x", runs, cfg, MineOptions{}); err == nil {
		t.Error("want error when no common flows exist")
	}
}

func TestClosedPruningAblation(t *testing.T) {
	cfg := Config{MinSupport: 0.6}
	runs := [][]Template{
		tmpl(runOf(1, 2, 3, 4, 5), cfg),
		tmpl(runOf(3, 4, 5, 1), cfg),
		tmpl(runOf(3, 4, 5, 2, 1), cfg),
	}
	pruned, err := Mine(context.Background(), "p", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := Mine(context.Background(), "u", runs, cfg, MineOptions{DisableClosedPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumStates() >= unpruned.NumStates() {
		t.Errorf("closed pruning should reduce states: %d vs %d",
			pruned.NumStates(), unpruned.NumStates())
	}
}

func TestDetectToleratesInterleaving(t *testing.T) {
	cfg := Config{MinSupport: 0.6}
	runs := [][]Template{
		tmpl(runOf(1, 2, 3), cfg),
		tmpl(runOf(1, 2, 3), cfg),
	}
	a, err := Mine(context.Background(), "seq", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave unrelated flows (f7, f8) within the gap bound.
	flows := []TimedFlow{
		{Key: flowN(1), At: 0},
		{Key: flowN(7), At: 100 * time.Millisecond},
		{Key: flowN(2), At: 300 * time.Millisecond},
		{Key: flowN(8), At: 500 * time.Millisecond},
		{Key: flowN(3), At: 700 * time.Millisecond},
	}
	if len(Detect(a, flows)) == 0 {
		t.Error("interleaved traffic within the gap should not break matching")
	}
}

func TestDetectRespectsInterleaveGap(t *testing.T) {
	cfg := Config{MinSupport: 0.6, InterleaveGap: time.Second}
	runs := [][]Template{
		tmpl(runOf(1, 2, 3), cfg),
		tmpl(runOf(1, 2, 3), cfg),
	}
	a, err := Mine(context.Background(), "seq", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// f2 arrives 5 s after f1: the child must have expired.
	flows := []TimedFlow{
		{Key: flowN(1), At: 0},
		{Key: flowN(2), At: 5 * time.Second},
		{Key: flowN(3), At: 5*time.Second + 100*time.Millisecond},
	}
	if n := len(Detect(a, flows)); n != 0 {
		t.Errorf("got %d detections across a >1s quiet gap, want 0", n)
	}
}

func TestDetectIncompleteSequenceNoMatch(t *testing.T) {
	cfg := Config{MinSupport: 0.6}
	runs := [][]Template{
		tmpl(runOf(1, 2, 3), cfg),
		tmpl(runOf(1, 2, 3), cfg),
	}
	a, err := Mine(context.Background(), "seq", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flows := timedRun([]int{1, 2}, 0) // missing f3
	if n := len(Detect(a, flows)); n != 0 {
		t.Errorf("got %d detections for an incomplete run, want 0", n)
	}
	flows = timedRun([]int{2, 3}, 0) // missing start
	if n := len(Detect(a, flows)); n != 0 {
		t.Errorf("got %d detections without the start flow, want 0", n)
	}
}

func TestDetectMultipleExecutions(t *testing.T) {
	cfg := Config{MinSupport: 0.6}
	runs := [][]Template{
		tmpl(runOf(1, 2, 3), cfg),
		tmpl(runOf(1, 2, 3), cfg),
	}
	a, err := Mine(context.Background(), "seq", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flows := append(timedRun([]int{1, 2, 3}, 0), timedRun([]int{1, 2, 3}, 10*time.Second)...)
	ds := DedupeDetections(Detect(a, flows))
	if len(ds) != 2 {
		t.Errorf("got %d deduped detections, want 2: %+v", len(ds), ds)
	}
}

func TestMaskedMatchingGeneralizesAcrossHosts(t *testing.T) {
	// Train masked on host pair A->B, detect the same shape on C->D.
	keep := map[netip.Addr]bool{}
	cfg := Config{MinSupport: 0.6, MaskIPs: true, KeepAddrs: keep}
	mk := func(srcLast, dstLast byte, port uint16) flowlog.FlowKey {
		return flowlog.FlowKey{
			Proto: 6,
			Src:   netip.AddrFrom4([4]byte{10, 9, 0, srcLast}),
			Dst:   netip.AddrFrom4([4]byte{10, 9, 0, dstLast}),
			// literal low ports so the template survives normalization
			SrcPort: 500, DstPort: port,
		}
	}
	trainRun := []flowlog.FlowKey{mk(1, 2, 700), mk(2, 1, 701), mk(1, 2, 702)}
	runs := [][]Template{Normalize(trainRun, cfg), Normalize(trainRun, cfg)}
	a, err := Mine(context.Background(), "masked", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same shape on different hosts: should match (masked).
	other := []TimedFlow{
		{Key: mk(7, 8, 700), At: 0},
		{Key: mk(8, 7, 701), At: 100 * time.Millisecond},
		{Key: mk(7, 8, 702), At: 200 * time.Millisecond},
	}
	if len(Detect(a, other)) == 0 {
		t.Error("masked automaton should match the same shape on other hosts")
	}
	// Inconsistent binding (third flow from a third host) must not match.
	bad := []TimedFlow{
		{Key: mk(7, 8, 700), At: 0},
		{Key: mk(8, 7, 701), At: 100 * time.Millisecond},
		{Key: mk(9, 8, 702), At: 200 * time.Millisecond},
	}
	if len(Detect(a, bad)) != 0 {
		t.Error("placeholder bindings must stay consistent within a match")
	}
}

func TestUnmaskedMatchingIsHostSpecific(t *testing.T) {
	cfg := Config{MinSupport: 0.6}
	mk := func(srcLast byte, port uint16) flowlog.FlowKey {
		return flowlog.FlowKey{
			Proto:   6,
			Src:     netip.AddrFrom4([4]byte{10, 9, 0, srcLast}),
			Dst:     netip.AddrFrom4([4]byte{10, 9, 0, 100}),
			SrcPort: 500, DstPort: port,
		}
	}
	train := []flowlog.FlowKey{mk(1, 700), mk(1, 701)}
	runs := [][]Template{Normalize(train, cfg), Normalize(train, cfg)}
	a, err := Mine(context.Background(), "unmasked", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same := []TimedFlow{{Key: mk(1, 700), At: 0}, {Key: mk(1, 701), At: 50 * time.Millisecond}}
	if len(Detect(a, same)) == 0 {
		t.Error("same-host rerun should match the unmasked automaton")
	}
	foreign := []TimedFlow{{Key: mk(2, 700), At: 0}, {Key: mk(2, 701), At: 50 * time.Millisecond}}
	if len(Detect(a, foreign)) != 0 {
		t.Error("unmasked automaton must not match another host")
	}
}

func TestNormalizePortsAndMasking(t *testing.T) {
	cfg := Config{
		MaskIPs: true,
		KeepAddrs: map[netip.Addr]bool{
			netip.AddrFrom4([4]byte{10, 0, 0, 100}): true, // "NFS"
		},
	}
	run := []flowlog.FlowKey{
		{
			Proto:   6,
			Src:     netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			Dst:     netip.AddrFrom4([4]byte{10, 0, 0, 100}),
			SrcPort: 43211, DstPort: 2049,
		},
	}
	ts := Normalize(run, cfg)
	if len(ts) != 1 {
		t.Fatal("one template expected")
	}
	got := ts[0]
	if got.Src != "#1" {
		t.Errorf("src label = %q, want #1", got.Src)
	}
	if got.Dst != "10.0.0.100" {
		t.Errorf("dst label = %q, want literal kept address", got.Dst)
	}
	if got.SrcPort != AnyPort {
		t.Errorf("src port = %q, want *", got.SrcPort)
	}
	if got.DstPort != "2049" {
		t.Errorf("dst port = %q, want literal 2049 (well-known)", got.DstPort)
	}
}

func TestNormalizePlaceholderOrderStable(t *testing.T) {
	cfg := Config{MaskIPs: true}
	a := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	b := netip.AddrFrom4([4]byte{10, 0, 0, 2})
	run := []flowlog.FlowKey{
		{Proto: 6, Src: a, Dst: b, SrcPort: 100, DstPort: 200},
		{Proto: 6, Src: b, Dst: a, SrcPort: 200, DstPort: 100},
	}
	ts := Normalize(run, cfg)
	if ts[0].Src != "#1" || ts[0].Dst != "#2" || ts[1].Src != "#2" || ts[1].Dst != "#1" {
		t.Errorf("placeholder assignment wrong: %+v", ts)
	}
}

func TestStatesSortedLongestFirst(t *testing.T) {
	cfg := Config{MinSupport: 0.5}
	runs := [][]Template{
		tmpl(runOf(1, 2, 3, 4), cfg),
		tmpl(runOf(1, 2, 5, 4), cfg),
	}
	a, err := Mine(context.Background(), "sorted", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.States); i++ {
		if len(a.States[i].Seq) > len(a.States[i-1].Seq) {
			t.Fatal("states not sorted longest-first")
		}
	}
}

func TestDetectOnDisorderedInput(t *testing.T) {
	cfg := Config{MinSupport: 0.6}
	runs := [][]Template{
		tmpl(runOf(1, 2), cfg),
		tmpl(runOf(1, 2), cfg),
	}
	a, err := Mine(context.Background(), "x", runs, cfg, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Flows passed out of order must still be detected (Detect sorts).
	flows := []TimedFlow{
		{Key: flowN(2), At: 100 * time.Millisecond},
		{Key: flowN(1), At: 0},
	}
	if len(Detect(a, flows)) == 0 {
		t.Error("Detect should sort its input")
	}
}

func ExampleMine() {
	cfg := Config{MinSupport: 0.6}
	runs := [][]Template{
		Normalize(runOf(3, 4, 5), cfg),
		Normalize(runOf(3, 4, 5), cfg),
	}
	a, _ := Mine(context.Background(), "demo", runs, cfg, MineOptions{})
	fmt.Println(a.Name, a.NumStates() > 0)
	// Output: demo true
}
