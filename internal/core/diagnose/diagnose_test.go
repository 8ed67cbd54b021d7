package diagnose

import (
	"context"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/diff"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/core/taskmine"
	"flowdiff/internal/topology"
)

func change(k signature.Kind, at time.Duration, comps ...string) diff.Change {
	return diff.Change{Kind: k, At: at, Components: comps, Description: string(k) + " change"}
}

func labResolver(t *testing.T) *appgroup.Resolver {
	t.Helper()
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	return appgroup.NewResolver(topo)
}

func TestValidateExplainsTaskChanges(t *testing.T) {
	r := labResolver(t)
	topo, _ := topology.Lab()
	v1, _ := topo.Node("V1")
	v2, _ := topo.Node("V2")

	changes := []diff.Change{
		change(signature.KindCG, 100*time.Second, "V1", "V2"),
		change(signature.KindCG, 500*time.Second, "S1", "S3"), // unrelated time
		change(signature.KindDD, 0, "S9"),                     // unrelated components
	}
	tasks := []taskmine.Detection{{
		Task:  "vm-migration",
		Start: 99 * time.Second,
		End:   101 * time.Second,
		Hosts: []string{v1.Addr.String(), v2.Addr.String()},
	}}
	known, unknown := Validate(changes, tasks, r, 5*time.Second)
	if len(known) != 1 || known[0].Components[0] != "V1" {
		t.Errorf("known = %+v", known)
	}
	if len(unknown) != 2 {
		t.Errorf("unknown = %+v", unknown)
	}
}

func TestValidateRequiresComponentOverlap(t *testing.T) {
	r := labResolver(t)
	changes := []diff.Change{change(signature.KindCG, 100*time.Second, "S1", "S3")}
	tasks := []taskmine.Detection{{
		Task: "t", Start: 99 * time.Second, End: 101 * time.Second,
		Hosts: []string{"10.0.2.1"}, // V1 only
	}}
	known, unknown := Validate(changes, tasks, r, 5*time.Second)
	if len(known) != 0 || len(unknown) != 1 {
		t.Errorf("time overlap without component overlap must not explain: known=%v", known)
	}
}

func TestValidateNoTasks(t *testing.T) {
	changes := []diff.Change{change(signature.KindCG, 0, "A")}
	known, unknown := Validate(changes, nil, nil, 0)
	if len(known) != 0 || len(unknown) != 1 {
		t.Error("without tasks everything is unknown")
	}
}

func TestBuildMatrixCongestion(t *testing.T) {
	// Figure 8a: DD/PC/FS changed together with ISL.
	unknown := []diff.Change{
		change(signature.KindDD, 0, "S3"),
		change(signature.KindPC, 0, "S3"),
		change(signature.KindFS, 0, "S1", "S3"),
		change(signature.KindISL, 0, "sw1", "sw2"),
	}
	m := BuildMatrix(unknown)
	for _, row := range []signature.Kind{signature.KindDD, signature.KindPC, signature.KindFS} {
		if !m.Cells[row][signature.KindISL] {
			t.Errorf("cell %v x ISL not set", row)
		}
		if m.Cells[row][signature.KindPT] || m.Cells[row][signature.KindCRT] {
			t.Errorf("cell %v has spurious PT/CRT", row)
		}
	}
	if m.Cells[signature.KindCG][signature.KindISL] {
		t.Error("CG did not change; its row must be empty")
	}
}

func TestBuildMatrixSwitchFailure(t *testing.T) {
	// Figure 8b: only CG x PT set.
	unknown := []diff.Change{
		change(signature.KindCG, 0, "S1", "S3"),
		change(signature.KindPT, 0, "sw2"),
	}
	m := BuildMatrix(unknown)
	if !m.Cells[signature.KindCG][signature.KindPT] {
		t.Error("CG x PT should be set")
	}
	for _, row := range m.Rows {
		for _, col := range m.Cols {
			if row == signature.KindCG && col == signature.KindPT {
				continue
			}
			if m.Cells[row][col] {
				t.Errorf("spurious cell %v x %v", row, col)
			}
		}
	}
	s := m.String()
	if !strings.Contains(s, "CG") || !strings.Contains(s, "PT") {
		t.Errorf("matrix render missing headers:\n%s", s)
	}
}

func TestClassifyCongestion(t *testing.T) {
	unknown := []diff.Change{
		change(signature.KindDD, 0, "S3"),
		change(signature.KindPC, 0, "S3"),
		change(signature.KindFS, 0, "S1", "S3"),
		change(signature.KindISL, 0, "sw1", "sw2"),
	}
	ranked := Classify(unknown)
	if len(ranked) == 0 {
		t.Fatal("no classification")
	}
	if ranked[0].Problem != NetworkBottleneck && ranked[0].Problem != SwitchOverhead {
		t.Errorf("top hypothesis = %v, want congestion-flavored", ranked[0].Problem)
	}
}

func TestClassifyUnauthorizedAccess(t *testing.T) {
	unknown := []diff.Change{
		{Kind: signature.KindCG, Description: "new edge ip:203.0.113.9->S8", Components: []string{"ip:203.0.113.9", "S8"}},
		change(signature.KindCI, 0, "S8"),
		change(signature.KindFS, 0, "S8"),
	}
	ranked := Classify(unknown)
	if len(ranked) == 0 {
		t.Fatal("no classification")
	}
	if ranked[0].Problem != UnauthorizedAccess {
		t.Errorf("top hypothesis = %v, want unauthorized access (ranking %+v)", ranked[0].Problem, ranked)
	}
}

func TestClassifyHostVsAppFailure(t *testing.T) {
	// Host failure: node lost multiple edges, nothing added.
	hostDown := []diff.Change{
		{Kind: signature.KindCG, Description: "edge S2->S3 missing", Components: []string{"S2", "S3"}},
		{Kind: signature.KindCG, Description: "edge S3->S8 missing", Components: []string{"S3", "S8"}},
		change(signature.KindCI, 0, "S3"),
		change(signature.KindFS, 0, "S3"),
	}
	ranked := Classify(hostDown)
	if len(ranked) == 0 {
		t.Fatal("no classification")
	}
	if ranked[0].Problem != HostFailure {
		t.Errorf("top hypothesis = %v, want host failure", ranked[0].Problem)
	}
}

// TestClassifyDistinctPeerRequirement pins the host-failure heuristic to
// DISTINCT lost peers: losing two flows to the same peer is one broken
// dependency (application failure), not a disappearing host. The
// pre-fix code counted change rows instead of peers and bumped host
// failure in both cases.
func TestClassifyDistinctPeerRequirement(t *testing.T) {
	// Host vs application failure share an impact pattern, so without
	// the +0.25 host-failure bump the alphabetical tie-break puts
	// application failure first.
	samePeer := []diff.Change{
		{Kind: signature.KindCG, Description: "edge S3->S8 missing", Components: []string{"S3", "S8"}},
		{Kind: signature.KindCG, Description: "edge S8->S3 missing", Components: []string{"S8", "S3"}},
		change(signature.KindCI, 0, "S3"),
		change(signature.KindFS, 0, "S3"),
	}
	ranked := Classify(samePeer)
	if len(ranked) == 0 {
		t.Fatal("no classification")
	}
	if ranked[0].Problem == HostFailure {
		t.Errorf("two lost edges to the SAME peer must not suggest host failure: %+v", ranked)
	}

	distinctPeers := []diff.Change{
		{Kind: signature.KindCG, Description: "edge S2->S3 missing", Components: []string{"S2", "S3"}},
		{Kind: signature.KindCG, Description: "edge S3->S8 missing", Components: []string{"S3", "S8"}},
		change(signature.KindCI, 0, "S3"),
		change(signature.KindFS, 0, "S3"),
	}
	ranked = Classify(distinctPeers)
	if len(ranked) == 0 {
		t.Fatal("no classification")
	}
	if ranked[0].Problem != HostFailure {
		t.Errorf("edges lost to two DISTINCT peers must suggest host failure: %+v", ranked)
	}
}

// TestValidateWindowBoundaries pins the inclusive boundary semantics of
// the validation window and the components-only matching of At == 0
// changes.
func TestValidateWindowBoundaries(t *testing.T) {
	const window = 5 * time.Second
	task := taskmine.Detection{
		Task:  "t",
		Start: 100 * time.Second,
		End:   200 * time.Second,
		Hosts: []string{"S3"},
	}
	cases := []struct {
		name      string
		at        time.Duration
		wantKnown bool
	}{
		{"exactly Start-window is inside (inclusive)", 95 * time.Second, true},
		{"one ns before Start-window is outside", 95*time.Second - time.Nanosecond, false},
		{"exactly End+window is inside (inclusive)", 205 * time.Second, true},
		{"one ns after End+window is outside", 205*time.Second + time.Nanosecond, false},
		{"inside the task span", 150 * time.Second, true},
		{"At zero matches on components only", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			changes := []diff.Change{change(signature.KindCI, tc.at, "S3")}
			known, unknown := Validate(changes, []taskmine.Detection{task}, nil, window)
			if got := len(known) == 1; got != tc.wantKnown {
				t.Errorf("at %v: known=%v unknown=%v, want explained=%v",
					tc.at, known, unknown, tc.wantKnown)
			}
		})
	}
	// At == 0 with no component overlap stays unknown even though the
	// time filter cannot reject it.
	changes := []diff.Change{change(signature.KindCI, 0, "S9")}
	if known, _ := Validate(changes, []taskmine.Detection{task}, nil, window); len(known) != 0 {
		t.Errorf("components-only match must still require overlap: %+v", known)
	}
}

func TestClassifyEmpty(t *testing.T) {
	if got := Classify(nil); got != nil {
		t.Errorf("Classify(nil) = %v", got)
	}
}

func TestRankComponents(t *testing.T) {
	unknown := []diff.Change{
		change(signature.KindCG, 0, "S3", "S8"),
		change(signature.KindCI, 0, "S3"),
		change(signature.KindDD, 0, "S3"),
		change(signature.KindFS, 0, "S8"),
	}
	ranking := RankComponents(unknown)
	if len(ranking) != 2 {
		t.Fatalf("ranking = %+v", ranking)
	}
	if ranking[0].Component != "S3" || ranking[0].Changes != 3 {
		t.Errorf("top = %+v, want S3 with 3 changes", ranking[0])
	}
	if ranking[1].Component != "S8" || ranking[1].Changes != 2 {
		t.Errorf("second = %+v", ranking[1])
	}
}

func TestDiagnoseEndToEnd(t *testing.T) {
	r := labResolver(t)
	changes := []diff.Change{
		change(signature.KindCG, 10*time.Second, "S3", "S8"),
		change(signature.KindCI, 0, "S3"),
	}
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	rep := DiagnoseContext(context.Background(), changes, nil, r, topo, 0)
	if len(rep.Unknown) != 2 || len(rep.Known) != 0 {
		t.Errorf("report split wrong: %+v", rep)
	}
	if len(rep.Problems) == 0 || len(rep.Ranking) == 0 {
		t.Error("report missing classification or ranking")
	}
	// The CG change names hosts S3 (behind sw2) and S8 (behind sw3), so
	// the suspect tally must cover their path through the fabric.
	if len(rep.Suspects) == 0 {
		t.Fatal("report missing suspects")
	}
	got := make(map[string]bool, len(rep.Suspects))
	for _, s := range rep.Suspects {
		got[s.Component] = true
	}
	for _, want := range []string{"sw1", "sw2", "sw3", topology.LinkID("S3", "sw2"), topology.LinkID("S8", "sw3")} {
		if !got[want] {
			t.Errorf("suspects missing %s: %+v", want, rep.Suspects)
		}
	}
}

// TestClassifyAllPatterns feeds each Figure 2b class's exact impact set to
// the classifier and checks the class lands at or near the top.
func TestClassifyAllPatterns(t *testing.T) {
	for problem := range map[Problem]bool{
		HostFailure: true, HostPerformance: true, AppFailure: true,
		AppPerformance: true, NetworkDisconnect: true, NetworkBottleneck: true,
		SwitchMisconfig: true, SwitchOverhead: true, ControllerOverhead: true,
		SwitchFailure: true, ControllerFailure: true, UnauthorizedAccess: true,
	} {
		var changes []diff.Change
		for _, k := range PatternOf(problem) {
			c := change(k, 0, "X")
			if problem == UnauthorizedAccess && k == signature.KindCG {
				c = diff.Change{Kind: k, Description: "new edge ip:203.0.113.9->X", Components: []string{"ip:203.0.113.9", "X"}}
			}
			changes = append(changes, c)
		}
		ranked := Classify(changes)
		if len(ranked) == 0 {
			t.Fatalf("%s: no classification", problem)
		}
		// The true class must appear within the top 3 (several classes
		// intentionally share patterns, e.g. host vs application failure).
		found := false
		for i, s := range ranked {
			if i >= 3 {
				break
			}
			if s.Problem == problem {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: not in top-3 of %+v", problem, ranked[:min(3, len(ranked))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPatternOfUnknown(t *testing.T) {
	if PatternOf(Problem("nonsense")) != nil {
		t.Error("unknown problem should have nil pattern")
	}
}
