package diagnose

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"flowdiff/internal/core/diff"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/obs"
	"flowdiff/internal/topology"
)

func labTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func suspectByID(suspects []SuspectScore, id string) (SuspectScore, bool) {
	for _, s := range suspects {
		if s.Component == id {
			return s, true
		}
	}
	return SuspectScore{}, false
}

func TestRankSuspectsVoteNormalization(t *testing.T) {
	topo := labTopo(t)
	// One impacted flow S3 (sw2) -> S8 (sw3). Path elements: links
	// S3-sw2, sw2-sw1, sw1-sw3, sw3-S8 and switches sw2, sw1, sw3 — 7
	// components, so each receives 1/7 of the flow's single vote.
	unknown := []diff.Change{change(signature.KindFS, 0, "S3", "S8")}
	suspects := RankSuspectsContext(context.Background(), unknown, topo)
	if len(suspects) != 7 {
		t.Fatalf("want 7 suspects, got %d: %+v", len(suspects), suspects)
	}
	const w = 1.0 / 7
	for _, s := range suspects {
		if math.Abs(s.Votes-w) > 1e-12 {
			t.Errorf("%s: votes = %v, want %v", s.Component, s.Votes, w)
		}
		if s.Flows != 1 {
			t.Errorf("%s: flows = %d, want 1", s.Component, s.Flows)
		}
		if s.IsLink {
			if s.Score != s.Votes {
				t.Errorf("link %s: score %v != votes %v", s.Component, s.Score, s.Votes)
			}
		} else {
			// Every switch on this path touches exactly two voted links,
			// so the coverage demotion is 2/3.
			if math.Abs(s.Score-w*2.0/3.0) > 1e-12 {
				t.Errorf("switch %s: score = %v, want %v", s.Component, s.Score, w*2.0/3.0)
			}
		}
	}
	// With uniform votes the demoted switches sink below every link.
	for i := 0; i < 4; i++ {
		if !suspects[i].IsLink {
			t.Errorf("rank %d should be a link, got %+v", i, suspects[i])
		}
	}
}

func TestRankSuspectsDedupesFlows(t *testing.T) {
	topo := labTopo(t)
	// The same S3->S8 flow named by an FS change and a DD-style change
	// must vote once, not twice.
	unknown := []diff.Change{
		change(signature.KindFS, 0, "S3", "S8"),
		change(signature.KindCG, 0, "S8", "S3"),
	}
	suspects := RankSuspectsContext(context.Background(), unknown, topo)
	sw1, ok := suspectByID(suspects, "sw1")
	if !ok {
		t.Fatalf("sw1 missing from %+v", suspects)
	}
	if sw1.Flows != 1 {
		t.Errorf("sw1 flows = %d, want 1 (duplicate pair must be deduped)", sw1.Flows)
	}
	if math.Abs(sw1.Votes-1.0/7) > 1e-12 {
		t.Errorf("sw1 votes = %v, want 1/7", sw1.Votes)
	}
}

func TestRankSuspectsSkipsNonFlowChanges(t *testing.T) {
	topo := labTopo(t)
	unknown := []diff.Change{
		change(signature.KindISL, 0, "sw1", "sw2"), // switches, not hosts
		change(signature.KindDD, 0, "S3"),          // single host
		change(signature.KindCRT, 0, "controller"), // not a topology node
	}
	if got := RankSuspectsContext(context.Background(), unknown, topo); got != nil {
		t.Errorf("changes without host pairs must produce no suspects, got %+v", got)
	}
}

func TestRankSuspectsNilInputs(t *testing.T) {
	topo := labTopo(t)
	if got := RankSuspectsContext(context.Background(), nil, topo); got != nil {
		t.Errorf("nil changes: got %+v", got)
	}
	if got := RankSuspectsContext(context.Background(), []diff.Change{change(signature.KindFS, 0, "S3", "S8")}, nil); got != nil {
		t.Errorf("nil topology: got %+v", got)
	}
}

func TestRankSuspectsDeterministic(t *testing.T) {
	topo := labTopo(t)
	var unknown []diff.Change
	for i := 1; i <= 20; i++ {
		unknown = append(unknown, change(signature.KindFS, 0,
			fmt.Sprintf("S%d", i), fmt.Sprintf("S%d", 26-i)))
	}
	first := RankSuspectsContext(context.Background(), unknown, topo)
	for i := 0; i < 10; i++ {
		if got := RankSuspectsContext(context.Background(), unknown, topo); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs:\n%+v\nvs\n%+v", i, got, first)
		}
	}
}

func TestRankSuspectsObservability(t *testing.T) {
	topo := labTopo(t)
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	unknown := []diff.Change{change(signature.KindFS, 0, "S3", "S8")}
	RankSuspectsContext(ctx, unknown, topo)
	// One flow voting on 7 path components casts 7 votes.
	if got := reg.Counter("diagnose.votes").Value(); got != 7 {
		t.Errorf("diagnose.votes = %d, want 7", got)
	}
	if got := reg.Histogram("span.diagnose.tally").Count(); got != 1 {
		t.Errorf("span.diagnose.tally count = %d, want 1", got)
	}
}

func BenchmarkRankSuspects(b *testing.B) {
	topo := labTopo(b)
	var unknown []diff.Change
	for i := 1; i <= 25; i++ {
		for j := i + 1; j <= 25; j++ {
			unknown = append(unknown, change(signature.KindFS, 0,
				fmt.Sprintf("S%d", i), fmt.Sprintf("S%d", j)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := RankSuspectsContext(context.Background(), unknown, topo); len(got) == 0 {
			b.Fatal("empty ranking")
		}
	}
}
