package gen

import (
	"bytes"
	"math"
	"net/netip"
	"sort"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/topology"
)

const testWindows = 25

// encode is what the harness posts: the bytes the program sees.
func encode(t *testing.T, l *flowlog.Log) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := colseg.Write(&b, l, colseg.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func stream(t *testing.T, seed int64) (*Generator, [][]byte) {
	t.Helper()
	g, err := New(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := [][]byte{encode(t, g.Baseline())}
	for k := 0; k < testWindows; k++ {
		out = append(out, encode(t, g.StreamWindow(k)))
	}
	return g, out
}

func TestSameSeedSameBytes(t *testing.T) {
	_, a := stream(t, 7)
	_, b := stream(t, 7)
	_, c := stream(t, 8)
	differs := false
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 7: body %d differs between two generations", i)
		}
		if !bytes.Equal(a[i], c[i]) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generated identical bytes")
	}
}

func TestEventTimeNeverGoesBack(t *testing.T) {
	g, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	last := g.Baseline().End
	for _, e := range g.Baseline().Events {
		if e.Time >= last {
			t.Fatalf("baseline event at %v is not before its end %v", e.Time, last)
		}
	}
	for k := 0; k < testWindows; k++ {
		w := g.StreamWindow(k)
		if w.Start < last {
			t.Fatalf("window %d starts at %v, before %v", k, w.Start, last)
		}
		for i, e := range w.Events {
			if e.Time < last {
				t.Fatalf("window %d event %d at %v goes back before %v", k, i, e.Time, last)
			}
			if e.Time >= w.End {
				t.Fatalf("window %d event %d at %v is outside its cell ending %v", k, i, e.Time, w.End)
			}
			last = e.Time
		}
		last = w.End
	}
}

func TestWindowSizeWithinTolerance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, err := New(seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < testWindows; k++ {
			n := len(g.StreamWindow(k).Events)
			if math.Abs(float64(n)-WindowEvents) > Tolerance*WindowEvents {
				t.Errorf("seed %d window %d: %d events, want %d ±%.0f%%", seed, k, n, WindowEvents, 100*Tolerance)
			}
		}
		n := len(g.Baseline().Events)
		if want := float64(BaselineCells * WindowEvents); math.Abs(float64(n)-want) > Tolerance*want {
			t.Errorf("seed %d baseline: %d events, want %.0f ±%.0f%%", seed, n, want, 100*Tolerance)
		}
	}
}

func TestEveryNodeResolvesInTree320(t *testing.T) {
	topo, err := topology.Tree320()
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(l *flowlog.Log) {
		for _, e := range l.Events {
			for _, addr := range []netip.Addr{e.Flow.Src, e.Flow.Dst} {
				if n, ok := topo.HostByAddr(addr); !ok || n.Kind != topology.KindHost {
					t.Fatalf("address %v is not a Tree320 host", addr)
				}
			}
			n, ok := topo.Node(topology.NodeID(e.Switch))
			if !ok || n.Kind != topology.KindSwitch || n.DPID != e.DPID {
				t.Fatalf("switch %q (dpid %d) is not a Tree320 switch", e.Switch, e.DPID)
			}
		}
	}
	check(g.Baseline())
	for k := 0; k < testWindows; k++ {
		check(g.StreamWindow(k))
	}
	for _, h := range g.Hosts() {
		if n, ok := topo.Node(h); !ok || n.Kind != topology.KindHost {
			t.Fatalf("host %q is not in Tree320", h)
		}
	}
}

// midDelay is the median gap, in the shift group, from a front→mid flow
// start to the mid→back flow start that follows it within 150 ms: the
// mid tier's processing delay as the controller sees it.
func midDelay(g *Generator, l *flowlog.Log) time.Duration {
	legs := g.groups[ShiftGroup].legs
	seen := make(map[flowlog.FlowKey]bool)
	var lastFront time.Duration = -1
	var gaps []float64
	for _, e := range l.Events {
		if e.Type != flowlog.EventPacketIn || seen[e.Flow] {
			continue
		}
		seen[e.Flow] = true
		switch e.Flow.Dst {
		case legs[0].dst:
			lastFront = e.Time
		case legs[1].dst:
			if gap := e.Time - lastFront; lastFront >= 0 && gap < 150*time.Millisecond {
				gaps = append(gaps, float64(gap))
			}
		}
	}
	sort.Float64s(gaps)
	return time.Duration(gaps[len(gaps)/2])
}

func TestShiftIsExactlyEveryTenthWindow(t *testing.T) {
	g, err := New(9)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3*ShiftEvery; k++ {
		want := k%ShiftEvery == ShiftEvery-1
		if Shifted(k) != want {
			t.Fatalf("Shifted(%d) = %v", k, Shifted(k))
		}
		d := midDelay(g, g.StreamWindow(k))
		if got := d > Shift; got != want {
			t.Errorf("window %d: mid-tier delay %v, shifted=%v", k, d, want)
		}
	}
	if d := midDelay(g, g.Baseline()); d > Shift {
		t.Errorf("baseline carries the shift: mid-tier delay %v", d)
	}
}
