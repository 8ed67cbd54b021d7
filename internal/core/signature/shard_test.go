package signature

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
)

// messyLog builds a log designed to stress every extraction edge case:
// many keys (well past the sharded-path threshold), multiple episodes
// per key (gap splits), FlowMod-only keys (wildcard mode), FlowRemoved
// noise, equal-start ties across keys, and — when shuffle is set —
// out-of-order events.
func messyLog(t *testing.T, nKeys int, shuffle bool) *flowlog.Log {
	t.Helper()
	l := flowlog.New(0, 10*time.Minute)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < nKeys; k++ {
		key := flowlog.FlowKey{
			Proto:   6,
			Src:     netip.AddrFrom4([4]byte{10, byte(k >> 8), byte(k), 1}),
			Dst:     netip.AddrFrom4([4]byte{10, byte(k >> 8), byte(k), 2}),
			SrcPort: uint16(1024 + k),
			DstPort: 80,
		}
		// All keys share episode start times so the final sort must
		// tie-break on the key itself.
		for ep := 0; ep < 3; ep++ {
			t0 := time.Duration(ep) * 90 * time.Second
			if k%5 == 0 {
				// Wildcard-style key: FlowMods only, no PacketIn.
				l.Append(flowlog.Event{Time: t0, Type: flowlog.EventFlowMod, Switch: "sw1", Flow: key})
				continue
			}
			l.Append(flowlog.Event{Time: t0, Type: flowlog.EventPacketIn, Switch: "sw1", Flow: key})
			l.Append(flowlog.Event{Time: t0 + 2*time.Millisecond, Type: flowlog.EventFlowMod, Switch: "sw1", Flow: key})
			l.Append(flowlog.Event{Time: t0 + 4*time.Millisecond, Type: flowlog.EventPacketIn, Switch: "sw2", Flow: key})
			l.Append(flowlog.Event{Time: t0 + 30*time.Second, Type: flowlog.EventFlowRemoved, Switch: "sw1", Flow: key, Bytes: 100})
		}
	}
	if shuffle {
		rng.Shuffle(len(l.Events), func(i, j int) {
			l.Events[i], l.Events[j] = l.Events[j], l.Events[i]
		})
	} else {
		l.Sort()
	}
	return l
}

// TestOccurrencesShardedMatchesSerial pins the extraction equivalence
// against the retained batch oracle: Occurrences and sharded extraction
// at every worker count must produce the byte-identical occurrence
// slice occurrencesReference does, on sorted and on shuffled logs.
func TestOccurrencesShardedMatchesSerial(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		name := "sorted"
		if shuffle {
			name = "shuffled"
		}
		t.Run(name, func(t *testing.T) {
			// Raise GOMAXPROCS so the widths below mean real concurrency
			// even on single-CPU CI hosts (the exported entry point clamps;
			// the unclamped core is what this equivalence must hold for).
			old := runtime.GOMAXPROCS(8)
			defer runtime.GOMAXPROCS(old)
			log := messyLog(t, 800, shuffle)
			want := occurrencesReference(log, 0)
			if len(want) == 0 {
				t.Fatal("reference extraction found nothing; equivalence would be vacuous")
			}
			if got := Occurrences(log, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("Occurrences differs from the reference (%d vs %d occurrences)", len(got), len(want))
			}
			for _, workers := range []int{1, 2, 4, 7, runtime.GOMAXPROCS(0)} {
				got := occurrencesSharded(context.Background(), log, 0, workers)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: sharded extraction differs from the reference (%d vs %d occurrences)", workers, len(got), len(want))
				}
			}
		})
	}
}

// TestOccurrencesShardedSmallLogFallback: a log far smaller than one
// drain stage must still come out of the sharded entry point right.
func TestOccurrencesShardedSmallLogFallback(t *testing.T) {
	l := flowlog.New(0, time.Minute)
	key := flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 1, DstPort: 2}
	l.Append(flowlog.Event{Time: time.Second, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	want := occurrencesReference(l, 0)
	got := OccurrencesSharded(l, Config{Parallelism: 4})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("small-log sharded result differs: %+v vs %+v", got, want)
	}
}

// TestOccurrencesShardedClampsWorkers: the exported entry point must
// clamp absurd worker requests to the CPU count instead of spawning
// hundreds of goroutines — and still produce the serial result.
func TestOccurrencesShardedClampsWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	log := messyLog(t, 800, false)
	want := occurrencesReference(log, 0)
	got := OccurrencesSharded(log, Config{Parallelism: 512})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clamped sharded extraction differs from serial (%d vs %d occurrences)", len(got), len(want))
	}
}

// TestCompareKeysTotalOrder checks the allocation-free comparator is a
// strict total order consistent with itself (antisymmetric, transitive
// on a sampled set, zero only on equality).
func TestCompareKeysTotalOrder(t *testing.T) {
	keys := []flowlog.FlowKey{
		{},
		{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 10, DstPort: 80},
		{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 11, DstPort: 80},
		{Proto: 6, Src: addr(1), Dst: addr(3), SrcPort: 10, DstPort: 80},
		{Proto: 6, Src: addr(2), Dst: addr(1), SrcPort: 10, DstPort: 80},
		{Proto: 17, Src: addr(1), Dst: addr(2), SrcPort: 10, DstPort: 80},
		{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 10, DstPort: 443},
	}
	for i, a := range keys {
		for j, b := range keys {
			c, rc := compareKeys(a, b), compareKeys(b, a)
			if (i == j) != (c == 0) {
				t.Errorf("compareKeys(%v,%v)=%d; equality must hold exactly for identical keys", a, b, c)
			}
			if c != -rc {
				t.Errorf("compareKeys not antisymmetric on %v,%v: %d vs %d", a, b, c, rc)
			}
			for k, cc := range keys {
				if compareKeys(a, b) < 0 && compareKeys(b, cc) < 0 && compareKeys(a, keys[k]) >= 0 {
					t.Errorf("compareKeys not transitive on %v,%v,%v", a, b, cc)
				}
			}
		}
	}
}

// TestMergeOccurrences exercises the k-way merge on uneven shards.
func TestMergeOccurrences(t *testing.T) {
	mk := func(starts ...int) []Occurrence {
		out := make([]Occurrence, len(starts))
		for i, s := range starts {
			out[i] = Occurrence{Start: time.Duration(s) * time.Second, Events: []flowlog.Event{{}}}
		}
		return out
	}
	got := mergeOccurrences([][]Occurrence{mk(1, 4, 9), nil, mk(2), mk(3, 5, 6, 7, 8)})
	var starts []int
	for _, o := range got {
		starts = append(starts, int(o.Start/time.Second))
	}
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(starts, want) {
		t.Errorf("merged starts = %v, want %v", starts, want)
	}
}

func BenchmarkOccurrencesSerial(b *testing.B) {
	for _, n := range []int{100_000, 500_000} {
		log := benchLog(n)
		b.Run(fmt.Sprintf("events=%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Occurrences(log, 0)
			}
		})
	}
}
