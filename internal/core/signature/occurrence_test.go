package signature

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
)

// messyLog builds a log designed to stress every extraction edge case:
// many keys, multiple episodes per key (gap splits), FlowMod-only keys
// (wildcard mode), FlowRemoved noise, equal-start ties across keys, and
// — when shuffle is set — out-of-order events.
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
// against the retained batch oracle: Occurrences, and the
// OccurrencesSharded shim flowbench still times, must produce the
// byte-identical occurrence slice occurrencesReference does, on sorted
// and on shuffled logs.
func TestOccurrencesShardedMatchesSerial(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		name := "sorted"
		if shuffle {
			name = "shuffled"
		}
		t.Run(name, func(t *testing.T) {
			log := messyLog(t, 800, shuffle)
			want := occurrencesReference(log, 0)
			if len(want) == 0 {
				t.Fatal("reference extraction found nothing; equivalence would be vacuous")
			}
			if got := Occurrences(log, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("Occurrences differs from the reference (%d vs %d occurrences)", len(got), len(want))
			}
			if got := OccurrencesSharded(log, Config{}); !reflect.DeepEqual(got, want) {
				t.Errorf("OccurrencesSharded differs from the reference (%d vs %d occurrences)", len(got), len(want))
			}
		})
	}
}

// TestOccurrencesShardedSmallLogFallback: a one-event log comes out of
// the shim right.
func TestOccurrencesShardedSmallLogFallback(t *testing.T) {
	l := flowlog.New(0, time.Minute)
	key := flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 1, DstPort: 2}
	l.Append(flowlog.Event{Time: time.Second, Type: flowlog.EventPacketIn, Switch: "sw", Flow: key})
	want := occurrencesReference(l, 0)
	got := OccurrencesSharded(l, Config{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("small-log result differs: %+v vs %+v", got, want)
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
