package switchsim

import (
	"net/netip"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
)

// fillTable installs n exact-match entries.
func fillTable(b *testing.B, sw *Switch, n int) []flowlog.FlowKey {
	b.Helper()
	pkts := make([]flowlog.FlowKey, n)
	for i := 0; i < n; i++ {
		src := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		dst := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
		k := flowlog.FlowKey{Proto: 6, Src: src, Dst: dst, SrcPort: uint16(i), DstPort: 80}
		if err := sw.Install(&Entry{Match: ExactMatch(k), IdleTimeout: time.Minute}, 0); err != nil {
			b.Fatal(err)
		}
		pkts[i] = k
	}
	return pkts
}

func BenchmarkLookup1kEntries(b *testing.B) {
	sw := New("sw1", 1)
	pkts := fillTable(b, sw, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sw.Lookup(pkts[i%len(pkts)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkProcessHit(b *testing.B) {
	sw := New("sw1", 1)
	pkts := fillTable(b, sw, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkts[i%len(pkts)], 1500, time.Duration(i))
	}
}

func BenchmarkSweep1kEntries(b *testing.B) {
	// Nothing expires at t=30s (idle timeout is one minute), so the same
	// table can be swept repeatedly: this measures the worst-case scan.
	sw := New("sw1", 1)
	fillTable(b, sw, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := sw.Sweep(30 * time.Second); n != 0 {
			b.Fatal("unexpected expiry")
		}
	}
}
