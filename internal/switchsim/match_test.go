package switchsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"flowdiff/internal/flowlog"
)

var (
	addrA = netip.MustParseAddr("10.1.0.1")
	addrB = netip.MustParseAddr("10.1.0.2")
	addrC = netip.MustParseAddr("10.2.0.3")
)

func udp(src, dst netip.Addr, sp, dp uint16) flowlog.FlowKey {
	k := pkt(src, dst, sp, dp)
	k.Proto = 17
	return k
}

func TestExactMatchMatchesItself(t *testing.T) {
	e := ExactMatch(pkt(addrA, addrB, 1000, 80))
	if !e.Matches(pkt(addrA, addrB, 1000, 80)) {
		t.Error("exact entry should match the identical packet")
	}
	if e.HostPair {
		t.Error("ExactMatch should be exact")
	}
}

func TestExactMatchRejectsDifferences(t *testing.T) {
	e := ExactMatch(pkt(addrA, addrB, 1000, 80))
	cases := []struct {
		name string
		p    flowlog.FlowKey
	}{
		{"different src addr", pkt(addrC, addrB, 1000, 80)},
		{"different dst addr", pkt(addrA, addrC, 1000, 80)},
		{"different proto", udp(addrA, addrB, 1000, 80)},
		{"different src port", pkt(addrA, addrB, 1001, 80)},
		{"different dst port", pkt(addrA, addrB, 1000, 443)},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if e.Matches(tt.p) {
				t.Error("exact entry matched a differing packet")
			}
		})
	}
}

func TestHostPairMatchIgnoresPorts(t *testing.T) {
	w := HostPairMatch(addrA, addrB)
	if !w.HostPair {
		t.Error("HostPairMatch should not be exact")
	}
	if !w.Matches(pkt(addrA, addrB, 1, 2)) {
		t.Error("wildcard entry should match any ports")
	}
	if !w.Matches(udp(addrA, addrB, 9999, 53)) {
		t.Error("wildcard entry should match any protocol")
	}
	if w.Matches(pkt(addrB, addrA, 1, 2)) {
		t.Error("wildcard entry should not match reversed hosts")
	}
}

func TestMoreSpecificWildcardsSubsume(t *testing.T) {
	// Property: if an exact entry matches a packet, the host-pair wildcard
	// built from the same addresses also matches it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var srcB, dstB [4]byte
		rng.Read(srcB[:])
		rng.Read(dstB[:])
		src := netip.AddrFrom4(srcB)
		dst := netip.AddrFrom4(dstB)
		p := pkt(src, dst, uint16(rng.Intn(65536)), uint16(rng.Intn(65536)))
		exact := ExactMatch(p)
		wide := HostPairMatch(src, dst)
		return !exact.Matches(p) || wide.Matches(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
