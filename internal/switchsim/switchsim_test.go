package switchsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"flowdiff/internal/flowlog"
)

var (
	hostA = netip.MustParseAddr("10.0.0.1")
	hostB = netip.MustParseAddr("10.0.0.2")
	hostC = netip.MustParseAddr("10.0.0.3")
)

// pkt is the flow key of a TCP packet.
func pkt(src, dst netip.Addr, sp, dp uint16) flowlog.FlowKey {
	return flowlog.FlowKey{Proto: 6, Src: src, Dst: dst, SrcPort: sp, DstPort: dp}
}

// TestMissFiresPacketIn: a table miss returns ok=false, which the
// simulator turns into a PacketIn; it touches no entry.
func TestMissFiresPacketIn(t *testing.T) {
	sw := New("sw1", 1)
	if e, ok := sw.Process(pkt(hostA, hostB, 1, 2), 100, 0); ok || e != nil {
		t.Error("empty table should miss")
	}
	other := &Entry{Match: ExactMatch(pkt(hostA, hostC, 1, 2))}
	sw.Install(other, 0)
	if _, ok := sw.Process(pkt(hostA, hostB, 1, 2), 100, time.Second); ok {
		t.Error("a packet matching no entry should miss")
	}
	if other.Packets != 0 || other.Bytes != 0 || other.LastMatched != 0 {
		t.Errorf("a miss updated another entry: %+v", other)
	}
}

func TestInstallThenHit(t *testing.T) {
	sw := New("sw1", 1)
	e := &Entry{Match: ExactMatch(pkt(hostA, hostB, 1, 2)), OutPort: 4, IdleTimeout: 5 * time.Second}
	if err := sw.Install(e, time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := sw.Process(pkt(hostA, hostB, 1, 2), 150, 2*time.Second)
	if !ok || got != e {
		t.Fatal("expected hit on installed entry")
	}
	if e.Packets != 1 || e.Bytes != 150 {
		t.Errorf("counters = %d pkts %d bytes", e.Packets, e.Bytes)
	}
	if e.LastMatched != 2*time.Second {
		t.Errorf("LastMatched = %v", e.LastMatched)
	}
	// Different flow still misses.
	if _, ok := sw.Process(pkt(hostA, hostC, 1, 2), 10, 2*time.Second); ok {
		t.Error("different flow should miss")
	}
}

func TestPriorityOrder(t *testing.T) {
	sw := New("sw1", 1)
	low := &Entry{Match: HostPairMatch(hostA, hostB), Priority: 1, OutPort: 1}
	high := &Entry{Match: ExactMatch(pkt(hostA, hostB, 1, 2)), Priority: 10, OutPort: 2}
	sw.Install(low, 0)
	sw.Install(high, 0)
	got, ok := sw.Lookup(pkt(hostA, hostB, 1, 2))
	if !ok || got != high {
		t.Error("high-priority exact entry should win")
	}
	got, ok = sw.Lookup(pkt(hostA, hostB, 9, 9))
	if !ok || got != low {
		t.Error("wildcard entry should catch other ports")
	}
}

func TestIdleTimeoutSweep(t *testing.T) {
	sw := New("sw1", 1)
	var removedReasons []uint8
	sw.OnFlowRemoved(func(s *Switch, e *Entry, reason uint8, now time.Duration) {
		removedReasons = append(removedReasons, reason)
	})
	e := &Entry{
		Match:       ExactMatch(pkt(hostA, hostB, 1, 2)),
		IdleTimeout: 5 * time.Second, NotifyRemoved: true,
	}
	sw.Install(e, 0)
	sw.Process(pkt(hostA, hostB, 1, 2), 10, 2*time.Second)
	if n := sw.Sweep(6 * time.Second); n != 0 {
		t.Error("entry matched at 2s should survive sweep at 6s")
	}
	if n := sw.Sweep(7 * time.Second); n != 1 {
		t.Error("entry should expire 5s after last match")
	}
	if len(removedReasons) != 1 || removedReasons[0] != FlowRemovedReasonIdleTimeout {
		t.Errorf("reasons = %v", removedReasons)
	}
	if _, ok := sw.Lookup(pkt(hostA, hostB, 1, 2)); ok {
		t.Error("table should be empty after expiry")
	}
}

func TestHardTimeoutBeatsIdle(t *testing.T) {
	sw := New("sw1", 1)
	var reason uint8
	sw.OnFlowRemoved(func(_ *Switch, _ *Entry, r uint8, _ time.Duration) { reason = r })
	e := &Entry{
		Match:       ExactMatch(pkt(hostA, hostB, 1, 2)),
		IdleTimeout: 5 * time.Second, HardTimeout: 8 * time.Second, NotifyRemoved: true,
	}
	sw.Install(e, 0)
	// Keep the entry busy so idle never fires, then hit the hard timeout.
	for ts := time.Second; ts < 8*time.Second; ts += time.Second {
		sw.Process(pkt(hostA, hostB, 1, 2), 1, ts)
	}
	if n := sw.Sweep(8 * time.Second); n != 1 {
		t.Fatal("hard timeout should expire the busy entry")
	}
	if reason != FlowRemovedReasonHardTimeout {
		t.Errorf("reason = %d, want hard timeout", reason)
	}
}

func TestDownSwitchDropsSilently(t *testing.T) {
	sw := New("sw1", 1)
	e := &Entry{Match: ExactMatch(pkt(hostA, hostB, 1, 2)), IdleTimeout: time.Nanosecond}
	sw.Install(e, 0)
	sw.Down = true
	if got, ok := sw.Process(pkt(hostA, hostB, 1, 2), 10, 0); ok || got != nil {
		t.Error("down switch should not forward, even on a matching entry")
	}
	if e.Packets != 0 {
		t.Error("down switch counted a dropped packet")
	}
	if n := sw.Sweep(time.Hour); n != 0 {
		t.Error("down switch should not emit FlowRemoved")
	}
}

func TestAccount(t *testing.T) {
	sw := New("sw1", 1)
	e := &Entry{Match: ExactMatch(pkt(hostA, hostB, 1, 2))}
	sw.Install(e, 0)
	sw.Account(e, 9, 900, 3*time.Second)
	if e.Packets != 9 || e.Bytes != 900 || e.LastMatched != 3*time.Second {
		t.Errorf("entry after Account = %+v", e)
	}
	// Account with an earlier timestamp must not move LastMatched back.
	sw.Account(e, 1, 100, time.Second)
	if e.LastMatched != 3*time.Second {
		t.Error("LastMatched moved backwards")
	}
}

func TestNextExpiry(t *testing.T) {
	sw := New("sw1", 1)
	if _, ok := sw.NextExpiry(); ok {
		t.Error("empty table has no expiry")
	}
	sw.Install(&Entry{Match: ExactMatch(pkt(hostA, hostB, 1, 2)), IdleTimeout: 5 * time.Second}, time.Second)
	sw.Install(&Entry{Match: ExactMatch(pkt(hostA, hostC, 1, 2)), HardTimeout: 3 * time.Second}, 2*time.Second)
	at, ok := sw.NextExpiry()
	if !ok || at != 5*time.Second {
		t.Errorf("NextExpiry = %v, %v; want 5s", at, ok)
	}
	sw.Install(&Entry{Match: ExactMatch(pkt(hostB, hostC, 1, 2))}, 0) // no timeouts
	if at, _ := sw.NextExpiry(); at != 5*time.Second {
		t.Errorf("timeout-free entry changed NextExpiry to %v", at)
	}
}

func TestInstallNil(t *testing.T) {
	sw := New("sw1", 1)
	if err := sw.Install(nil, 0); err == nil {
		t.Error("want error on nil entry")
	}
}

// Property: after any sequence of installs and sweeps, every surviving
// entry is genuinely not expired, and sweep is idempotent at a fixed time.
func TestSweepProperty(t *testing.T) {
	g := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sw := New("sw1", 1)
		var now time.Duration
		for i := 0; i < 60; i++ {
			now += time.Duration(rng.Intn(2000)) * time.Millisecond
			switch rng.Intn(3) {
			case 0:
				sw.Install(&Entry{
					Match:       ExactMatch(pkt(hostA, hostB, uint16(rng.Intn(1000)), 80)),
					IdleTimeout: time.Duration(rng.Intn(10)) * time.Second,
					HardTimeout: time.Duration(rng.Intn(20)) * time.Second,
				}, now)
			case 1:
				sw.Process(pkt(hostA, hostB, uint16(rng.Intn(1000)), 80), 64, now)
			case 2:
				sw.Sweep(now)
			}
		}
		sw.Sweep(now)
		for _, e := range sw.table {
			if _, dead := e.expired(now); dead {
				return false
			}
		}
		return sw.Sweep(now) == 0
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
