// Package taskmine implements FlowDiff's task signatures (paper §III-D):
// it learns a finite-state automaton for each operator task (VM startup,
// migration, …) from multiple captured runs — common-flow extraction,
// closed frequent sequential-pattern mining, automaton construction — and
// detects task executions in new logs with a flexible matcher that
// tolerates interleaved traffic up to a bounded gap. Flows can be
// normalized with masked IPs so an automaton learned on one VM
// generalizes to others (Table III).
package taskmine

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"flowdiff/internal/flowlog"
)

// AnyPort is the wildcard port label (the '*' of Figure 4).
const AnyPort = "*"

// Template is a normalized flow: endpoint labels (IP literals or masked
// "#k" placeholders) and port labels (decimal literals or "*").
type Template struct {
	Proto    uint8
	Src, Dst string
	SrcPort  string
	DstPort  string
}

// String renders the template in Figure 4's style.
func (t Template) String() string {
	return fmt.Sprintf("[%d %s:%s-%s:%s]", t.Proto, t.Src, t.SrcPort, t.Dst, t.DstPort)
}

// Config tunes normalization, mining, and matching.
type Config struct {
	// MinSupport is the fraction of runs a sequence must appear in to be
	// frequent. Default 0.6 (the paper's example value).
	MinSupport float64
	// MaskIPs replaces endpoint addresses with "#k" placeholders assigned
	// by first appearance, except addresses in KeepAddrs (well-known
	// service nodes stay literal, as NFS does in Figure 4).
	MaskIPs bool
	// KeepAddrs lists addresses kept literal under masking.
	KeepAddrs map[netip.Addr]bool
	// EphemeralPort is the threshold at or above which a port is
	// considered ephemeral and normalized to "*". Well-known task ports
	// in WellKnownPorts stay literal regardless. Default 1024.
	EphemeralPort uint16
	// WellKnownPorts stay literal even above the ephemeral threshold
	// (e.g. 2049 NFS, 8002 migration).
	WellKnownPorts map[uint16]bool
	// InterleaveGap bounds how long a matcher waits between consumed
	// flows before giving up (paper: 1 second).
	InterleaveGap time.Duration
	// MaxMatchers caps concurrently active child matchers per automaton.
	// Default 256.
	MaxMatchers int
}

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 0.6
	}
	if c.EphemeralPort == 0 {
		c.EphemeralPort = 1024
	}
	if c.WellKnownPorts == nil {
		c.WellKnownPorts = map[uint16]bool{2049: true, 8002: true}
	}
	if c.InterleaveGap <= 0 {
		c.InterleaveGap = time.Second
	}
	if c.MaxMatchers <= 0 {
		c.MaxMatchers = 256
	}
	return c
}

func (c Config) portLabel(p uint16) string {
	if p >= c.EphemeralPort && !c.WellKnownPorts[p] {
		return AnyPort
	}
	return strconv.Itoa(int(p))
}

// maskContext assigns "#k" placeholders by first appearance.
type maskContext struct {
	cfg    Config
	labels map[netip.Addr]string
	next   int
}

func newMaskContext(cfg Config) *maskContext {
	return &maskContext{cfg: cfg, labels: make(map[netip.Addr]string)}
}

func (m *maskContext) label(a netip.Addr) string {
	if !m.cfg.MaskIPs || m.cfg.KeepAddrs[a] {
		return a.String()
	}
	if l, ok := m.labels[a]; ok {
		return l
	}
	m.next++
	l := "#" + strconv.Itoa(m.next)
	m.labels[a] = l
	return l
}

// Normalize converts one run (an ordered flow sequence) into templates,
// using a fresh masking context per run so placeholder numbering is
// consistent within the run.
func Normalize(run []flowlog.FlowKey, cfg Config) []Template {
	cfg = cfg.withDefaults()
	m := newMaskContext(cfg)
	out := make([]Template, len(run))
	for i, k := range run {
		out[i] = Template{
			Proto:   k.Proto,
			Src:     m.label(k.Src),
			Dst:     m.label(k.Dst),
			SrcPort: cfg.portLabel(k.SrcPort),
			DstPort: cfg.portLabel(k.DstPort),
		}
	}
	return out
}
