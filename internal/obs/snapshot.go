package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is a point-in-time copy of every metric in a registry, in
// deterministic (sorted-name) order, ready for JSON encoding. It is the
// payload of the /metrics endpoint and of Registry.String (which makes
// a Registry an expvar.Var, publishable via expvar.Publish).
type Snapshot struct {
	// Counters maps counter name to its value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to its current level and high-water mark.
	Gauges map[string]GaugeSnapshot `json:"gauges"`
	// Histograms maps histogram name (spans appear under "span.<stage>")
	// to its duration summary.
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistSnapshot is one duration histogram's exported state. Durations
// are nanoseconds (expvar-style raw int64s); Human carries the rounded
// mean for eyeballing curl output.
type HistSnapshot struct {
	Count int64  `json:"count"`
	SumNS int64  `json:"sum_ns"`
	MinNS int64  `json:"min_ns"`
	MaxNS int64  `json:"max_ns"`
	P50NS int64  `json:"p50_ns"`
	P90NS int64  `json:"p90_ns"`
	P99NS int64  `json:"p99_ns"`
	Human string `json:"mean"`
}

// Snapshot copies the registry's current state. A nil registry yields
// an empty (but non-nil-map) snapshot so callers can encode it blindly.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]GaugeSnapshot),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return snap
	}
	for name, c := range registered(&r.mu, r.counters) {
		snap.Counters[name] = c.Value()
	}
	for name, g := range registered(&r.mu, r.gauges) {
		snap.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range registered(&r.mu, r.hists) {
		snap.Histograms[name] = HistSnapshot{
			Count: h.Count(),
			SumNS: int64(h.Sum()),
			MinNS: int64(h.Min()),
			MaxNS: int64(h.Max()),
			P50NS: int64(h.Quantile(0.50)),
			P90NS: int64(h.Quantile(0.90)),
			P99NS: int64(h.Quantile(0.99)),
			Human: h.Mean().Round(time.Microsecond).String(),
		}
	}
	return snap
}

// String renders the snapshot as JSON, making *Registry an expvar.Var:
//
//	expvar.Publish("flowdiff", obs.Default())
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		// A Snapshot is maps of plain structs; Marshal cannot fail on it.
		return "{}"
	}
	return string(b)
}

// WriteSummary renders the snapshot as the human-readable end-of-run
// report behind the -stats flag: histograms (spans first), then
// counters, then gauges, all in sorted-name order.
func WriteSummary(w io.Writer, snap Snapshot) error {
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		if _, err := fmt.Fprintf(w, "timings:\n"); err != nil {
			return err
		}
		for _, name := range names {
			h := snap.Histograms[name]
			if _, err := fmt.Fprintf(w, "  %-32s n=%-6d total=%-12v mean=%-10s p99=%v\n",
				name, h.Count, time.Duration(h.SumNS).Round(time.Microsecond), h.Human,
				time.Duration(h.P99NS).Round(time.Microsecond)); err != nil {
				return err
			}
		}
	}
	names = names[:0]
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		if _, err := fmt.Fprintf(w, "counters:\n"); err != nil {
			return err
		}
		for _, name := range names {
			if _, err := fmt.Fprintf(w, "  %-32s %d\n", name, snap.Counters[name]); err != nil {
				return err
			}
		}
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		if _, err := fmt.Fprintf(w, "gauges:\n"); err != nil {
			return err
		}
		for _, name := range names {
			g := snap.Gauges[name]
			if _, err := fmt.Fprintf(w, "  %-32s %d (max %d)\n", name, g.Value, g.Max); err != nil {
				return err
			}
		}
	}
	return nil
}
