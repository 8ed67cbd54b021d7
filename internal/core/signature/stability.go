package signature

import (
	"math"

	"flowdiff/internal/stats"
	"flowdiff/internal/topology"
)

// StabilityConfig tunes the per-interval stability analysis (paper
// §III-B: "FlowDiff partitions the log into several time intervals and
// computes the application signatures for each interval. If a signature
// does not change significantly across all intervals, we consider it
// stable and use it during problem detection").
type StabilityConfig struct {
	// Intervals is how many segments the log is split into. Default 5.
	Intervals int
	// CIChiSquare is the maximum χ² between any interval's CI fractions
	// and the whole-log CI for the node's CI to be stable. Default 0.5.
	CIChiSquare float64
	// DDPeakSlack is how far (in bins) an interval's DD peak may drift.
	// Default 1 bin.
	DDPeakSlack int
	// PCDelta is the maximum |PC_interval - PC_full| for PC stability.
	// Default 0.4.
	PCDelta float64
	// MinSamples is the minimum number of observations an interval must
	// contain to vote; sparse intervals abstain. Default 3.
	MinSamples int
}

// IntervalCount is what a reference build sizes its pipeline with.
func (c StabilityConfig) IntervalCount() int { return c.withDefaults().Intervals }

func (c StabilityConfig) withDefaults() StabilityConfig {
	if c.Intervals <= 0 {
		c.Intervals = 5
	}
	if c.CIChiSquare <= 0 {
		c.CIChiSquare = 0.5
	}
	if c.DDPeakSlack <= 0 {
		c.DDPeakSlack = 1
	}
	if c.PCDelta <= 0 {
		c.PCDelta = 0.4
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	return c
}

// Stability reports which of a group's signature components survived the
// per-interval check and may be used for problem detection.
type Stability struct {
	// CGStable: no interval showed edges outside the whole-log edge set.
	CGStable bool
	// CINodes/DDPairs/PCPairs record per-node and per-edge-pair verdicts.
	CINodes map[topology.NodeID]bool
	DDPairs map[EdgePair]bool
	PCPairs map[EdgePair]bool
}

// StableCI reports whether node's CI may be used for diffing.
func (s Stability) StableCI(node topology.NodeID) bool { return s.CINodes[node] }

// Stabilities compares whole-log signatures against per-interval
// signatures (already built) and returns the verdicts keyed by group key.
func Stabilities(full []AppSignature, intervals [][]AppSignature, cfg StabilityConfig) map[string]Stability {
	cfg = cfg.withDefaults()
	out := make(map[string]Stability, len(full))
	var ivSigs []AppSignature
	var obs []float64 // ciStable's scratch
	for _, f := range full {
		st := Stability{
			CINodes: make(map[topology.NodeID]bool),
			DDPairs: make(map[EdgePair]bool),
			PCPairs: make(map[EdgePair]bool),
		}
		ivSigs = ivSigs[:0]
		for _, iv := range intervals {
			if m, ok := matchGroup(f, iv); ok {
				ivSigs = append(ivSigs, m)
			}
		}
		st.CGStable = cgStable(f, ivSigs, cfg)
		for _, node := range f.Group.Nodes {
			st.CINodes[node] = ciStable(f, ivSigs, node, cfg, &obs)
		}
		for p := range f.DD {
			st.DDPairs[p] = ddStable(f, ivSigs, p, cfg)
		}
		for p := range f.PC {
			st.PCPairs[p] = pcStable(f, ivSigs, p, cfg)
		}
		out[f.Group.Key()] = st
	}
	return out
}

func matchGroup(f AppSignature, sigs []AppSignature) (AppSignature, bool) {
	best := -1
	bestOv := 0
	for i, s := range sigs {
		ov := 0
		for _, n := range f.Group.Nodes {
			if s.Group.Contains(n) {
				ov++
			}
		}
		if ov > bestOv {
			bestOv, best = ov, i
		}
	}
	if best < 0 {
		return AppSignature{}, false
	}
	return sigs[best], true
}

func cgStable(f AppSignature, ivs []AppSignature, cfg StabilityConfig) bool {
	for _, iv := range ivs {
		if iv.GroupFS.FlowCount < cfg.MinSamples {
			continue
		}
		// Every interval edge must exist in the full CG; missing edges in
		// a sparse interval are tolerated, extra edges are not.
		for e := range iv.CG {
			if !f.CG[e] {
				return false
			}
		}
	}
	return true
}

// ciStable aligns each interval's fractions in *scratch.
func ciStable(f AppSignature, ivs []AppSignature, node topology.NodeID, cfg StabilityConfig, scratch *[]float64) bool {
	ref, ok := f.CI[node]
	if !ok || len(ref.Fractions) == 0 {
		return false
	}
	voted := false
	for _, iv := range ivs {
		got, ok := iv.CI[node]
		if !ok {
			continue
		}
		var total float64
		for _, c := range got.Counts {
			total += c
		}
		if int(total) < cfg.MinSamples {
			continue
		}
		// Align the interval's fractions to the reference edge order;
		// edges absent in the interval count as zero.
		obs := resize(*scratch, len(ref.Edges))
		*scratch = obs
		clear(obs)
		for i, e := range ref.Edges {
			for j, ge := range got.Edges {
				if ge == e {
					obs[i] = got.Fractions[j]
					break
				}
			}
		}
		x2, err := stats.ChiSquare(obs, ref.Fractions)
		if err != nil || x2 > cfg.CIChiSquare {
			return false
		}
		voted = true
	}
	return voted
}

func ddStable(f AppSignature, ivs []AppSignature, p EdgePair, cfg StabilityConfig) bool {
	ref, ok := f.DD[p]
	if !ok {
		return false
	}
	voted := false
	for _, iv := range ivs {
		got, ok := iv.DD[p]
		if !ok || got.Samples < cfg.MinSamples {
			continue
		}
		if absInt(got.Peak.Bucket-ref.Peak.Bucket) > cfg.DDPeakSlack {
			return false
		}
		voted = true
	}
	return voted
}

func pcStable(f AppSignature, ivs []AppSignature, p EdgePair, cfg StabilityConfig) bool {
	ref, ok := f.PC[p]
	if !ok {
		return false
	}
	voted := false
	for _, iv := range ivs {
		got, ok := iv.PC[p]
		if !ok {
			continue
		}
		if math.Abs(got-ref) > cfg.PCDelta {
			return false
		}
		voted = true
	}
	return voted
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
