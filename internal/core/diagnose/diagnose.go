// Package diagnose implements FlowDiff's diagnosing phase, steps two and
// three (paper §IV-B, §IV-C): validating detected changes against the
// task time series (changes explainable by known operator tasks are
// filtered out), building the dependency matrix between application and
// infrastructure signature changes, classifying the remaining changes
// into problem classes (Figure 2b / Figure 8), and ranking the involved
// components for localization — both by raw change count
// (RankComponents) and by 007-style evidence voting over the network
// paths of the impacted flows (RankSuspectsContext).
package diagnose

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/diff"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/core/taskmine"
	"flowdiff/internal/topology"
)

// ValidationWindow is how close (in time) a task detection must be to a
// change observation to explain it.
const ValidationWindow = 5 * time.Second

// Validate splits changes into known (explainable by a detected operator
// task) and unknown. A change is explained when a task detection's time
// span, widened by window, covers the change's observation time AND the
// change's components overlap the task's involved hosts (resolved through
// r). Changes without a meaningful timestamp (At == 0 scalar shifts) are
// only matched on components.
func Validate(changes []diff.Change, tasks []taskmine.Detection, r *appgroup.Resolver, window time.Duration) (known, unknown []diff.Change) {
	if window <= 0 {
		window = ValidationWindow
	}
	for _, c := range changes {
		if explainedBy(c, tasks, r, window) {
			known = append(known, c)
		} else {
			unknown = append(unknown, c)
		}
	}
	return known, unknown
}

func explainedBy(c diff.Change, tasks []taskmine.Detection, r *appgroup.Resolver, window time.Duration) bool {
	for _, t := range tasks {
		if c.At > 0 && (c.At < t.Start-window || c.At > t.End+window) {
			continue
		}
		if componentOverlap(c, t, r) {
			return true
		}
	}
	return false
}

func componentOverlap(c diff.Change, t taskmine.Detection, r *appgroup.Resolver) bool {
	if len(c.Components) == 0 || len(t.Hosts) == 0 {
		return false
	}
	taskNodes := make(map[string]bool, len(t.Hosts))
	for _, h := range t.Hosts {
		taskNodes[h] = true
		if addr, err := netip.ParseAddr(h); err == nil && r != nil {
			taskNodes[string(r.Node(addr))] = true
		}
	}
	for _, comp := range c.Components {
		if taskNodes[comp] {
			return true
		}
	}
	return false
}

// Matrix is the dependency matrix of §IV-C: rows are application
// signature kinds, columns infrastructure kinds; a cell is set when both
// kinds changed.
type Matrix struct {
	Rows, Cols []signature.Kind
	Cells      map[signature.Kind]map[signature.Kind]bool
}

// BuildMatrix derives the dependency matrix from the unexplained changes.
func BuildMatrix(unknown []diff.Change) Matrix {
	m := Matrix{
		Rows:  []signature.Kind{signature.KindCG, signature.KindDD, signature.KindCI, signature.KindPC, signature.KindFS},
		Cols:  []signature.Kind{signature.KindPT, signature.KindISL, signature.KindCRT},
		Cells: make(map[signature.Kind]map[signature.Kind]bool),
	}
	kinds := diff.Kinds(unknown)
	for _, rk := range m.Rows {
		m.Cells[rk] = make(map[signature.Kind]bool)
		for _, ck := range m.Cols {
			m.Cells[rk][ck] = kinds[rk] && kinds[ck]
		}
	}
	return m
}

// String renders the matrix like Figure 8.
func (m Matrix) String() string {
	var sb strings.Builder
	sb.WriteString("     ")
	for _, c := range m.Cols {
		fmt.Fprintf(&sb, "%4s", c)
	}
	sb.WriteString("\n")
	for _, r := range m.Rows {
		fmt.Fprintf(&sb, "%-5s", r)
		for _, c := range m.Cols {
			v := 0
			if m.Cells[r][c] {
				v = 1
			}
			fmt.Fprintf(&sb, "%4d", v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Problem is one problem class of Figure 2b.
type Problem string

// Problem classes.
const (
	HostFailure        Problem = "host failure"
	HostPerformance    Problem = "host performance"
	AppFailure         Problem = "application failure"
	AppPerformance     Problem = "application performance"
	NetworkDisconnect  Problem = "network disconnectivity"
	NetworkBottleneck  Problem = "network bottleneck / congestion"
	SwitchMisconfig    Problem = "switch misconfiguration"
	SwitchOverhead     Problem = "switch overhead"
	ControllerOverhead Problem = "controller overhead"
	SwitchFailure      Problem = "switch failure"
	ControllerFailure  Problem = "controller failure"
	UnauthorizedAccess Problem = "unauthorized access"
)

// classPatterns encodes Figure 2b: the signature kinds each problem
// class is expected to impact.
var classPatterns = map[Problem][]signature.Kind{
	HostFailure:        {signature.KindCG, signature.KindCI, signature.KindPC, signature.KindFS},
	HostPerformance:    {signature.KindDD, signature.KindPC, signature.KindFS},
	AppFailure:         {signature.KindCG, signature.KindCI, signature.KindPC, signature.KindFS},
	AppPerformance:     {signature.KindDD, signature.KindPC, signature.KindFS},
	NetworkDisconnect:  {signature.KindCG, signature.KindCI, signature.KindPC, signature.KindFS, signature.KindPT},
	NetworkBottleneck:  {signature.KindDD, signature.KindPC, signature.KindFS, signature.KindISL},
	SwitchMisconfig:    {signature.KindCG, signature.KindCI, signature.KindPC, signature.KindFS, signature.KindPT},
	SwitchOverhead:     {signature.KindDD, signature.KindPC, signature.KindFS, signature.KindISL},
	ControllerOverhead: {signature.KindDD, signature.KindFS, signature.KindCRT},
	SwitchFailure:      {signature.KindCG, signature.KindCI, signature.KindPC, signature.KindFS, signature.KindPT, signature.KindISL},
	ControllerFailure:  {signature.KindCG, signature.KindCI, signature.KindFS, signature.KindCRT},
	UnauthorizedAccess: {signature.KindCG, signature.KindCI, signature.KindFS},
}

// PatternOf returns the signature kinds a problem class is expected to
// impact (one row of Figure 2b); nil for unknown classes.
func PatternOf(p Problem) []signature.Kind {
	return classPatterns[p]
}

// Scored is a ranked problem-class hypothesis.
type Scored struct {
	Problem Problem
	Score   float64
}

// Classify ranks problem classes by how well the set of changed
// signature kinds matches each class's expected impact pattern (Jaccard
// similarity), with structural tie-breaks: a node that lost every
// adjacent edge suggests a host failure over an application failure, a
// brand-new edge from an unknown source suggests unauthorized access.
func Classify(unknown []diff.Change) []Scored {
	if len(unknown) == 0 {
		return nil
	}
	kinds := diff.Kinds(unknown)
	scores := make(map[Problem]float64, len(classPatterns))
	for p, pattern := range classPatterns {
		scores[p] = jaccard(kinds, pattern)
	}

	// Structural tie-breaks.
	if kinds[signature.KindCG] {
		newFromForeign := false
		anyRemoved := false
		removedEdges := make(map[string]map[string]bool) // node -> set of lost peer nodes
		addedAt := make(map[string]bool)
		for _, c := range unknown {
			if c.Kind != signature.KindCG {
				continue
			}
			isNew := strings.HasPrefix(c.Description, "new edge")
			for _, comp := range c.Components {
				if isNew {
					addedAt[comp] = true
					if strings.HasPrefix(comp, "ip:") {
						newFromForeign = true
					}
				} else {
					anyRemoved = true
					// Record the edge's OTHER endpoints as comp's lost
					// peers, deduped: losing two flows to the same peer is
					// one broken dependency, not a disappearing host.
					for _, peer := range c.Components {
						if peer == comp {
							continue
						}
						if removedEdges[comp] == nil {
							removedEdges[comp] = make(map[string]bool)
						}
						removedEdges[comp][peer] = true
					}
				}
			}
		}
		if newFromForeign {
			scores[UnauthorizedAccess] += 0.5
		}
		// Unauthorized access manifests as NEW edges; a change set whose
		// CG deltas are all removals argues against it.
		if len(addedAt) == 0 && anyRemoved {
			scores[UnauthorizedAccess] -= 0.3
		}
		// A node that lost edges to >= 2 DISTINCT peers with no additions
		// hints at total disappearance (host failure) rather than a
		// single broken dependency (application failure). Accumulated as
		// an order-independent bool so map iteration order cannot leak
		// into the score.
		lostManyPeers := false
		for node, lost := range removedEdges {
			if len(lost) >= 2 && !addedAt[node] {
				lostManyPeers = true
			}
		}
		if lostManyPeers {
			scores[HostFailure] += 0.25
		}
	}

	out := make([]Scored, 0, len(scores))
	for p, s := range scores {
		if s > 0 {
			out = append(out, Scored{Problem: p, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Problem < out[j].Problem
	})
	return out
}

func jaccard(kinds map[signature.Kind]bool, pattern []signature.Kind) float64 {
	pat := make(map[signature.Kind]bool, len(pattern))
	for _, k := range pattern {
		pat[k] = true
	}
	inter, union := 0, 0
	seen := make(map[signature.Kind]bool)
	for k := range kinds {
		seen[k] = true
		union++
		if pat[k] {
			inter++
		}
	}
	for k := range pat {
		if !seen[k] {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ComponentScore ranks one component by how many unexplained changes it
// is associated with (§IV-C localization).
type ComponentScore struct {
	Component string
	Changes   int
}

// RankComponents counts change associations per component, descending.
func RankComponents(unknown []diff.Change) []ComponentScore {
	counts := make(map[string]int)
	for _, c := range unknown {
		for _, comp := range c.Components {
			counts[comp]++
		}
	}
	out := make([]ComponentScore, 0, len(counts))
	for comp, n := range counts {
		out = append(out, ComponentScore{Component: comp, Changes: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Changes != out[j].Changes {
			return out[i].Changes > out[j].Changes
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// Report is the complete diagnosis output FlowDiff hands to operators.
type Report struct {
	Known    []diff.Change
	Unknown  []diff.Change
	Matrix   Matrix
	Problems []Scored
	Ranking  []ComponentScore
	// Suspects is the evidence-voting fabric localization (nil when no
	// topology was supplied or no change identified an impacted flow).
	Suspects []SuspectScore
}

// DiagnoseContext runs validation, matrix construction, classification,
// and ranking in one step. topo enables evidence-voting suspect
// localization and may be nil; ctx is threaded through to the suspect
// ranker for observability.
func DiagnoseContext(ctx context.Context, changes []diff.Change, tasks []taskmine.Detection, r *appgroup.Resolver, topo *topology.Topology, window time.Duration) Report {
	known, unknown := Validate(changes, tasks, r, window)
	return Report{
		Known:    known,
		Unknown:  unknown,
		Matrix:   BuildMatrix(unknown),
		Problems: Classify(unknown),
		Ranking:  RankComponents(unknown),
		Suspects: RankSuspectsContext(ctx, unknown, topo),
	}
}
