package taskmine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flowdiff/internal/obs"
)

// Pattern is a contiguous sequence of templates mined from the runs,
// together with its support (fraction of runs containing it).
type Pattern struct {
	Seq     []Template
	Support float64
	// fallback marks a length-1 pattern kept only so segmentation always
	// succeeds (it was closed-pruned but may be needed at run edges).
	fallback bool
}

func (p Pattern) key() string {
	var sb strings.Builder
	for _, t := range p.Seq {
		sb.WriteString(t.String())
	}
	return sb.String()
}

// idPattern is a mined pattern over interned template IDs — the internal
// working form; Seq materializes back to templates only once, when the
// automaton's final state inventory is assembled.
type idPattern struct {
	seq      []int32
	support  float64
	fallback bool
}

// Automaton is a task signature: states are mined patterns; transitions
// record which state may follow which, as observed when segmenting the
// training runs; matching a path from a start state through transitions
// to the end of a final state constitutes a task detection.
type Automaton struct {
	Name   string
	States []Pattern

	start       map[int]bool
	final       map[int]bool
	transitions map[int]map[int]bool
	cfg         Config
}

// Config returns the configuration the automaton was mined with.
func (a *Automaton) Config() Config { return a.cfg }

// NumStates returns the state count (for the closed-pruning ablation).
func (a *Automaton) NumStates() int { return len(a.States) }

// StartStates returns the indices of start states (sorted).
func (a *Automaton) StartStates() []int { return sortedKeys(a.start) }

// FinalStates returns the indices of final states (sorted).
func (a *Automaton) FinalStates() []int { return sortedKeys(a.final) }

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// MineOptions toggles algorithm variants for ablation studies.
type MineOptions struct {
	// DisableClosedPruning keeps all frequent patterns as states instead
	// of only closed ones.
	DisableClosedPruning bool
}

// Mine learns a task automaton from n runs of the same task.
//
// Every mining stage runs over interned template IDs (TemplateSet), on
// the caller's goroutine: at the paper's few dozen training runs a
// fan-out costs more than it saves (DESIGN.md "Where concurrency
// lives"). Mining stops between phases (and between growth rounds and
// runs) once ctx is canceled, returning ctx.Err(); phase timings land
// in the context's obs registry as span.taskmine.* histograms.
func Mine(ctx context.Context, name string, runs [][]Template, cfg Config, opt MineOptions) (*Automaton, error) {
	cfg = cfg.withDefaults()
	if len(runs) == 0 {
		return nil, fmt.Errorf("taskmine: no runs for task %q", name)
	}
	reg := obs.From(ctx)
	reg.Counter("taskmine.runs").Add(int64(len(runs)))

	// IDs are assigned by first appearance, so the mapping is a pure
	// function of the input order.
	spIntern := reg.Span("taskmine.intern")
	set := NewTemplateSet()
	idRuns := make([][]int32, len(runs))
	for i, run := range runs {
		idRuns[i] = set.InternRun(run)
	}
	spIntern.End()

	// (1) Common flows: templates present in every run (S(T) of §III-D).
	common := commonIDs(idRuns, set.Len())
	anyCommon := false
	for _, c := range common {
		if c {
			anyCommon = true
			break
		}
	}
	if !anyCommon {
		return nil, fmt.Errorf("taskmine: task %q has no flows common to all runs", name)
	}

	// (2) Filter runs down to common flows (T'_i).
	filtered := make([][]int32, 0, len(idRuns))
	for _, run := range idRuns {
		var f []int32
		for _, id := range run {
			if common[id] {
				f = append(f, id)
			}
		}
		if len(f) > 0 {
			filtered = append(filtered, f)
		}
	}
	if len(filtered) == 0 {
		return nil, fmt.Errorf("taskmine: task %q has no usable runs after filtering", name)
	}

	// (3) Frequent contiguous patterns with apriori extension and closed
	// pruning.
	spFrequent := reg.Span("taskmine.frequent")
	patterns := frequentIDPatterns(ctx, filtered, cfg.MinSupport, set.Len())
	spFrequent.End()
	reg.Counter("taskmine.patterns").Add(int64(len(patterns)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	states := patterns
	if !opt.DisableClosedPruning {
		spPrune := reg.Span("taskmine.prune")
		states = closedPruneIDs(ctx, patterns)
		spPrune.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Keep every length-1 pattern available as a fallback so greedy
	// segmentation is total; pruned singles are only used when no longer
	// state fits.
	states = ensureSinglesIDs(states, patterns)

	// Materialize the state inventory and fix its order: longer first,
	// then higher support, then key. The key is unique per distinct
	// sequence (template renderings are bracketed, so concatenation is
	// uniquely decodable), making this a total order — state order cannot
	// depend on mining order.
	finals := make([]Pattern, len(states))
	stateSeqs := make([][]int32, len(states))
	keys := make([]string, len(states))
	for i, st := range states {
		seq := make([]Template, len(st.seq))
		for j, id := range st.seq {
			seq[j] = set.Template(id)
		}
		finals[i] = Pattern{Seq: seq, Support: st.support, fallback: st.fallback}
		stateSeqs[i] = st.seq
		keys[i] = finals[i].key()
	}
	sort.Sort(&stateSorter{pats: finals, seqs: stateSeqs, keys: keys})

	a := &Automaton{
		Name:        name,
		States:      finals,
		start:       make(map[int]bool),
		final:       make(map[int]bool),
		transitions: make(map[int]map[int]bool),
		cfg:         cfg,
	}

	// (4) Segment every run with the state inventory and record the
	// transition structure.
	spSegment := reg.Span("taskmine.segment")
	for _, run := range filtered {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunks, err := segmentIDs(stateSeqs, run, set)
		if err != nil {
			return nil, fmt.Errorf("taskmine: segmenting run for %q: %w", name, err)
		}
		a.start[chunks[0]] = true
		a.final[chunks[len(chunks)-1]] = true
		for i := 0; i+1 < len(chunks); i++ {
			next, ok := a.transitions[chunks[i]]
			if !ok {
				next = make(map[int]bool)
				a.transitions[chunks[i]] = next
			}
			next[chunks[i+1]] = true
		}
	}
	spSegment.End()
	reg.Counter("taskmine.states").Add(int64(len(finals)))
	return a, nil
}

// stateSorter orders the materialized states (and their ID sequences,
// index for index) longest first, then by support, then by key — the
// order segmentation and matching iterate in.
type stateSorter struct {
	pats []Pattern
	seqs [][]int32
	keys []string
}

func (s *stateSorter) Len() int { return len(s.pats) }
func (s *stateSorter) Less(i, j int) bool {
	if len(s.pats[i].Seq) != len(s.pats[j].Seq) {
		return len(s.pats[i].Seq) > len(s.pats[j].Seq)
	}
	if s.pats[i].Support != s.pats[j].Support {
		return s.pats[i].Support > s.pats[j].Support
	}
	return s.keys[i] < s.keys[j]
}
func (s *stateSorter) Swap(i, j int) {
	s.pats[i], s.pats[j] = s.pats[j], s.pats[i]
	s.seqs[i], s.seqs[j] = s.seqs[j], s.seqs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// commonIDs reports, per interned template ID, whether the template
// appears in every run — array counters instead of string-keyed maps.
func commonIDs(runs [][]int32, numTemplates int) []bool {
	counts := make([]int32, numTemplates)
	seenIn := make([]int32, numTemplates)
	for i := range seenIn {
		seenIn[i] = -1
	}
	for r, run := range runs {
		for _, id := range run {
			if seenIn[id] != int32(r) {
				seenIn[id] = int32(r)
				counts[id]++
			}
		}
	}
	common := make([]bool, numTemplates)
	for id, c := range counts {
		common[id] = int(c) == len(runs)
	}
	return common
}

// candCounter is the support-counting state for a single pattern
// length: candidates discovered in the runs, keyed by the packed (prefix
// pattern ID, last template ID) identity, with per-run stamps so a run
// supports a candidate at most once.
type candCounter struct {
	idx     map[int64]int32
	counts  []int32
	lastRun []int32
}

func newCandCounter() *candCounter {
	return &candCounter{idx: make(map[int64]int32)}
}

func (c *candCounter) observe(key int64, run int32) {
	li, ok := c.idx[key]
	if !ok {
		li = int32(len(c.counts))
		c.idx[key] = li
		c.counts = append(c.counts, 0)
		c.lastRun = append(c.lastRun, -1)
	}
	if c.lastRun[li] != run {
		c.lastRun[li] = run
		c.counts[li]++
	}
}

// frequentIDPatterns mines contiguous sub-sequences whose support
// (fraction of runs containing them) is at least minSup, growing
// length-wise with apriori pruning (a pattern can only be frequent if
// its length-(L-1) prefix and suffix are).
//
// Candidates are identified positionally: pos[r][i] holds the dense ID
// of the frequent length-(L-1) pattern starting at position i of run r
// (or -1), so the apriori check is two array reads and a length-L
// candidate is the packed pair (prefix pattern ID, last template ID) —
// no per-window key strings. Candidates are emitted in sorted packed-key
// order, never in map order.
func frequentIDPatterns(ctx context.Context, runs [][]int32, minSup float64, numTemplates int) []idPattern {
	n := float64(len(runs))
	var out []idPattern

	// Length 1: candidates are the template IDs themselves.
	counts := make([]int32, numTemplates)
	seenIn := make([]int32, numTemplates)
	for i := range seenIn {
		seenIn[i] = -1
	}
	for r, run := range runs {
		for _, id := range run {
			if seenIn[id] != int32(r) {
				seenIn[id] = int32(r)
				counts[id]++
			}
		}
	}
	patID := make([]int32, numTemplates) // template ID -> dense L1 pattern ID
	for i := range patID {
		patID[i] = -1
	}
	prevSeqs := make([][]int32, 0, numTemplates)
	for id := int32(0); id < int32(numTemplates); id++ {
		if sup := float64(counts[id]) / n; sup+1e-12 >= minSup {
			patID[id] = int32(len(prevSeqs))
			prevSeqs = append(prevSeqs, []int32{id})
			out = append(out, idPattern{seq: []int32{id}, support: sup})
		}
	}
	if len(prevSeqs) == 0 {
		return out
	}

	// pos[r][i] = dense frequent-pattern ID of the current-length window
	// starting at i, or -1.
	pos := make([][]int32, len(runs))
	for r, run := range runs {
		p := make([]int32, len(run))
		for i, id := range run {
			p[i] = patID[id]
		}
		pos[r] = p
	}

	for length := 2; ; length++ {
		if ctx.Err() != nil {
			return out // Mine surfaces ctx.Err() right after
		}
		cc := newCandCounter()
		for r, run := range runs {
			p := pos[r]
			for i := 0; i+length <= len(run); i++ {
				// Apriori: prefix and suffix must be frequent at L-1.
				if p[i] < 0 || p[i+1] < 0 {
					continue
				}
				cc.observe(packCand(p[i], run[i+length-1]), int32(r))
			}
		}
		cands := make([]int64, 0, len(cc.idx))
		for key := range cc.idx {
			cands = append(cands, key)
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

		freqID := make(map[int64]int32, len(cands))
		nextSeqs := make([][]int32, 0, len(cands))
		for _, key := range cands {
			sup := float64(cc.counts[cc.idx[key]]) / n
			if sup+1e-12 < minSup {
				continue
			}
			prefix, last := int32(key>>32), int32(uint32(key))
			seq := make([]int32, length)
			copy(seq, prevSeqs[prefix])
			seq[length-1] = last
			freqID[key] = int32(len(nextSeqs))
			nextSeqs = append(nextSeqs, seq)
			out = append(out, idPattern{seq: seq, support: sup})
		}
		if len(nextSeqs) == 0 {
			break
		}

		// Re-stamp the positions with the new length's pattern IDs.
		for r, run := range runs {
			p := pos[r]
			for i := 0; i+length <= len(run); i++ {
				id := int32(-1)
				if p[i] >= 0 && p[i+1] >= 0 {
					if fi, ok := freqID[packCand(p[i], run[i+length-1])]; ok {
						id = fi
					}
				}
				p[i] = id
			}
			// Positions with no length-L window left have no pattern.
			for i := len(run) - length + 1; i < len(run); i++ {
				if i >= 0 {
					p[i] = -1
				}
			}
		}
		prevSeqs = nextSeqs
	}
	return out
}

// closedPruneIDs removes patterns that are contiguous sub-sequences of a
// longer pattern with the same support (§III-D: closed frequent
// patterns). A canceled ctx stops it early; Mine then discards the
// partial result and returns ctx.Err().
func closedPruneIDs(ctx context.Context, patterns []idPattern) []idPattern {
	out := make([]idPattern, 0, len(patterns))
outer:
	for _, p := range patterns {
		if ctx.Err() != nil {
			return out
		}
		for _, q := range patterns {
			if len(q.seq) > len(p.seq) && q.support == p.support && containsSubIDs(q.seq, p.seq) {
				continue outer
			}
		}
		out = append(out, p)
	}
	return out
}

func containsSubIDs(hay, needle []int32) bool {
	if len(needle) == 0 {
		return true
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j := range needle {
			if hay[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// ensureSinglesIDs re-adds pruned length-1 patterns as fallback states.
func ensureSinglesIDs(states, all []idPattern) []idPattern {
	have := make(map[int32]bool)
	for _, s := range states {
		if len(s.seq) == 1 {
			have[s.seq[0]] = true
		}
	}
	out := append([]idPattern(nil), states...)
	for _, p := range all {
		if len(p.seq) == 1 && !have[p.seq[0]] {
			p.fallback = true
			out = append(out, p)
			have[p.seq[0]] = true
		}
	}
	return out
}

// segmentIDs greedily covers a run with states: longest state first,
// ties by support (the two rules of §III-D step 3). States are already
// in that order.
func segmentIDs(states [][]int32, run []int32, set *TemplateSet) ([]int, error) {
	var chunks []int
	pos := 0
	for pos < len(run) {
		matched := -1
		for si, st := range states {
			if pos+len(st) > len(run) {
				continue
			}
			ok := true
			for j, id := range st {
				if run[pos+j] != id {
					ok = false
					break
				}
			}
			if ok {
				matched = si
				break // states are sorted longest/most-frequent first
			}
		}
		if matched < 0 {
			return nil, fmt.Errorf("no state matches at position %d (%v)", pos, set.Template(run[pos]))
		}
		chunks = append(chunks, matched)
		pos += len(states[matched])
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("empty segmentation")
	}
	return chunks, nil
}

// --- naive []Template mining stages ----------------------------------
//
// The string-keyed forms below are retained for the paper-example tests
// (which drive the stages directly on template sequences) and as the
// reference the interned pipeline is pinned against; Mine itself runs
// entirely over interned IDs.

// frequentPatterns mines contiguous sub-sequences whose support is at
// least minSup over template sequences directly.
func frequentPatterns(runs [][]Template, minSup float64) []Pattern {
	n := float64(len(runs))
	var out []Pattern

	freqAt := make(map[string]bool) // keys of frequent patterns at current length
	for length := 1; ; length++ {
		counts := make(map[string]int)
		seqs := make(map[string][]Template)
		for _, run := range runs {
			seen := make(map[string]bool)
			for i := 0; i+length <= len(run); i++ {
				sub := run[i : i+length]
				if length > 1 {
					// Apriori: prefix and suffix must be frequent at L-1.
					if !freqAt[patternKey(sub[:length-1])] || !freqAt[patternKey(sub[1:])] {
						continue
					}
				}
				k := patternKey(sub)
				if !seen[k] {
					seen[k] = true
					counts[k]++
					if _, ok := seqs[k]; !ok {
						seqs[k] = append([]Template(nil), sub...)
					}
				}
			}
		}
		next := make(map[string]bool)
		found := false
		// Emit frequent patterns in key order: counts is a map, and the
		// mined pattern list is user-visible output that must not inherit
		// Go's randomized iteration order.
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sup := float64(counts[k]) / n
			if sup+1e-12 >= minSup {
				out = append(out, Pattern{Seq: seqs[k], Support: sup})
				next[k] = true
				found = true
			}
		}
		if !found {
			break
		}
		freqAt = next
	}
	return out
}

func patternKey(seq []Template) string {
	var sb strings.Builder
	for _, t := range seq {
		sb.WriteString(t.String())
	}
	return sb.String()
}

// closedPrune removes patterns that are contiguous sub-sequences of a
// longer pattern with the same support.
func closedPrune(patterns []Pattern) []Pattern {
	var out []Pattern
	for _, p := range patterns {
		pruned := false
		for _, q := range patterns {
			if len(q.Seq) <= len(p.Seq) {
				continue
			}
			if q.Support == p.Support && containsSub(q.Seq, p.Seq) {
				pruned = true
				break
			}
		}
		if !pruned {
			out = append(out, p)
		}
	}
	return out
}

func containsSub(hay, needle []Template) bool {
	if len(needle) == 0 {
		return true
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j := range needle {
			if hay[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}
