package taskmine

import (
	"net/netip"
	"sort"
	"strconv"
	"time"

	"flowdiff/internal/core/signature"
	"flowdiff/internal/flowlog"
)

// TimedFlow is one flow start observed in a log.
type TimedFlow struct {
	Key flowlog.FlowKey
	At  time.Duration
}

// Detection is one recognized task execution: an entry of the task time
// series (§III-D).
type Detection struct {
	Task  string
	Start time.Duration
	End   time.Duration
	// Hosts are the addresses of the endpoints the match consumed (both
	// literal and placeholder-bound), sorted — used to validate that a
	// behavioral change involves the same components as the task.
	Hosts []string
}

// FlowsFromLog extracts the time-ordered flow starts (one per flow
// occurrence) from a control log.
func FlowsFromLog(log *flowlog.Log, gap time.Duration) []TimedFlow {
	return FlowsFromOccurrences(signature.Occurrences(log, gap))
}

// FlowsFromOccurrences is the flow-start series of already extracted
// occurrences (in canonical order), for callers that modeled the log
// and have them in hand.
func FlowsFromOccurrences(occs []signature.Occurrence) []TimedFlow {
	out := make([]TimedFlow, 0, len(occs))
	for _, o := range occs {
		out = append(out, TimedFlow{Key: o.Key, At: o.Start})
	}
	return out
}

// RunsFromLogs converts per-run control logs (each capturing one
// execution of the same task, the way the paper's tcpdump-at-boot traces
// did) into the normalized template sequences Mine consumes.
func RunsFromLogs(logs []*flowlog.Log, cfg Config) [][]Template {
	out := make([][]Template, 0, len(logs))
	for _, l := range logs {
		flows := FlowsFromLog(l, cfg.InterleaveGap)
		keys := make([]flowlog.FlowKey, len(flows))
		for i, f := range flows {
			keys[i] = f.Key
		}
		out = append(out, Normalize(keys, cfg))
	}
	return out
}

// matcher is one child matching attempt (the paper's child process).
type matcher struct {
	state    int
	offset   int
	bindings map[string]netip.Addr
	bound    map[netip.Addr]string
	touched  map[netip.Addr]bool
	started  time.Duration
	last     time.Duration
}

func (m *matcher) clone() *matcher {
	c := &matcher{
		state: m.state, offset: m.offset,
		started: m.started, last: m.last,
		bindings: make(map[string]netip.Addr, len(m.bindings)),
		bound:    make(map[netip.Addr]string, len(m.bound)),
		touched:  make(map[netip.Addr]bool, len(m.touched)),
	}
	for k, v := range m.bindings {
		c.bindings[k] = v
	}
	for k, v := range m.bound {
		c.bound[k] = v
	}
	for k, v := range m.touched {
		c.touched[k] = v
	}
	return c
}

func (m *matcher) hosts() []string {
	out := make([]string, 0, len(m.touched))
	for a := range m.touched {
		out = append(out, a.String())
	}
	sort.Strings(out)
	return out
}

// matchEndpoint checks one endpoint label against a concrete address,
// returning the (possibly new) binding. Literal labels must equal the
// address; "#k" placeholders bind injectively.
func (m *matcher) matchEndpoint(label string, addr netip.Addr) (bindKey string, ok bool) {
	if len(label) > 0 && label[0] == '#' {
		if b, have := m.bindings[label]; have {
			return "", b == addr
		}
		if _, taken := m.bound[addr]; taken {
			return "", false // address already bound to another placeholder
		}
		return label, true
	}
	return "", label == addr.String()
}

// matchFlow checks the flow against template t under the matcher's
// bindings; on success it commits any new bindings.
func (m *matcher) matchFlow(t Template, f flowlog.FlowKey, cfg Config) bool {
	if t.Proto != f.Proto {
		return false
	}
	if !portMatches(t.SrcPort, f.SrcPort, cfg) || !portMatches(t.DstPort, f.DstPort, cfg) {
		return false
	}
	srcBind, ok := m.matchEndpoint(t.Src, f.Src)
	if !ok {
		return false
	}
	dstBind, ok := m.matchEndpoint(t.Dst, f.Dst)
	if !ok {
		return false
	}
	if srcBind != "" && dstBind != "" && srcBind == dstBind && f.Src != f.Dst {
		return false // one placeholder cannot bind two addresses
	}
	if srcBind != "" {
		m.bindings[srcBind] = f.Src
		m.bound[f.Src] = srcBind
	}
	if dstBind != "" {
		m.bindings[dstBind] = f.Dst
		m.bound[f.Dst] = dstBind
	}
	m.touched[f.Src] = true
	m.touched[f.Dst] = true
	return true
}

func portMatches(label string, port uint16, cfg Config) bool {
	if label == AnyPort {
		return port >= cfg.EphemeralPort && !cfg.WellKnownPorts[port]
	}
	return label == strconv.Itoa(int(port))
}

// Detect scans a time-ordered flow stream for executions of the task.
// Whenever a flow matches the first template of a start state, a child
// matcher is spawned; children consume matching flows (tolerating
// interleaved traffic up to the automaton's InterleaveGap between
// consumed flows) and report a detection upon completing a final state.
func Detect(a *Automaton, flows []TimedFlow) []Detection {
	cfg := a.cfg.withDefaults()
	sorted := append([]TimedFlow(nil), flows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	var detections []Detection
	var children []*matcher

	for _, f := range sorted {
		// Expire stalled children.
		alive := children[:0]
		for _, c := range children {
			if f.At-c.last <= cfg.InterleaveGap {
				alive = append(alive, c)
			}
		}
		children = alive

		// Offer the flow to existing children.
		var next []*matcher
		for _, c := range children {
			adv := c.clone()
			if !adv.matchFlow(a.States[adv.state].Seq[adv.offset], f.Key, cfg) {
				next = append(next, c) // keep waiting (interleaved flow)
				continue
			}
			adv.offset++
			adv.last = f.At
			done, spawned := a.advance(adv, f.At, &detections)
			if !done {
				next = append(next, spawned...)
			}
			// The non-advancing original is dropped: the flexible matcher
			// consumes greedily, as the paper's child processes do.
		}
		children = next

		// Spawn new children at start states.
		for _, si := range a.StartStates() {
			m := &matcher{
				state: si, offset: 0,
				bindings: make(map[string]netip.Addr),
				bound:    make(map[netip.Addr]string),
				touched:  make(map[netip.Addr]bool),
				started:  f.At, last: f.At,
			}
			if !m.matchFlow(a.States[si].Seq[0], f.Key, cfg) {
				continue
			}
			m.offset = 1
			done, spawned := a.advance(m, f.At, &detections)
			if !done {
				children = append(children, spawned...)
			}
		}
		if len(children) > cfg.MaxMatchers {
			children = children[len(children)-cfg.MaxMatchers:]
		}
	}
	return detections
}

// advance handles a matcher that just consumed a flow: completing the
// current state either finishes the task (final state) or forks the
// matcher into the state's successors. It reports whether the matcher
// terminated and, if not, the matchers to keep.
func (a *Automaton) advance(m *matcher, now time.Duration, detections *[]Detection) (done bool, keep []*matcher) {
	if m.offset < len(a.States[m.state].Seq) {
		return false, []*matcher{m}
	}
	// State completed.
	if a.final[m.state] {
		*detections = append(*detections, Detection{Task: a.Name, Start: m.started, End: now, Hosts: m.hosts()})
		return true, nil
	}
	succ := a.transitions[m.state]
	if len(succ) == 0 {
		return true, nil // dead end: not a final state, no successors
	}
	for _, si := range sortedKeys(succ) {
		c := m.clone()
		c.state = si
		c.offset = 0
		keep = append(keep, c)
	}
	return false, keep
}

func unionSorted(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		set[x] = true
	}
	out := make([]string, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// DedupeDetections merges detections of the same task whose spans
// overlap, keeping the earliest start and latest end.
func DedupeDetections(ds []Detection) []Detection {
	if len(ds) == 0 {
		return nil
	}
	sorted := append([]Detection(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Task != sorted[j].Task {
			return sorted[i].Task < sorted[j].Task
		}
		return sorted[i].Start < sorted[j].Start
	})
	var out []Detection
	for _, d := range sorted {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Task == d.Task && d.Start <= last.End {
				if d.End > last.End {
					last.End = d.End
				}
				last.Hosts = unionSorted(last.Hosts, d.Hosts)
				continue
			}
		}
		out = append(out, d)
	}
	return out
}
