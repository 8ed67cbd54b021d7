// The module call graph over the fact store. Edges come from three
// sources: statically resolved calls (direct, method, deferred),
// function-value references (method values and functions passed as
// arguments — conservatively treated as called), and interface calls
// expanded structurally: an interface call edge goes to the matching
// method of every analyzed type whose method set covers the
// interface's full method set by name and package-qualified signature.
// Structural matching keeps resolution independent of the loader's
// per-package type universes.
package lint

import "sort"

// Graph is the resolved call graph.
type Graph struct {
	facts *Facts
	// edges maps caller to sorted callee IDs (in-set and out-of-set).
	edges map[FuncID][]FuncID
}

// NewGraph builds the graph, expanding interface calls against the
// module's type facts.
func NewGraph(f *Facts) *Graph {
	g := &Graph{
		facts: f,
		edges: make(map[FuncID][]FuncID),
	}
	allTypes := f.Types()
	for _, s := range f.Funcs() {
		seen := make(map[FuncID]bool)
		var out []FuncID
		add := func(id FuncID) {
			if id != "" && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		for i := range s.Calls {
			c := &s.Calls[i]
			if c.Iface != nil {
				for _, impl := range resolveIface(allTypes, c.Iface) {
					add(impl)
				}
				continue
			}
			add(c.Callee)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		g.edges[s.ID] = out
	}
	return g
}

// resolveIface returns the FuncIDs of every analyzed type's method
// matching the interface call, for types that structurally implement
// the full interface.
func resolveIface(allTypes []*TypeFacts, call *IfaceCall) []FuncID {
	var out []FuncID
	for _, tf := range allTypes {
		ok := true
		for _, m := range call.MethodSet {
			tm, has := tf.Methods[m.Name]
			if !has || tm.Sig != m.Sig {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if tm, has := tf.Methods[call.Method]; has {
			out = append(out, tm.ID)
		}
	}
	return out
}

// Callees returns the sorted outgoing edges of id.
func (g *Graph) Callees(id FuncID) []FuncID {
	return g.edges[id]
}

// Reachable returns every function reachable from the roots (roots
// included, when they exist in the fact store), following only edges
// into summarized functions.
func (g *Graph) Reachable(roots ...FuncID) map[FuncID]bool {
	seen := make(map[FuncID]bool)
	var stack []FuncID
	for _, r := range roots {
		if g.facts.Func(r) != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, callee := range g.edges[id] {
			if seen[callee] || g.facts.Func(callee) == nil {
				continue
			}
			seen[callee] = true
			stack = append(stack, callee)
		}
	}
	return seen
}
