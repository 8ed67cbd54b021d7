// The module call graph over the fact store. Edges are the summaries'
// calls: statically resolved calls (direct, method, deferred) and
// function-value references (method values and functions passed as
// arguments, conservatively treated as called). A call through an
// interface ends at the interface method: the graph does not expand it
// to the module's implementations.
package lint

// Graph is the call graph over one fact store.
type Graph struct {
	facts *Facts
}

// NewGraph returns the call graph over f's summaries.
func NewGraph(f *Facts) *Graph {
	return &Graph{facts: f}
}

// Reachable returns every function reachable from the roots (roots
// included, when they exist in the fact store), following only edges
// into summarized functions.
func (g *Graph) Reachable(roots ...FuncID) map[FuncID]bool {
	seen := make(map[FuncID]bool)
	var stack []FuncID
	visit := func(id FuncID) {
		if !seen[id] && g.facts.Func(id) != nil {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, callee := range g.facts.Func(id).Calls {
			visit(callee)
		}
	}
	return seen
}
