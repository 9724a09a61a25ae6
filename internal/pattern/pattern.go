// Package pattern implements graph pattern queries Qs = (Vp, Ep, fv) and
// bounded pattern queries Qb = (Vp, Ep, fv, fe) from Sections II and VI of
// Fan, Wang and Wu, "Answering Graph Pattern Queries Using Views" (ICDE
// 2014). Pattern nodes carry a label and optional Boolean search
// conditions (predicates); bounded pattern edges carry a bound fe(e) that
// is either a positive integer k or * (Unbounded).
//
// A plain pattern query is the special case where every edge bound is 1.
package pattern

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"graphviews/internal/graph"
)

// Bound is an edge bound fe(e): a positive hop count or Unbounded (*).
type Bound int32

// Unbounded is the * bound: any nonempty path length is allowed.
const Unbounded Bound = -1

// IsValid reports whether b is a legal bound (≥1 or Unbounded).
func (b Bound) IsValid() bool { return b == Unbounded || b >= 1 }

// String renders the bound as in the DSL.
func (b Bound) String() string {
	if b == Unbounded {
		return "*"
	}
	return fmt.Sprintf("%d", int32(b))
}

// Leq reports whether bound b is at most c, treating Unbounded as +∞.
// It is the comparison used by the bounded-containment covering rule:
// a view edge with bound c can cover a query edge with bound b iff
// b.Leq(c) (Section VI-B; see DESIGN.md for the soundness discussion).
func (b Bound) Leq(c Bound) bool {
	if c == Unbounded {
		return true
	}
	if b == Unbounded {
		return false
	}
	return b <= c
}

// Node is a pattern node: a variable name, a required label, and an
// optional conjunction of predicates over node attributes.
type Node struct {
	Name  string
	Label string
	Preds []Predicate
}

// Edge is a directed pattern edge between node indices, with a bound.
// Bound 1 is the plain-pattern case.
type Edge struct {
	From, To int
	Bound    Bound
}

// Pattern is a (possibly bounded) graph pattern query. A pattern is
// mutable while being built (AddNode/AddEdge) and must then be treated
// as immutable; read accessors — including the lazily built adjacency —
// are safe for concurrent use on an immutable pattern.
type Pattern struct {
	Name  string
	Nodes []Node
	Edges []Edge

	// adj caches the per-node edge-index adjacency, built lazily and
	// published atomically so concurrent readers (requests sharing one
	// *Pattern) never observe a partial build. Mutations clear it;
	// concurrent duplicate builds are idempotent.
	adj atomic.Pointer[patternAdj]
}

// patternAdj is the derived adjacency of a pattern.
type patternAdj struct {
	out [][]int // node -> indices into Edges with From == node
	in  [][]int // node -> indices into Edges with To == node
}

// New returns an empty pattern with the given name.
func New(name string) *Pattern { return &Pattern{Name: name} }

// AddNode appends a pattern node and returns its index. An empty name is
// replaced with a positional one.
func (p *Pattern) AddNode(name, label string, preds ...Predicate) int {
	if name == "" {
		name = fmt.Sprintf("u%d", len(p.Nodes))
	}
	p.Nodes = append(p.Nodes, Node{Name: name, Label: label, Preds: preds})
	p.adj.Store(nil)
	return len(p.Nodes) - 1
}

// AddEdge appends a pattern edge (from, to) with bound 1.
func (p *Pattern) AddEdge(from, to int) int { return p.AddBoundedEdge(from, to, 1) }

// AddBoundedEdge appends a pattern edge with the given bound.
func (p *Pattern) AddBoundedEdge(from, to int, b Bound) int {
	p.Edges = append(p.Edges, Edge{From: from, To: to, Bound: b})
	p.adj.Store(nil)
	return len(p.Edges) - 1
}

// NodeIndex returns the index of the node with the given name, or -1.
func (p *Pattern) NodeIndex(name string) int {
	for i := range p.Nodes {
		if p.Nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// Size returns |Qs| = |Vp| + |Ep|, the size measure used by the paper.
func (p *Pattern) Size() int { return len(p.Nodes) + len(p.Edges) }

// IsPlain reports whether every edge bound is 1 (a pattern query, as
// opposed to a bounded pattern query).
func (p *Pattern) IsPlain() bool {
	for _, e := range p.Edges {
		if e.Bound != 1 {
			return false
		}
	}
	return true
}

// MaxBound returns the largest finite bound, and whether any edge is
// Unbounded.
func (p *Pattern) MaxBound() (max Bound, hasUnbounded bool) {
	for _, e := range p.Edges {
		if e.Bound == Unbounded {
			hasUnbounded = true
		} else if e.Bound > max {
			max = e.Bound
		}
	}
	return max, hasUnbounded
}

// adjacency returns the cached adjacency, building it on first use.
// Concurrent first uses may build it twice; the results are identical
// and the atomic publish keeps every reader on a fully built value.
func (p *Pattern) adjacency() *patternAdj {
	if a := p.adj.Load(); a != nil {
		return a
	}
	a := &patternAdj{
		out: make([][]int, len(p.Nodes)),
		in:  make([][]int, len(p.Nodes)),
	}
	for i, e := range p.Edges {
		a.out[e.From] = append(a.out[e.From], i)
		a.in[e.To] = append(a.in[e.To], i)
	}
	p.adj.Store(a)
	return a
}

// OutEdges returns the indices of edges leaving node u.
func (p *Pattern) OutEdges(u int) []int {
	return p.adjacency().out[u]
}

// InEdges returns the indices of edges entering node u.
func (p *Pattern) InEdges(u int) []int {
	return p.adjacency().in[u]
}

// Validate checks structural well-formedness: at least one node, unique
// node names, edge endpoints in range, valid bounds, no duplicate edges,
// and connectivity of the underlying undirected graph (the paper assumes
// connected patterns, Section II Remark (1)).
func (p *Pattern) Validate() error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("pattern %q: no nodes", p.Name)
	}
	names := make(map[string]struct{}, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Label == "" {
			return fmt.Errorf("pattern %q: node %d has no label", p.Name, i)
		}
		if _, dup := names[n.Name]; dup {
			return fmt.Errorf("pattern %q: duplicate node name %q", p.Name, n.Name)
		}
		names[n.Name] = struct{}{}
	}
	seen := make(map[[2]int]struct{}, len(p.Edges))
	for i, e := range p.Edges {
		if e.From < 0 || e.From >= len(p.Nodes) || e.To < 0 || e.To >= len(p.Nodes) {
			return fmt.Errorf("pattern %q: edge %d out of range", p.Name, i)
		}
		if !e.Bound.IsValid() {
			return fmt.Errorf("pattern %q: edge %d has invalid bound %d", p.Name, i, e.Bound)
		}
		key := [2]int{e.From, e.To}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("pattern %q: duplicate edge %s->%s", p.Name, p.Nodes[e.From].Name, p.Nodes[e.To].Name)
		}
		seen[key] = struct{}{}
	}
	if len(p.Nodes) > 1 && !p.connected() {
		return fmt.Errorf("pattern %q: not connected", p.Name)
	}
	return nil
}

func (p *Pattern) connected() bool {
	adj := make([][]int, len(p.Nodes))
	for _, e := range p.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, len(p.Nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == len(p.Nodes)
}

// AsGraph converts the pattern into a data graph over its node labels
// (used to evaluate view definitions over a query, Section V-A: "by
// treating Qs as a data graph"). Predicates and bounds are not encoded in
// the graph; callers that need them use the pattern directly.
func (p *Pattern) AsGraph() *graph.Graph {
	g := graph.NewWithCapacity(len(p.Nodes))
	for _, n := range p.Nodes {
		g.AddNode(n.Label)
	}
	for _, e := range p.Edges {
		g.AddEdge(graph.NodeID(e.From), graph.NodeID(e.To))
	}
	return g
}

// Ranks computes r(u) for every pattern node per Section III: rank 0 for
// nodes whose SCC is a leaf of the SCC condensation DAG, otherwise
// max(1 + rank of successor SCCs). The rank of an edge (u', u) is the rank
// of its target u.
func (p *Pattern) Ranks() []int { return graph.Ranks(p.AsGraph()) }

// EdgeRanks returns r(e) for every edge: the rank of its target node.
func (p *Pattern) EdgeRanks() []int {
	nr := p.Ranks()
	out := make([]int, len(p.Edges))
	for i, e := range p.Edges {
		out[i] = nr[e.To]
	}
	return out
}

// IsDAG reports whether the pattern has no directed cycle.
func (p *Pattern) IsDAG() bool {
	scc := graph.SCC(p.AsGraph())
	g := p.AsGraph()
	for ci := range scc.Comps {
		if !scc.IsSingleton(g, int32(ci)) {
			return false
		}
	}
	return true
}

// Diameter returns the longest shortest undirected path between any two
// pattern nodes (used by strong simulation's locality balls).
func (p *Pattern) Diameter() int {
	n := len(p.Nodes)
	adj := make([][]int, n)
	for _, e := range p.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	maxD := 0
	dist := make([]int, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		q := []int{s}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					if dist[w] > maxD {
						maxD = dist[w]
					}
					q = append(q, w)
				}
			}
		}
	}
	return maxD
}

// Clone returns a deep copy of p.
func (p *Pattern) Clone() *Pattern {
	c := &Pattern{Name: p.Name, Nodes: make([]Node, len(p.Nodes)), Edges: append([]Edge(nil), p.Edges...)}
	for i, n := range p.Nodes {
		c.Nodes[i] = Node{Name: n.Name, Label: n.Label, Preds: append([]Predicate(nil), n.Preds...)}
	}
	return c
}

// WithBounds returns a copy of p with every edge bound set to b (used by
// the experiment harness to derive bounded workloads from plain ones).
func (p *Pattern) WithBounds(b Bound) *Pattern {
	c := p.Clone()
	for i := range c.Edges {
		c.Edges[i].Bound = b
	}
	return c
}

// String renders the pattern in the DSL accepted by Parse.
func (p *Pattern) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern %s {\n", p.Name)
	for _, n := range p.Nodes {
		fmt.Fprintf(&sb, "  node %s: %s", n.Name, n.Label)
		if len(n.Preds) > 0 {
			parts := make([]string, len(n.Preds))
			for i, pr := range n.Preds {
				parts[i] = pr.String()
			}
			sort.Strings(parts)
			fmt.Fprintf(&sb, " [%s]", strings.Join(parts, ", "))
		}
		sb.WriteString("\n")
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&sb, "  edge %s -> %s", p.Nodes[e.From].Name, p.Nodes[e.To].Name)
		if e.Bound != 1 {
			fmt.Fprintf(&sb, " <=%s", e.Bound)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Equal reports structural equality (same order of nodes and edges, same
// names, labels, normalized predicates and bounds).
func (p *Pattern) Equal(q *Pattern) bool {
	if len(p.Nodes) != len(q.Nodes) || len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Nodes {
		a, b := p.Nodes[i], q.Nodes[i]
		if a.Name != b.Name || a.Label != b.Label || !EquivalentPreds(a.Preds, b.Preds) {
			return false
		}
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}
