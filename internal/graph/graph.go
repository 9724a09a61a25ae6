// Package graph provides the directed, node-labeled data graphs used
// throughout the library: G = (V, E, L) per Section II-A of Fan, Wang and
// Wu, "Answering Graph Pattern Queries Using Views" (ICDE 2014).
//
// Nodes are dense int32 identifiers. Each node carries one primary label
// (interned) and an optional set of integer-valued attributes; categorical
// attribute values (e.g. a video category) are interned through the same
// graph-level interner so that predicate evaluation is integer comparison.
//
// Two representations back the read-only Reader interface the engines
// consume: the mutable *Graph is adjacency-list based with both forward
// and reverse lists, kept sorted so that edge existence checks are
// logarithmic and set intersections used by the simulation engines are
// cache friendly, and supports in-place edge insertion and deletion,
// which the view maintenance code (internal/view) relies on; the
// immutable *Sharded (see Shard, and Freeze for k = 1) is k CSR shards
// with flat edge arrays, prebuilt label partitions and frozen attribute
// columns, optimized for concurrent read-only evaluation. Engines accept
// Reader and run identically on either backend.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a node of a Graph. IDs are dense: 0..NumNodes()-1.
type NodeID int32

// LabelID is an interned label (or interned categorical attribute value).
type LabelID int32

// NoLabel is returned by interner lookups for unknown names.
const NoLabel LabelID = -1

// Graph is a directed data graph with labeled nodes and optional
// integer-valued node attributes. The zero value is not usable; call New.
type Graph struct {
	labels *Interner // node labels and categorical attribute values

	nodeLabel []LabelID
	attrs     []map[string]int64 // nil entries for attribute-free nodes

	out [][]NodeID // sorted adjacency
	in  [][]NodeID // sorted reverse adjacency

	numEdges int

	// labelMu guards the lazy construction of labelIndex: read-only
	// operations (simulation, materialization) may run concurrently over
	// one graph, and the first NodesWithLabel call must not race.
	labelMu    sync.Mutex
	labelIndex map[LabelID][]NodeID // guarded by labelMu; lazily built, invalidated by AddNode

	// catKeys records attribute keys set through SetAttrString; their
	// values are interned label ids, which serialization must write as
	// strings so they survive re-interning on load.
	catKeys map[string]struct{}

	// snapMu orders concurrent Freeze/Shard calls, which are read-only
	// operations on g and may race each other like any other readers.
	snapMu    sync.Mutex
	snap      *memo         // guarded by snapMu; the last snapshot and the nodes dirtied since, nil when node data changed
	snapStats SnapshotStats // guarded by snapMu
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{labels: NewInterner()}
}

// NewWithCapacity returns an empty graph with room for n nodes.
func NewWithCapacity(n int) *Graph {
	return &Graph{
		labels:    NewInterner(),
		nodeLabel: make([]LabelID, 0, n),
		attrs:     make([]map[string]int64, 0, n),
		out:       make([][]NodeID, 0, n),
		in:        make([][]NodeID, 0, n),
	}
}

// Interner exposes the graph's label interner. Categorical attribute values
// share this interner; pattern compilation uses it to resolve names.
func (g *Graph) Interner() *Interner { return g.labels }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeLabel) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Size returns |G| = |V| + |E|, the size measure used by the paper.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// AddNode appends a node with the given label and returns its id.
func (g *Graph) AddNode(label string) NodeID {
	l := g.labels.Intern(label)
	// The node append and the index invalidation run under labelMu: the
	// lazy NodesWithLabel build reads nodeLabel and writes labelIndex
	// under the same lock, so a caller who misjudges the external
	// synchronization contract cannot tear the slice mid-build or bake a
	// stale index. Mutations still require external synchronization with
	// all other readers, as everywhere else on Graph.
	g.labelMu.Lock()
	id := NodeID(len(g.nodeLabel))
	g.nodeLabel = append(g.nodeLabel, l)
	g.attrs = append(g.attrs, nil)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.labelIndex = nil
	g.labelMu.Unlock()
	g.forgetSnapshot()
	return id
}

// forgetSnapshot drops the remembered snapshot: node data is about to
// change, so the next Freeze or Shard rebuilds the node columns too.
func (g *Graph) forgetSnapshot() {
	//gvcheck:ignore mutexguard mutators are externally synchronized with Freeze/Shard (see touch)
	g.snap = nil
}

// SetAttr sets integer attribute key=val on node v.
func (g *Graph) SetAttr(v NodeID, key string, val int64) {
	g.forgetSnapshot()
	if g.attrs[v] == nil {
		g.attrs[v] = make(map[string]int64, 4)
	}
	g.attrs[v][key] = val
}

// SetAttrString sets a categorical attribute; the value is interned. A
// key set through SetAttrString is categorical on every node: mixing
// string and integer values under one key is not supported.
func (g *Graph) SetAttrString(v NodeID, key, val string) {
	if g.catKeys == nil {
		g.catKeys = make(map[string]struct{})
	}
	g.catKeys[key] = struct{}{}
	g.SetAttr(v, key, int64(g.labels.Intern(val)))
}

// IsCategorical reports whether key holds interned string values.
func (g *Graph) IsCategorical(key string) bool {
	_, ok := g.catKeys[key]
	return ok
}

// Attr returns the attribute value for key on v.
func (g *Graph) Attr(v NodeID, key string) (int64, bool) {
	m := g.attrs[v]
	if m == nil {
		return 0, false
	}
	val, ok := m[key]
	return val, ok
}

// Attrs returns the attribute map of v (may be nil). The map aliases the
// node's live attribute storage: callers must not mutate it (see the
// Reader aliasing contract; use AttrsCopy for ownership).
func (g *Graph) Attrs(v NodeID) map[string]int64 { return g.attrs[v] }

// Label returns the interned label of v.
func (g *Graph) Label(v NodeID) LabelID { return g.nodeLabel[v] }

// LabelName returns the label of v as a string.
func (g *Graph) LabelName(v NodeID) string { return g.labels.Name(g.nodeLabel[v]) }

// insertSorted inserts x into sorted slice s if absent; reports insertion.
func insertSorted(s []NodeID, x NodeID) ([]NodeID, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s, true
}

// removeSorted removes x from sorted slice s; reports removal.
func removeSorted(s []NodeID, x NodeID) ([]NodeID, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i >= len(s) || s[i] != x {
		return s, false
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1], true
}

// AddEdge inserts the edge (u,v). It reports whether the edge was new.
// Self-loops are allowed; parallel edges are not (E ⊆ V×V per the paper).
func (g *Graph) AddEdge(u, v NodeID) bool {
	nu, inserted := insertSorted(g.out[u], v)
	if !inserted {
		return false
	}
	g.out[u] = nu
	g.in[v], _ = insertSorted(g.in[v], u)
	g.numEdges++
	g.touch(u, v)
	return true
}

// RemoveEdge deletes the edge (u,v). It reports whether the edge existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	nu, removed := removeSorted(g.out[u], v)
	if !removed {
		return false
	}
	g.out[u] = nu
	g.in[v], _ = removeSorted(g.in[v], u)
	g.numEdges--
	g.touch(u, v)
	return true
}

// HasEdge reports whether (u,v) ∈ E.
func (g *Graph) HasEdge(u, v NodeID) bool {
	s := g.out[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// Out returns the successors of v in ascending order. Read-only.
func (g *Graph) Out(v NodeID) []NodeID { return g.out[v] }

// In returns the predecessors of v in ascending order. Read-only.
func (g *Graph) In(v NodeID) []NodeID { return g.in[v] }

// OutDegree returns |post(v)|.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree returns |pre(v)|.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// NodesWithLabel returns all nodes carrying the given interned label.
// The index is built lazily and reused until the node set changes; the
// build is mutex-guarded so concurrent readers (parallel view
// materialization) are safe. Mutations must still be externally
// synchronized with readers, as everywhere else on Graph. The returned
// slice aliases the index: callers must not mutate it (Reader contract).
// Freeze the graph to get a mutex-free prebuilt index for read-heavy
// concurrent evaluation.
func (g *Graph) NodesWithLabel(l LabelID) []NodeID {
	g.labelMu.Lock()
	if g.labelIndex == nil {
		idx := make(map[LabelID][]NodeID)
		for v, lab := range g.nodeLabel {
			idx[lab] = append(idx[lab], NodeID(v))
		}
		g.labelIndex = idx
	}
	nodes := g.labelIndex[l]
	g.labelMu.Unlock()
	return nodes
}

// NodesWithLabelName is NodesWithLabel keyed by label name.
func (g *Graph) NodesWithLabelName(name string) []NodeID {
	l := g.labels.Lookup(name)
	if l == NoLabel {
		return nil
	}
	return g.NodesWithLabel(l)
}

// Clone returns a deep copy sharing no mutable state with g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		labels:    g.labels.Clone(),
		nodeLabel: append([]LabelID(nil), g.nodeLabel...),
		attrs:     make([]map[string]int64, len(g.attrs)),
		out:       make([][]NodeID, len(g.out)),
		in:        make([][]NodeID, len(g.in)),
		numEdges:  g.numEdges,
	}
	if g.catKeys != nil {
		c.catKeys = make(map[string]struct{}, len(g.catKeys))
		for k := range g.catKeys {
			c.catKeys[k] = struct{}{}
		}
	}
	for i, m := range g.attrs {
		if m != nil {
			cm := make(map[string]int64, len(m))
			for k, v := range m {
				cm[k] = v
			}
			c.attrs[i] = cm
		}
	}
	for i := range g.out {
		c.out[i] = append([]NodeID(nil), g.out[i]...)
		c.in[i] = append([]NodeID(nil), g.in[i]...)
	}
	return c
}

// Edges calls fn for every edge (u,v); it stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := range g.out {
		for _, v := range g.out[u] {
			if !fn(NodeID(u), v) {
				return
			}
		}
	}
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d |Σ|=%d}", g.NumNodes(), g.NumEdges(), g.labels.Len())
}

// Stats describes a graph; used by tools and EXPERIMENTS.md reporting.
type Stats struct {
	Nodes, Edges int
	Labels       int
	MaxOutDeg    int
	MaxInDeg     int
	AvgDeg       float64
}

// ComputeStats gathers Stats for g.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.labels.Len()}
	for v := 0; v < g.NumNodes(); v++ {
		if d := len(g.out[v]); d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
		if d := len(g.in[v]); d > s.MaxInDeg {
			s.MaxInDeg = d
		}
	}
	if s.Nodes > 0 {
		s.AvgDeg = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}
