package graph

// Reader is the read-only view of a data graph that every engine in this
// library — simulation, bounded materialization, containment matching,
// MatchJoin seeding — consumes. Two backends satisfy it:
//
//   - *Graph, the mutable adjacency-list representation that the view
//     maintenance code (internal/view.Maintained) updates in place;
//   - *Sharded, a hash-partitioned family of k immutable CSR shards built
//     by Shard (Freeze is k = 1), with flat edge arrays, per-shard label
//     partitions (merge-on-read global NodesWithLabel; at k = 1 the
//     prebuilt partition itself, no mutex) and frozen attribute columns.
//
// Engines written against Reader run unchanged on any backend — and on
// future backends (persistent) that implement the same contract.
//
// # Aliasing contract
//
// Out, In and NodesWithLabel return slices that alias the backend's
// internal storage: callers must treat them as immutable and must not
// append to, reorder or write through them. Attrs likewise returns a map
// the caller must not mutate (for *Graph it is the node's live attribute
// map; *Sharded materializes it from its frozen columns). Use AttrsCopy
// when ownership of the map is required.
//
// # Ordering contract
//
// Out and In are sorted ascending; NodesWithLabel returns node ids in
// ascending order; Edges enumerates edges grouped by source in ascending
// (source, target) order. The engines rely on these orders to produce
// byte-identical results across backends.
//
// # Concurrency contract
//
// Every Reader method is safe for concurrent use as long as no goroutine
// mutates the backend. *Sharded is immutable apart from its mutex-guarded
// merge-on-read label cache and therefore always safe; *Graph likewise
// serializes the lazy build of its label index, but mutations (AddNode/AddEdge/...) still require external synchronization
// with readers.
type Reader interface {
	// NumNodes returns |V|. Node ids are dense: 0..NumNodes()-1.
	NumNodes() int
	// NumEdges returns |E|.
	NumEdges() int
	// Size returns |G| = |V| + |E|, the size measure used by the paper.
	Size() int
	// Interner exposes the label interner shared by node labels and
	// categorical attribute values; pattern compilation resolves names
	// through it.
	Interner() *Interner
	// Label returns the interned label of v.
	Label(v NodeID) LabelID
	// LabelName returns the label of v as a string.
	LabelName(v NodeID) string
	// Attr returns the attribute value for key on v.
	Attr(v NodeID, key string) (int64, bool)
	// Attrs returns the attribute map of v (nil or empty for
	// attribute-free nodes). Callers must not mutate it; see the aliasing
	// contract above and AttrsCopy.
	Attrs(v NodeID) map[string]int64
	// IsCategorical reports whether key holds interned string values.
	IsCategorical(key string) bool
	// Out returns the successors of v in ascending order. Read-only.
	Out(v NodeID) []NodeID
	// In returns the predecessors of v in ascending order. Read-only.
	In(v NodeID) []NodeID
	// OutDegree returns |post(v)|.
	OutDegree(v NodeID) int
	// InDegree returns |pre(v)|.
	InDegree(v NodeID) int
	// HasEdge reports whether (u,v) ∈ E.
	HasEdge(u, v NodeID) bool
	// NodesWithLabel returns all nodes carrying the given interned label,
	// ascending. Read-only. Unknown labels (including NoLabel) yield nil.
	NodesWithLabel(l LabelID) []NodeID
	// NodesWithLabelName is NodesWithLabel keyed by label name.
	NodesWithLabelName(name string) []NodeID
	// Edges calls fn for every edge (u,v) grouped by ascending source;
	// it stops early if fn returns false.
	Edges(fn func(u, v NodeID) bool)
}

// Every backend must satisfy Reader.
var (
	_ Reader = (*Graph)(nil)
	_ Reader = (*Sharded)(nil)
)

// AttrsCopy returns an owned copy of v's attribute map (nil when v has no
// attributes). Use it instead of Reader.Attrs when the caller needs to
// retain or mutate the map — Attrs aliases backend storage on *Graph.
func AttrsCopy(r Reader, v NodeID) map[string]int64 {
	m := r.Attrs(v)
	if m == nil {
		return nil
	}
	c := make(map[string]int64, len(m))
	for k, val := range m {
		c[k] = val
	}
	return c
}
