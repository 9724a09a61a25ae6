package graph

import (
	"fmt"
	"sort"
)

// Frozen is an immutable CSR (compressed sparse row) snapshot of a data
// graph: flat []NodeID edge arrays addressed by []int32 offsets for both
// adjacency directions, a prebuilt label-partitioned node index (no mutex,
// no lazy build), and frozen attribute columns. Build one with Freeze;
// Thaw converts back to a mutable *Graph.
//
// A Frozen shares no mutable state with the graph it was built from and
// is therefore safe for unsynchronized concurrent use by any number of
// readers — the engines' hottest read path, NodesWithLabel, is a pure
// slice of the prebuilt partition with no locking. The flat edge arrays
// also give the simulation fixpoints better cache locality than the
// per-node adjacency slices of *Graph.
//
// What a Frozen does share is immutable arrays with its neighbours in
// time: consecutive snapshots of one *Graph that saw only edge updates
// in between hold the same node header and node columns (see
// snapshot.go), and a snapshot taken with nothing changed is the
// previous one.
type Frozen struct {
	nodeHeader
	nodeColumns // of the single partition holding every node
	csr
	numEdges int
}

// Freeze returns an immutable CSR snapshot of r. Later mutations of a
// source *Graph never show through: the interner is cloned and every
// array the snapshot holds is private to snapshots. Freezing a *Frozen
// returns it unchanged (it is already immutable).
//
// The first snapshot of a graph costs O(|V|+|E|) plus the attribute
// volume. A *Graph remembers the last snapshot taken of it and the nodes
// whose adjacency AddEdge/RemoveEdge changed since, so the next Freeze
// shares the node columns (labels, label partition, attributes) with it
// and splices the new CSR: bulk copies of the untouched runs plus the
// dirty nodes' lists — O(dirty) graph reads and two memmoves per
// direction. With nothing dirty the remembered snapshot itself is
// returned. AddNode, SetAttr and SetAttrString drop the memory, and past
// |V|/4 dirty nodes only the node columns are reused. The result is
// field for field what a from-scratch build of the same graph yields.
func Freeze(r Reader) *Frozen {
	if fz, ok := r.(*Frozen); ok {
		return fz
	}
	g, ok := r.(*Graph)
	if !ok {
		return freeze(r, nil, nil)
	}
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	m := g.reusable()
	prev, _ := m.last.(*Frozen)
	if prev == nil {
		m = memo{} // a remembered *Sharded is laid out differently
	}
	var dirty []int32
	if m.dirty != nil {
		if m.nDirty == 0 {
			g.snapStats.SharedParts++
			return prev
		}
		dirty = m.partitionDirty(1)[0]
	}
	fz := freeze(g, prev, dirty)
	g.remember(fz, m)
	return fz
}

// freeze is the one Frozen build routine. prev, when non-nil, is an
// earlier snapshot of r with identical node data: its node header and
// columns are shared, and when dirty is non-nil too — the ascending node
// ids whose adjacency changed since prev — so are its clean CSR runs.
func freeze(r Reader, prev *Frozen, dirty []int32) *Frozen {
	n := r.NumNodes()
	fz := &Frozen{numEdges: r.NumEdges()}
	var from *csr
	if prev == nil {
		fz.nodeHeader = newHeader(r)
		fz.nodeColumns = buildColumns(r, &fz.nodeHeader, 0, 1, n)
	} else {
		fz.nodeHeader, fz.nodeColumns = prev.nodeHeader, prev.nodeColumns
		if dirty != nil {
			from = &prev.csr
		}
	}
	fz.csr = buildCSR(r, 0, 1, n, from, dirty)
	return fz
}

// Thaw converts the snapshot back to a mutable *Graph. Mutating the
// graph never shows through f; the graph remembers f as its last
// snapshot (see Freeze), so Freeze(f.Thaw()) is f itself.
func (f *Frozen) Thaw() *Graph { return thaw(f, f.catKeys) }

// Interner exposes the snapshot's label interner (a clone of the source
// graph's, so label ids coincide).
func (f *Frozen) Interner() *Interner { return f.labels }

// NumNodes returns |V|.
func (f *Frozen) NumNodes() int { return len(f.nodeLabel) }

// NumEdges returns |E|.
func (f *Frozen) NumEdges() int { return f.numEdges }

// Size returns |G| = |V| + |E|.
func (f *Frozen) Size() int { return f.NumNodes() + f.numEdges }

// Label returns the interned label of v.
func (f *Frozen) Label(v NodeID) LabelID { return f.nodeLabel[v] }

// LabelName returns the label of v as a string.
func (f *Frozen) LabelName(v NodeID) string { return f.labels.Name(f.nodeLabel[v]) }

// Attr returns the attribute value for key on v, by linear scan over the
// node's frozen column range (nodes carry at most a handful of keys).
func (f *Frozen) Attr(v NodeID, key string) (int64, bool) {
	for i := f.attrOff[v]; i < f.attrOff[v+1]; i++ {
		if f.attrKey[i] == key {
			return f.attrVal[i], true
		}
	}
	return 0, false
}

// Attrs returns the attribute map of v, materialized fresh from the
// frozen columns (nil for attribute-free nodes). Unlike *Graph.Attrs the
// returned map does not alias backend storage, but callers should still
// treat it as read-only per the Reader contract; use AttrsCopy for
// guaranteed ownership on any backend.
func (f *Frozen) Attrs(v NodeID) map[string]int64 {
	lo, hi := f.attrOff[v], f.attrOff[v+1]
	if hi == lo {
		return nil
	}
	m := make(map[string]int64, hi-lo)
	for i := lo; i < hi; i++ {
		m[f.attrKey[i]] = f.attrVal[i]
	}
	return m
}

// IsCategorical reports whether key holds interned string values.
func (f *Frozen) IsCategorical(key string) bool {
	_, ok := f.catKeys[key]
	return ok
}

// Out returns the successors of v in ascending order. The slice is a
// capped view into the CSR array: read-only, immutable by construction.
func (f *Frozen) Out(v NodeID) []NodeID {
	return f.outAdj[f.outOff[v]:f.outOff[v+1]:f.outOff[v+1]]
}

// In returns the predecessors of v in ascending order. Read-only.
func (f *Frozen) In(v NodeID) []NodeID {
	return f.inAdj[f.inOff[v]:f.inOff[v+1]:f.inOff[v+1]]
}

// OutDegree returns |post(v)|.
func (f *Frozen) OutDegree(v NodeID) int { return int(f.outOff[v+1] - f.outOff[v]) }

// InDegree returns |pre(v)|.
func (f *Frozen) InDegree(v NodeID) int { return int(f.inOff[v+1] - f.inOff[v]) }

// HasEdge reports whether (u,v) ∈ E, by binary search over u's CSR range.
func (f *Frozen) HasEdge(u, v NodeID) bool {
	s := f.Out(u)
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// NodesWithLabel returns all nodes carrying the given interned label, in
// ascending order, as a capped view into the prebuilt partition — no
// mutex, no lazy build, immutable by construction. Unknown labels
// (including NoLabel) yield nil.
func (f *Frozen) NodesWithLabel(l LabelID) []NodeID {
	if l < 0 || int(l) >= len(f.labelOff)-1 {
		return nil
	}
	lo, hi := f.labelOff[l], f.labelOff[l+1]
	if lo == hi {
		return nil
	}
	return f.labelIdx[lo:hi:hi]
}

// NodesWithLabelName is NodesWithLabel keyed by label name.
func (f *Frozen) NodesWithLabelName(name string) []NodeID {
	return f.NodesWithLabel(f.labels.Lookup(name))
}

// Edges calls fn for every edge (u,v) grouped by ascending source; it
// stops early if fn returns false.
func (f *Frozen) Edges(fn func(u, v NodeID) bool) {
	for u := 0; u < len(f.nodeLabel); u++ {
		for _, v := range f.outAdj[f.outOff[u]:f.outOff[u+1]] {
			if !fn(NodeID(u), v) {
				return
			}
		}
	}
}

// String summarizes the snapshot.
func (f *Frozen) String() string {
	return fmt.Sprintf("frozen{|V|=%d |E|=%d |Σ|=%d}", f.NumNodes(), f.numEdges, f.labels.Len())
}

// ComputeStats gathers Stats for the snapshot.
func (f *Frozen) ComputeStats() Stats {
	s := Stats{Nodes: f.NumNodes(), Edges: f.numEdges, Labels: f.labels.Len()}
	for v := 0; v < f.NumNodes(); v++ {
		if d := f.OutDegree(NodeID(v)); d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
		if d := f.InDegree(NodeID(v)); d > s.MaxInDeg {
			s.MaxInDeg = d
		}
	}
	if s.Nodes > 0 {
		s.AvgDeg = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}
