package graph

import (
	"math/bits"
	"sort"
)

// Snapshot building blocks of the immutable backend. A snapshot is three
// groups of arrays with different lifetimes:
//
//   - nodeHeader and nodeColumns — the interner clone, the node labels,
//     the label partition and the attribute columns. Only AddNode,
//     SetAttr and SetAttrString change what they hold, so consecutive
//     snapshots of one *Graph under an edge-only update stream share
//     them: the structs are copied, the arrays behind them are not.
//   - csr — the adjacency of one hash partition, the only part an edge
//     update can change. buildCSR copies the runs of untouched nodes out
//     of the previous snapshot's arrays in bulk and reads only the dirty
//     nodes' lists from the graph.
//
// Each shard of a *Sharded is partition si of k, owning the nodes si,
// si+k, ... at the local indices v div k.

// nodeHeader is the graph-wide node data of a snapshot.
type nodeHeader struct {
	labels    *Interner
	nodeLabel []LabelID
	catKeys   map[string]struct{}
}

// nodeColumns is the per-partition node data of a snapshot.
type nodeColumns struct {
	// Label partition restricted to the owned nodes:
	// labelIdx[labelOff[l]:labelOff[l+1]], ascending.
	labelOff []int32
	labelIdx []NodeID

	// Attribute columns: the owned node at local index li carries the
	// parallel key/value ranges attrKey[attrOff[li]:attrOff[li+1]] /
	// attrVal[...], keys sorted per node so the build is deterministic.
	attrOff []int32
	attrKey []string
	attrVal []int64
}

// csr is the adjacency of one partition in both directions: the owned
// node at local index li has Out = outAdj[outOff[li]:outOff[li+1]] and
// In = inAdj[inOff[li]:inOff[li+1]], both ascending.
type csr struct {
	outOff []int32
	outAdj []NodeID
	inOff  []int32
	inAdj  []NodeID
}

// newHeader clones r's interner and node labels. catKeys is filled by
// buildColumns, which sees the attribute keys.
func newHeader(r Reader) nodeHeader {
	h := nodeHeader{labels: r.Interner().Clone(), nodeLabel: make([]LabelID, r.NumNodes())}
	for v := range h.nodeLabel {
		h.nodeLabel[v] = r.Label(NodeID(v))
	}
	return h
}

// ownedNodes is the number of nodes partition si of k owns out of n:
// si, si+k, ... below n.
func ownedNodes(n, si, k int) int {
	if si >= n {
		return 0
	}
	return (n - si + k - 1) / k
}

// buildColumns builds partition si of k's node columns over its n owned
// nodes and records the categorical keys it meets in h.
func buildColumns(r Reader, h *nodeHeader, si, k, n int) nodeColumns {
	// Label partition by counting sort: the ascending owned-node walk
	// keeps every partition ascending, matching *Graph's lazy index.
	nl := h.labels.Len()
	c := nodeColumns{
		labelOff: make([]int32, nl+1),
		labelIdx: make([]NodeID, n),
		attrOff:  make([]int32, n+1),
	}
	for li := 0; li < n; li++ {
		c.labelOff[h.nodeLabel[li*k+si]+1]++
	}
	for l := 0; l < nl; l++ {
		c.labelOff[l+1] += c.labelOff[l]
	}
	fill := make([]int32, nl)
	for li := 0; li < n; li++ {
		l := h.nodeLabel[li*k+si]
		c.labelIdx[c.labelOff[l]+fill[l]] = NodeID(li*k + si)
		fill[l]++
	}

	// Attribute columns, keys sorted per node: map iteration order must
	// not leak into the columns, or two builds of one graph would differ.
	var keys []string
	for li := 0; li < n; li++ {
		attrs := r.Attrs(NodeID(li*k + si))
		keys = keys[:0]
		for key := range attrs {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			c.attrKey = append(c.attrKey, key)
			c.attrVal = append(c.attrVal, attrs[key])
			if r.IsCategorical(key) {
				if h.catKeys == nil {
					h.catKeys = make(map[string]struct{})
				}
				h.catKeys[key] = struct{}{}
			}
		}
		c.attrOff[li+1] = int32(len(c.attrKey))
	}
	return c
}

// buildCSR builds the adjacency of partition si of k over its n owned
// nodes. dirty lists, ascending, the local indices whose lists differ
// from prev; every run of nodes between them keeps its lists, so its
// offsets are prev's shifted by the growth so far and its adjacency is
// one bulk copy out of prev's arrays. Only the dirty nodes are read from
// r. With no prev every node is dirty and this is the from-scratch build
// (dirty is then ignored).
func buildCSR(r Reader, si, k, n int, prev *csr, dirty []int32) csr {
	c := csr{outOff: make([]int32, n+1), inOff: make([]int32, n+1)}
	// nextDirty yields the dirty indices in order, then n. Both passes
	// below consume it once per run, so di is reset between them.
	di := 0
	nextDirty := func(li int) int {
		switch {
		case prev == nil:
			return li
		case di == len(dirty):
			return n
		}
		di++
		return int(dirty[di-1])
	}
	for li := 0; li < n; li++ {
		d := nextDirty(li)
		if li < d {
			dOut, dIn := c.outOff[li]-prev.outOff[li], c.inOff[li]-prev.inOff[li]
			for ; li < d; li++ {
				c.outOff[li+1] = prev.outOff[li+1] + dOut
				c.inOff[li+1] = prev.inOff[li+1] + dIn
			}
		}
		if d < n {
			v := NodeID(d*k + si)
			c.outOff[d+1] = c.outOff[d] + int32(r.OutDegree(v))
			c.inOff[d+1] = c.inOff[d] + int32(r.InDegree(v))
		}
	}
	c.outAdj = make([]NodeID, c.outOff[n])
	c.inAdj = make([]NodeID, c.inOff[n])
	di = 0
	for li := 0; li < n; li++ {
		d := nextDirty(li)
		if li < d {
			copy(c.outAdj[c.outOff[li]:c.outOff[d]], prev.outAdj[prev.outOff[li]:prev.outOff[d]])
			copy(c.inAdj[c.inOff[li]:c.inOff[d]], prev.inAdj[prev.inOff[li]:prev.inOff[d]])
			li = d
		}
		if d < n {
			v := NodeID(d*k + si)
			copy(c.outAdj[c.outOff[d]:c.outOff[d+1]], r.Out(v))
			copy(c.inAdj[c.inOff[d]:c.inOff[d+1]], r.In(v))
		}
	}
	return c
}

// memo is what a *Graph remembers about the last snapshot taken of it
// (or thawed into it), so that the next one can be built from it.
type memo struct {
	// last is that snapshot.
	last *Sharded
	// dirty is a bitset over node ids: the nodes whose adjacency changed
	// since last. nil once tracking was abandoned — the next build then
	// reads every list from the graph and shares only the node columns.
	dirty  []uint64
	nDirty int
}

// dirtyAbandonDiv bounds dirty tracking: once more than 1/dirtyAbandonDiv
// of the nodes are dirty the clean runs between them are too short for
// the bulk copies to pay, and AddEdge/RemoveEdge stop recording.
const dirtyAbandonDiv = 4

// mark records v as dirty.
func (m *memo) mark(v NodeID) {
	w, bit := v>>6, uint64(1)<<(v&63)
	if m.dirty[w]&bit == 0 {
		m.dirty[w] |= bit
		m.nDirty++
	}
}

// partitionDirty splits the dirty set into one ascending list of local
// indices per partition of k.
func (m *memo) partitionDirty(k int) [][]int32 {
	lists := make([][]int32, k)
	for w, word := range m.dirty {
		for ; word != 0; word &= word - 1 {
			v := w<<6 + bits.TrailingZeros64(word)
			lists[v%k] = append(lists[v%k], int32(v/k))
		}
	}
	return lists
}

// SnapshotStats counts, over the life of one *Graph, what Shard had to
// do for it. Both fields only grow; internal/serve exports them as
// counters.
type SnapshotStats struct {
	// DirtyNodes is the number of nodes whose adjacency lists a build
	// read from the graph instead of copying them from the previous
	// snapshot; a from-scratch build counts every node.
	DirtyNodes int
	// SharedParts is the number of shards carried over from the previous
	// snapshot without copying anything.
	SharedParts int
}

// SnapshotStats returns the counters accumulated so far.
func (g *Graph) SnapshotStats() SnapshotStats {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	return g.snapStats
}

// reusable returns the memo a build may start from: the zero memo when g
// remembers no snapshot, or when the label universe grew behind its back
// (Interner().Intern on the live graph), which changes the shape of the
// label partition.
//
//gvcheck:holds snapMu Shard calls this with the lock held
func (g *Graph) reusable() memo {
	if g.snap == nil || g.snap.last.Interner().Len() != g.labels.Len() {
		return memo{}
	}
	return *g.snap
}

// remember makes s, just built from the memo from, the snapshot the next
// build starts from: it counts the nodes the build read and restarts
// dirty tracking, recycling from's bitset.
//
//gvcheck:holds snapMu Shard calls this with the lock held
func (g *Graph) remember(s *Sharded, from memo) {
	if from.dirty != nil {
		g.snapStats.DirtyNodes += from.nDirty
	} else {
		g.snapStats.DirtyNodes += g.NumNodes()
	}
	words := (g.NumNodes() + 63) / 64
	if len(from.dirty) == words {
		clear(from.dirty)
	} else {
		from.dirty = make([]uint64, words)
	}
	g.snap = &memo{last: s, dirty: from.dirty}
}

// touch records that the adjacency of u and v changed. It costs one nil
// check until a snapshot exists, so bulk loading pays nothing.
func (g *Graph) touch(u, v NodeID) {
	// Mutations exclude every reader of g, Shard included (the Reader
	// concurrency contract); snapMu only orders concurrent builds.
	//gvcheck:ignore mutexguard mutators are externally synchronized with Shard
	m := g.snap
	if m == nil || m.dirty == nil {
		return
	}
	m.mark(u)
	m.mark(v)
	if m.nDirty > len(g.nodeLabel)/dirtyAbandonDiv {
		m.dirty = nil
	}
}

// thaw builds the mutable twin of a snapshot. The new graph remembers r
// as its last snapshot, so the first Shard at r's k after a restart
// shares r's node columns instead of rebuilding them.
func thaw(r *Sharded) *Graph {
	n := r.NumNodes()
	g := &Graph{
		labels:    r.Interner().Clone(),
		nodeLabel: make([]LabelID, n),
		attrs:     make([]map[string]int64, n),
		out:       make([][]NodeID, n),
		in:        make([][]NodeID, n),
		numEdges:  r.NumEdges(),
	}
	for v := 0; v < n; v++ {
		id := NodeID(v)
		g.nodeLabel[v] = r.Label(id)
		if out := r.Out(id); len(out) > 0 {
			g.out[v] = append([]NodeID(nil), out...)
		}
		if in := r.In(id); len(in) > 0 {
			g.in[v] = append([]NodeID(nil), in...)
		}
		g.attrs[v] = r.Attrs(id)
	}
	if len(r.catKeys) > 0 {
		g.catKeys = make(map[string]struct{}, len(r.catKeys))
		for k := range r.catKeys {
			g.catKeys[k] = struct{}{}
		}
	}
	g.snap = &memo{last: r, dirty: make([]uint64, (n+63)/64)}
	return g
}
