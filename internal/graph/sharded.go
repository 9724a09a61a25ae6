package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Sharded is the immutable graph backend: k CSR shards, each owning the
// nodes hashed to it, together satisfying Reader so that every engine —
// simulation, bounded materialization, containment matching, MatchJoin
// seeding — runs on it unchanged. Build one with Shard, or with Freeze
// for the single-shard snapshot; Thaw converts back to a mutable *Graph.
//
// Partitioning is by node id: shard s owns exactly the nodes v with
// v mod k == s (the dense id space makes the modulus a perfect hash),
// and node v's shard-local index is v div k. Each shard holds
//
//   - CSR adjacency (both directions) for its owned nodes — a node's
//     full edge lists live with its owner, so Out/In are single sorted
//     slices of flat []NodeID arrays addressed by []int32 offsets;
//   - a per-shard label partition, ascending within the shard, so
//     candidate seeding can scan shards independently (the
//     shard-parallel materialization path in internal/simulation);
//   - frozen attribute columns for the owned nodes.
//
// An edge (u,v) thus lives in shard u mod k's forward CSR and in shard
// v mod k's reverse CSR.
//
// NodesWithLabel is partitioned with merge-on-read semantics: the global
// ascending partition for a label is k-way-merged from the per-shard
// partitions on first request and cached (mutex-guarded, like *Graph's
// lazy index — the shard-parallel seeding path never takes the lock).
// Apart from that cache a Sharded is immutable after construction and
// safe for unsynchronized concurrent use.
//
// At k = 1 the one shard holds every node at its own id, so the readers
// skip the shard arithmetic and NodesWithLabel
// returns the prebuilt partition with no lock and no cache.
type Sharded struct {
	nodeHeader // nodeLabel is global: Label(v) must not pay a shard hop
	numEdges   int
	k          int
	shards     []shard

	// mergeMu guards the lazily built merge-on-read label cache.
	mergeMu sync.Mutex
	merged  map[LabelID][]NodeID // guarded by mergeMu
}

// shard is one hash partition. All arrays are indexed by the shard-local
// node index li = v div k; the owned node ids are s, s+k, s+2k, ...
type shard struct {
	n int // owned node count

	nodeColumns
	csr
}

// Freeze returns the single-shard snapshot of r, Shard(r, 1): one CSR
// holding every node, with a prebuilt lock-free label partition.
func Freeze(r Reader) *Sharded { return Shard(r, 1) }

// Shard splits any Reader (mutable *Graph or another *Sharded) into k
// hash partitions. k is clamped to at least 1; shards may own zero nodes
// when k exceeds |V|. Later mutations of a source *Graph never show
// through: the interner is cloned and every array the snapshot holds is
// private to snapshots. Sharding a *Sharded that already has k shards
// returns it unchanged.
//
// The first split of a graph costs O(|V|+|E|) plus the attribute volume.
// A *Graph remembers the last snapshot taken of it and the nodes whose
// adjacency AddEdge/RemoveEdge changed since, so the next Shard at the
// same k shares the node header and every shard's node columns (labels,
// label partition, attributes), carries a shard none of whose nodes is
// dirty over whole, and splices the CSR of the others: bulk copies of
// the untouched runs plus the dirty nodes' lists. With nothing dirty the
// remembered snapshot itself is returned. AddNode, SetAttr and
// SetAttrString drop the memory, and past |V|/4 dirty nodes only the
// node columns are reused. The result is field for field what a
// from-scratch split of the same graph yields.
func Shard(r Reader, k int) *Sharded {
	if k < 1 {
		k = 1
	}
	if sh, ok := r.(*Sharded); ok && sh.k == k {
		return sh
	}
	g, ok := r.(*Graph)
	if !ok {
		s, _ := shardOf(r, k, nil, nil)
		return s
	}
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	m := g.reusable()
	prev := m.last
	if prev == nil || prev.k != k {
		prev, m = nil, memo{}
	}
	var dirty [][]int32
	if m.dirty != nil {
		if m.nDirty == 0 {
			g.snapStats.SharedParts += k
			return prev
		}
		dirty = m.partitionDirty(k)
	}
	s, shared := shardOf(g, k, prev, dirty)
	g.snapStats.SharedParts += shared
	g.remember(s, m)
	return s
}

// shardOf is the one Sharded build routine. prev, when non-nil, is an
// earlier k-way split of r with identical node data: its node header and
// per-shard node columns are shared, and when dirty is non-nil too — per
// shard, the ascending local indices whose adjacency changed since prev
// — a shard with none is carried over whole (the second result counts
// them) and the others keep their clean CSR runs.
func shardOf(r Reader, k int, prev *Sharded, dirty [][]int32) (*Sharded, int) {
	n := r.NumNodes()
	s := &Sharded{numEdges: r.NumEdges(), k: k, shards: make([]shard, k)}
	if prev == nil {
		s.nodeHeader = newHeader(r)
	} else {
		s.nodeHeader = prev.nodeHeader
	}
	shared := 0
	for si := range s.shards {
		sh := &s.shards[si]
		var from *csr
		var list []int32
		if prev == nil {
			sh.n = ownedNodes(n, si, k)
			sh.nodeColumns = buildColumns(r, &s.nodeHeader, si, k, sh.n)
		} else {
			old := &prev.shards[si]
			if dirty != nil {
				if len(dirty[si]) == 0 {
					*sh = *old
					shared++
					continue
				}
				from, list = &old.csr, dirty[si]
			}
			sh.n, sh.nodeColumns = old.n, old.nodeColumns
		}
		sh.csr = buildCSR(r, si, k, sh.n, from, list)
	}
	return s, shared
}

// Thaw converts the partitions back to a mutable *Graph. Mutating the
// graph never shows through s; the graph remembers s as its last
// snapshot (see Shard), so the first Shard at the same k after a restart
// shares s's node columns, and Shard(s.Thaw(), s.NumShards()) is s.
func (s *Sharded) Thaw() *Graph { return thaw(s) }

// locate returns the shard owning v and v's local index in it. At k = 1
// that is shard 0 at index v, with no division on the hot read path.
func (s *Sharded) locate(v NodeID) (*shard, int) {
	if s.k == 1 {
		return &s.shards[0], int(v)
	}
	return &s.shards[int(v)%s.k], int(v) / s.k
}

// NumShards returns k, the number of hash partitions.
func (s *Sharded) NumShards() int { return s.k }

// ShardOf returns the shard owning node v.
func (s *Sharded) ShardOf(v NodeID) int { return int(v) % s.k }

// ShardSize returns the number of nodes owned by shard si.
func (s *Sharded) ShardSize(si int) int { return s.shards[si].n }

// ShardNodesWithLabel returns shard si's slice of the label partition:
// the owned nodes carrying label l, ascending. Read-only; no lock. The
// shard-parallel candidate seeding scans these instead of the merged
// global partition. Unknown labels yield nil.
func (s *Sharded) ShardNodesWithLabel(si int, l LabelID) []NodeID {
	sh := &s.shards[si]
	if l < 0 || int(l) >= len(sh.labelOff)-1 {
		return nil
	}
	lo, hi := sh.labelOff[l], sh.labelOff[l+1]
	if lo == hi {
		return nil
	}
	return sh.labelIdx[lo:hi:hi]
}

// Interner exposes the label interner (a clone of the source's, so label
// ids coincide).
func (s *Sharded) Interner() *Interner { return s.labels }

// NumNodes returns |V|.
func (s *Sharded) NumNodes() int { return len(s.nodeLabel) }

// NumEdges returns |E|.
func (s *Sharded) NumEdges() int { return s.numEdges }

// Size returns |G| = |V| + |E|.
func (s *Sharded) Size() int { return s.NumNodes() + s.numEdges }

// Label returns the interned label of v.
func (s *Sharded) Label(v NodeID) LabelID { return s.nodeLabel[v] }

// LabelName returns the label of v as a string.
func (s *Sharded) LabelName(v NodeID) string { return s.labels.Name(s.nodeLabel[v]) }

// Attr returns the attribute value for key on v, by linear scan over the
// owning shard's column range (nodes carry at most a handful of keys).
func (s *Sharded) Attr(v NodeID, key string) (int64, bool) {
	sh, li := s.locate(v)
	for i := sh.attrOff[li]; i < sh.attrOff[li+1]; i++ {
		if sh.attrKey[i] == key {
			return sh.attrVal[i], true
		}
	}
	return 0, false
}

// Attrs returns the attribute map of v, materialized fresh from the
// owning shard's columns (nil for attribute-free nodes). Unlike
// *Graph.Attrs the map does not alias backend storage, but callers
// should still treat it as read-only per the Reader contract; use
// AttrsCopy for guaranteed ownership on any backend.
func (s *Sharded) Attrs(v NodeID) map[string]int64 {
	sh, li := s.locate(v)
	lo, hi := sh.attrOff[li], sh.attrOff[li+1]
	if hi == lo {
		return nil
	}
	m := make(map[string]int64, hi-lo)
	for i := lo; i < hi; i++ {
		m[sh.attrKey[i]] = sh.attrVal[i]
	}
	return m
}

// IsCategorical reports whether key holds interned string values.
func (s *Sharded) IsCategorical(key string) bool {
	_, ok := s.catKeys[key]
	return ok
}

// Out returns the successors of v in ascending order: a capped view into
// the owning shard's CSR array, immutable by construction.
func (s *Sharded) Out(v NodeID) []NodeID {
	sh, li := s.locate(v)
	return sh.outAdj[sh.outOff[li]:sh.outOff[li+1]:sh.outOff[li+1]]
}

// In returns the predecessors of v in ascending order. Read-only.
func (s *Sharded) In(v NodeID) []NodeID {
	sh, li := s.locate(v)
	return sh.inAdj[sh.inOff[li]:sh.inOff[li+1]:sh.inOff[li+1]]
}

// OutDegree returns |post(v)|.
func (s *Sharded) OutDegree(v NodeID) int {
	sh, li := s.locate(v)
	return int(sh.outOff[li+1] - sh.outOff[li])
}

// InDegree returns |pre(v)|.
func (s *Sharded) InDegree(v NodeID) int {
	sh, li := s.locate(v)
	return int(sh.inOff[li+1] - sh.inOff[li])
}

// HasEdge reports whether (u,v) ∈ E, by binary search over u's CSR range.
func (s *Sharded) HasEdge(u, v NodeID) bool {
	out := s.Out(u)
	i := sort.Search(len(out), func(i int) bool { return out[i] >= v })
	return i < len(out) && out[i] == v
}

// NodesWithLabel returns all nodes carrying the given interned label in
// ascending order, k-way-merging the per-shard partitions on first
// request and caching the merge (merge-on-read). The cache build is
// mutex-guarded, so concurrent readers are always safe; the returned
// slice aliases the cache and must not be mutated (Reader contract).
// At k = 1 the one shard's partition is the answer: no lock, no cache.
// Unknown labels (including NoLabel) yield nil.
func (s *Sharded) NodesWithLabel(l LabelID) []NodeID {
	if s.k == 1 {
		return s.ShardNodesWithLabel(0, l)
	}
	if l < 0 || int(l) >= s.labels.Len() {
		return nil
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if nodes, ok := s.merged[l]; ok {
		return nodes
	}
	if s.merged == nil {
		s.merged = make(map[LabelID][]NodeID)
	}
	nodes := s.mergeLabel(l)
	s.merged[l] = nodes
	return nodes
}

// mergeLabel k-way-merges the per-shard partitions for label l into one
// ascending slice (nil when no node carries l, matching k = 1).
func (s *Sharded) mergeLabel(l LabelID) []NodeID {
	parts := make([][]NodeID, 0, s.k)
	total := 0
	for si := 0; si < s.k; si++ {
		if p := s.ShardNodesWithLabel(si, l); len(p) > 0 {
			parts = append(parts, p)
			total += len(p)
		}
	}
	return MergeAscending(parts, total)
}

// MergeAscending k-way-merges sorted, duplicate-free NodeID slices into
// one ascending slice; total must be the summed length (capacity hint).
// nil input slices are skipped; a zero total yields nil. The merge
// consumes its input: parts and its element headers are clobbered in
// place, so callers must not reuse either after the call (the elements'
// backing arrays are only read). Shared with the shard-parallel
// candidate seeding in internal/simulation, which merges per-shard
// candidate sets with it.
func MergeAscending(parts [][]NodeID, total int) []NodeID {
	if total == 0 {
		return nil
	}
	live := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			live = append(live, p)
		}
	}
	if len(live) == 1 {
		out := make([]NodeID, 0, total)
		return append(out, live[0]...)
	}
	out := make([]NodeID, 0, total)
	for len(live) > 1 {
		// Select the slice with the minimal head; shard counts are small
		// (k ≤ a few dozen), so a linear scan beats a heap here.
		mi := 0
		for i := 1; i < len(live); i++ {
			if live[i][0] < live[mi][0] {
				mi = i
			}
		}
		out = append(out, live[mi][0])
		live[mi] = live[mi][1:]
		if len(live[mi]) == 0 {
			live[mi] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return append(out, live[0]...)
}

// NodesWithLabelName is NodesWithLabel keyed by label name.
func (s *Sharded) NodesWithLabelName(name string) []NodeID {
	return s.NodesWithLabel(s.labels.Lookup(name))
}

// Edges calls fn for every edge (u,v) grouped by ascending source; it
// stops early if fn returns false.
func (s *Sharded) Edges(fn func(u, v NodeID) bool) {
	for u := 0; u < len(s.nodeLabel); u++ {
		for _, v := range s.Out(NodeID(u)) {
			if !fn(NodeID(u), v) {
				return
			}
		}
	}
}

// String summarizes the partitioning.
func (s *Sharded) String() string {
	return fmt.Sprintf("sharded{k=%d |V|=%d |E|=%d}", s.k, s.NumNodes(), s.numEdges)
}

// ComputeStats gathers Stats for the sharded graph.
func (s *Sharded) ComputeStats() Stats {
	st := Stats{Nodes: s.NumNodes(), Edges: s.numEdges, Labels: s.labels.Len()}
	for v := 0; v < s.NumNodes(); v++ {
		if d := s.OutDegree(NodeID(v)); d > st.MaxOutDeg {
			st.MaxOutDeg = d
		}
		if d := s.InDegree(NodeID(v)); d > st.MaxInDeg {
			st.MaxInDeg = d
		}
	}
	if st.Nodes > 0 {
		st.AvgDeg = float64(st.Edges) / float64(st.Nodes)
	}
	return st
}
