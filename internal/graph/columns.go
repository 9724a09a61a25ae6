package graph

// Column accessors for the durable store (internal/store). Every shard
// of a Sharded already lives in flat-array layout, so persisting one is
// exactly writing these columns and loading one is reading them back
// and adopting the slices: no CSR rebuild, no re-sorting, no
// re-interning on either side. Columns() exposes the arrays (aliased,
// read-only); ShardedFromColumns validates the shape invariants and
// adopts the arrays, so a corrupted or hand-built column set is rejected
// instead of producing a backend that violates the Reader contract.

import (
	"fmt"
	"sort"
)

// ShardColumns is the flat-array layout of one hash partition of a
// Sharded, exposed for serialization. All slices alias the shard's
// storage and must be treated as read-only.
type ShardColumns struct {
	// N is the owned node count of the shard.
	N int
	// OutOff and OutAdj are the shard's forward CSR over shard-local
	// indices (node v maps to index v div k).
	OutOff []int32
	// OutAdj holds the shard's forward adjacency.
	OutAdj []NodeID
	// InOff and InAdj are the shard's reverse CSR.
	InOff []int32
	// InAdj holds the shard's reverse adjacency.
	InAdj []NodeID
	// LabelOff and LabelIdx are the label partition restricted to owned
	// nodes.
	LabelOff []int32
	// LabelIdx holds the owned nodes per label, ascending.
	LabelIdx []NodeID
	// AttrOff, AttrKey and AttrVal are the attribute columns for owned
	// nodes, keys sorted per node.
	AttrOff []int32
	// AttrKey holds the per-node attribute keys.
	AttrKey []string
	// AttrVal holds the per-node attribute values, parallel to AttrKey.
	AttrVal []int64
}

// ShardedColumns is the flat-array layout of a Sharded: the global
// columns plus one ShardColumns per hash partition.
type ShardedColumns struct {
	// Labels are the interner's strings in id order.
	Labels []string
	// CatKeys are the categorical attribute keys, sorted.
	CatKeys []string
	// NumEdges is |E|.
	NumEdges int
	// K is the shard count.
	K int
	// NodeLabel maps node id to interned label (global, like Sharded).
	NodeLabel []LabelID
	// Shards holds the per-partition columns, in shard order.
	Shards []ShardColumns
}

// Columns exposes the sharded backend's flat arrays for serialization.
// The returned slices alias the backend and must not be mutated.
func (s *Sharded) Columns() *ShardedColumns {
	c := &ShardedColumns{
		Labels:    s.labels.Names(),
		CatKeys:   sortedKeys(s.catKeys),
		NumEdges:  s.numEdges,
		K:         s.k,
		NodeLabel: s.nodeLabel,
		Shards:    make([]ShardColumns, s.k),
	}
	for si := range s.shards {
		sh := &s.shards[si]
		c.Shards[si] = ShardColumns{
			N:        sh.n,
			OutOff:   sh.outOff,
			OutAdj:   sh.outAdj,
			InOff:    sh.inOff,
			InAdj:    sh.inAdj,
			LabelOff: sh.labelOff,
			LabelIdx: sh.labelIdx,
			AttrOff:  sh.attrOff,
			AttrKey:  sh.attrKey,
			AttrVal:  sh.attrVal,
		}
	}
	return c
}

// ShardedFromColumns adopts a column set as a sharded backend,
// validating the partitioning invariants Shard establishes: shard
// counts against the hash rule, offset shapes, ownership of every
// label-partition entry, and global edge accounting. The slices are
// adopted, not copied. The result is field-for-field identical to
// sharding the graph the columns came from.
func ShardedFromColumns(c *ShardedColumns) (*Sharded, error) {
	n := len(c.NodeLabel)
	nl := len(c.Labels)
	k := c.K
	if k < 1 {
		return nil, fmt.Errorf("graph: shard count %d < 1", k)
	}
	if len(c.Shards) != k {
		return nil, fmt.Errorf("graph: %d shard column sets for k=%d", len(c.Shards), k)
	}
	labels, err := internerFromNames(c.Labels)
	if err != nil {
		return nil, err
	}
	for v, l := range c.NodeLabel {
		if int(l) < 0 || int(l) >= nl {
			return nil, fmt.Errorf("graph: node %d has label id %d out of range [0,%d)", v, l, nl)
		}
	}
	s := &Sharded{
		nodeHeader: nodeHeader{labels: labels, nodeLabel: c.NodeLabel, catKeys: keySet(c.CatKeys)},
		numEdges:   c.NumEdges,
		k:          k,
		shards:     make([]shard, k),
	}
	totalOut := 0
	for si := 0; si < k; si++ {
		sc := &c.Shards[si]
		if want := ownedNodes(n, si, k); sc.N != want {
			return nil, fmt.Errorf("graph: shard %d owns %d nodes, hash rule demands %d", si, sc.N, want)
		}
		if err := checkOffsets(fmt.Sprintf("shard %d outOff", si), sc.OutOff, sc.N, len(sc.OutAdj)); err != nil {
			return nil, err
		}
		if err := checkOffsets(fmt.Sprintf("shard %d inOff", si), sc.InOff, sc.N, len(sc.InAdj)); err != nil {
			return nil, err
		}
		if err := checkOffsets(fmt.Sprintf("shard %d labelOff", si), sc.LabelOff, nl, len(sc.LabelIdx)); err != nil {
			return nil, err
		}
		if err := checkOffsets(fmt.Sprintf("shard %d attrOff", si), sc.AttrOff, sc.N, len(sc.AttrKey)); err != nil {
			return nil, err
		}
		if len(sc.AttrVal) != len(sc.AttrKey) {
			return nil, fmt.Errorf("graph: shard %d attrVal length %d != attrKey length %d", si, len(sc.AttrVal), len(sc.AttrKey))
		}
		if len(sc.LabelIdx) != sc.N {
			return nil, fmt.Errorf("graph: shard %d label index covers %d nodes, want %d", si, len(sc.LabelIdx), sc.N)
		}
		if err := checkNodeIDs(fmt.Sprintf("shard %d outAdj", si), sc.OutAdj, n); err != nil {
			return nil, err
		}
		if err := checkNodeIDs(fmt.Sprintf("shard %d inAdj", si), sc.InAdj, n); err != nil {
			return nil, err
		}
		for _, v := range sc.LabelIdx {
			if int(v) < 0 || int(v) >= n || int(v)%k != si {
				return nil, fmt.Errorf("graph: shard %d label index holds node %d it does not own", si, v)
			}
		}
		totalOut += len(sc.OutAdj)
		sh := &s.shards[si]
		*sh = shard{
			n: sc.N,
			nodeColumns: nodeColumns{
				labelOff: sc.LabelOff, labelIdx: sc.LabelIdx,
				attrOff: sc.AttrOff, attrKey: sc.AttrKey, attrVal: sc.AttrVal,
			},
			csr: csr{outOff: sc.OutOff, outAdj: sc.OutAdj, inOff: sc.InOff, inAdj: sc.InAdj},
		}
		// Shard builds attribute columns by append (nil when empty);
		// normalize for the FromColumns∘Columns identity.
		if len(sh.attrKey) == 0 {
			sh.attrKey, sh.attrVal = nil, nil
		}
	}
	if totalOut != c.NumEdges {
		return nil, fmt.Errorf("graph: shards hold %d edges, header says %d", totalOut, c.NumEdges)
	}
	return s, nil
}

// checkOffsets validates a CSR offset array: length n+1, starting at 0,
// monotone nondecreasing, ending exactly at the adjacency length.
func checkOffsets(name string, off []int32, n, adjLen int) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: %s has %d entries, want %d", name, len(off), n+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("graph: %s starts at %d, want 0", name, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("graph: %s decreases at %d (%d -> %d)", name, i, off[i-1], off[i])
		}
	}
	if int(off[n]) != adjLen {
		return fmt.Errorf("graph: %s ends at %d but the array holds %d entries", name, off[n], adjLen)
	}
	return nil
}

// checkNodeIDs validates that every id falls in [0, n).
func checkNodeIDs(name string, ids []NodeID, n int) error {
	for _, v := range ids {
		if int(v) < 0 || int(v) >= n {
			return fmt.Errorf("graph: %s holds node id %d out of range [0,%d)", name, v, n)
		}
	}
	return nil
}

// internerFromNames rebuilds an interner from its id-ordered name list,
// rejecting duplicates (two names cannot share an id slot).
func internerFromNames(names []string) (*Interner, error) {
	in := NewInterner()
	for _, name := range names {
		if in.Lookup(name) != NoLabel {
			return nil, fmt.Errorf("graph: duplicate interned label %q", name)
		}
		in.Intern(name)
	}
	return in, nil
}

// sortedKeys flattens a string set to a sorted slice (nil when empty).
func sortedKeys(set map[string]struct{}) []string {
	if len(set) == 0 {
		return nil
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// keySet builds a string set from a slice (nil when empty, matching the
// lazily allocated catKeys of Freeze and Shard).
func keySet(keys []string) map[string]struct{} {
	if len(keys) == 0 {
		return nil
	}
	set := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return set
}
