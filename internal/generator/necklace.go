package generator

// Necklace workloads: queries whose pattern condenses into many strongly
// connected components — k directed cycles ("beads") chained by bridge
// edges — together with a view set that contains the query by
// construction (one view per bead, one single-edge view per bridge).
// These are the multi-SCC stress workloads of the MatchJoin fixpoint:
// each bead is a non-trivial SCC with its own internal cascade, bridges
// give the condensation DAG depth, and the single-edge bridge views
// admit many invalid seed pairs for the fixpoint to remove.

import (
	"fmt"
	"math/rand"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// Necklace builds a k-bead necklace query and its containing view set.
// Bead i is a directed cycle of 2 + rng.Intn(2) nodes with labels unique
// to the bead; bridge edges run from a node of bead i to a node of bead
// i+1 and carry bridgeBound (use 1 for a plain query, >1 or Unbounded for
// a bounded one). The returned view set contains the query: each bead
// view is a verbatim copy of its cycle and each bridge view a verbatim
// copy of its bridge edge, so every query edge is covered by the view
// edge it mirrors.
func Necklace(rng *rand.Rand, k int, bridgeBound pattern.Bound) (*pattern.Pattern, *view.Set) {
	q := pattern.New(fmt.Sprintf("necklace%d", k))
	var defs []*view.Definition
	var beadFirst, beadLast []int // first/last query node of each bead
	for i := 0; i < k; i++ {
		size := 2 + rng.Intn(2)
		first := len(q.Nodes)
		bead := pattern.New(fmt.Sprintf("bead%d", i))
		for j := 0; j < size; j++ {
			label := fmt.Sprintf("L%d_%d", i, j)
			q.AddNode("", label)
			bead.AddNode("", label)
		}
		for j := 0; j < size; j++ {
			from, to := j, (j+1)%size
			q.AddEdge(first+from, first+to)
			bead.AddEdge(from, to)
		}
		defs = append(defs, view.Define(bead.Name, bead))
		beadFirst = append(beadFirst, first)
		beadLast = append(beadLast, first+size-1)
	}
	for i := 0; i+1 < k; i++ {
		from, to := beadLast[i], beadFirst[i+1]
		q.AddBoundedEdge(from, to, bridgeBound)
		bridge := pattern.New(fmt.Sprintf("bridge%d", i))
		bf := bridge.AddNode("", q.Nodes[from].Label)
		bt := bridge.AddNode("", q.Nodes[to].Label)
		bridge.AddBoundedEdge(bf, bt, bridgeBound)
		defs = append(defs, view.Define(bridge.Name, bridge))
	}
	return q, view.NewSet(defs...)
}

// NecklaceGraph builds a data graph with ~n nodes and m extra random
// edges for a necklace query. Half of the planted pattern embeddings are
// intact (genuine matches); the other half drop one random pattern edge
// each, leaving partial embeddings whose view-admitted pairs only the
// MatchJoin fixpoint removes. Remaining nodes draw random query labels,
// and the m noise edges connect everything, so cascades cross embedding
// boundaries.
func NecklaceGraph(rng *rand.Rand, q *pattern.Pattern, n, m int) *graph.Graph {
	labels := make([]string, 0, len(q.Nodes))
	for i := range q.Nodes {
		labels = append(labels, q.Nodes[i].Label)
	}
	g := graph.NewWithCapacity(n)
	qn := len(q.Nodes)
	copies := n / (2 * qn)
	for c := 0; c < copies; c++ {
		base := g.NumNodes()
		for i := range q.Nodes {
			g.AddNode(q.Nodes[i].Label)
		}
		drop := -1
		if c%2 == 1 {
			drop = rng.Intn(len(q.Edges))
		}
		for ei, e := range q.Edges {
			if ei == drop {
				continue
			}
			g.AddEdge(graph.NodeID(base+e.From), graph.NodeID(base+e.To))
		}
	}
	for g.NumNodes() < n {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return g
}
