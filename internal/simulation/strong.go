package simulation

// Strong simulation (Ma et al. [28]): dual simulation restricted to balls
// of radius dQ (the pattern diameter) around candidate centers, which adds
// the locality that plain and dual simulation lack. Section VIII of the
// paper notes its view-answering techniques "can be readily extended to
// strong simulation ... retaining the same complexity"; the engine here
// supports those extensions and the library's examples.

import (
	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// SimulateStrong computes the union of the maximum dual-simulation
// relations over all balls G[b(w, dQ)] whose center w participates in the
// relation. The result's match sets are the union of the per-ball edge
// match sets; Matched is false when no ball yields a match.
//
// The implementation extracts each ball as a subgraph and runs the dual
// fixpoint on it (reusing one Scratch across balls); that is
// quadratic-to-cubic in the ball size and intended for moderate graphs
// (the paper's experiments do not benchmark strong simulation).
func SimulateStrong(g graph.Reader, p *pattern.Pattern) *Result {
	dQ := p.Diameter()
	if dQ == 0 {
		dQ = 1
	}
	n := g.NumNodes()

	// Candidate centers: nodes matching any pattern node condition.
	isCenter := bitset.New(n)
	for u := range p.Nodes {
		cn := pattern.CompileNode(&p.Nodes[u], g)
		for _, v := range g.NodesWithLabel(cn.Label) {
			if cn.Matches(g, v) {
				isCenter.Set(int(v))
			}
		}
	}

	res := &Result{Pattern: p, Matched: false,
		Sim:   make([][]graph.NodeID, len(p.Nodes)),
		Edges: make([]EdgeMatches, len(p.Edges))}
	// simUnion accumulates the union of the per-ball node match sets; its
	// ascending-bit iteration yields each Sim list already sorted.
	simUnion := bitset.NewMatrix(len(p.Nodes), n)

	ball := make([]graph.NodeID, 0, 64)
	inBall := graph.NewMarker(n)
	sc := new(Scratch)

	for w := graph.NodeID(0); int(w) < n; w++ {
		if !isCenter.Get(int(w)) {
			continue
		}
		// Undirected ball of radius dQ around w.
		ball = ball[:0]
		inBall.Reset()
		inBall.Mark(w)
		ball = append(ball, w)
		frontier := []graph.NodeID{w}
		for d := 0; d < dQ && len(frontier) > 0; d++ {
			var next []graph.NodeID
			for _, v := range frontier {
				for _, x := range g.Out(v) {
					if inBall.Mark(x) {
						ball = append(ball, x)
						next = append(next, x)
					}
				}
				for _, x := range g.In(v) {
					if inBall.Mark(x) {
						ball = append(ball, x)
						next = append(next, x)
					}
				}
			}
			frontier = next
		}

		sub, toOrig := extractSubgraph(g, ball)
		sc.Reset()
		dres := simulateDualSeeded(sub, p, candidates(sub, p, false), sc)
		if !dres.Matched {
			continue
		}
		// The center must take part in the match relation.
		centerIn := false
		for u := range dres.Sim {
			for _, v := range dres.Sim[u] {
				if toOrig[v] == w {
					centerIn = true
				}
			}
		}
		if !centerIn {
			continue
		}
		res.Matched = true
		for u := range dres.Sim {
			row := simUnion.Row(u)
			for _, v := range dres.Sim[u] {
				row.Set(int(toOrig[v]))
			}
		}
		for ei := range dres.Edges {
			em := &dres.Edges[ei]
			for j, pr := range em.Pairs {
				res.Edges[ei].add(toOrig[pr.Src], toOrig[pr.Dst], em.Dists[j])
			}
		}
	}

	if !res.Matched {
		return emptyResult(p)
	}
	res.Sim = simToSorted(simUnion)
	for ei := range res.Edges {
		res.Edges[ei].normalize()
	}
	return res
}

// extractSubgraph builds the induced subgraph over nodes (attributes
// copied) and returns the mapping from subgraph ids back to g's ids.
// The subgraph is a fresh mutable graph regardless of g's backend.
func extractSubgraph(g graph.Reader, nodes []graph.NodeID) (*graph.Graph, []graph.NodeID) {
	sub := graph.NewWithCapacity(len(nodes))
	// Pre-intern every label of g in id order so that label ids — and the
	// interned categorical attribute values that reference them — keep the
	// same numeric ids in the subgraph, letting attribute maps be copied
	// verbatim.
	syncInterners(g, sub)
	toOrig := make([]graph.NodeID, len(nodes))
	toSub := make(map[graph.NodeID]graph.NodeID, len(nodes))
	for _, v := range nodes {
		id := sub.AddNode(g.LabelName(v))
		toOrig[id] = v
		toSub[v] = id
		for k, val := range g.Attrs(v) {
			sub.SetAttr(id, k, val)
		}
	}
	for _, v := range nodes {
		sv := toSub[v]
		for _, w := range g.Out(v) {
			if sw, ok := toSub[w]; ok {
				sub.AddEdge(sv, sw)
			}
		}
	}
	return sub, toOrig
}

// syncInterners re-interns every label of g into sub in id order so that
// interned categorical attribute values keep the same numeric ids.
func syncInterners(g graph.Reader, sub *graph.Graph) {
	for _, name := range g.Interner().Names() {
		sub.Interner().Intern(name)
	}
}
