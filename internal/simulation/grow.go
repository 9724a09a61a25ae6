package simulation

// Grow-phase bounded maintenance (the insertion-side dual of the
// deletion-side seeded refinement). Under edge insertion bounded match
// sets only grow and shortest path lengths only shrink, so a maintained
// view can keep most of its recorded match pairs and re-enumerate only
// the sources the inserted edges can reach backward (the affected
// area). See internal/view for the affected-area computation and the
// soundness argument.

import (
	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// SimulateBoundedGrow computes Qb(G) after a batch of edge insertions,
// reusing a pre-insertion result. cands must be sorted supersets of the
// true match sets (the caller seeds them from old.Sim plus the affected
// candidates, so refinement touches only the grown region), old must be
// a Matched result valid for the graph before the insertions, and
// affected must contain every node whose match-set membership or
// recorded distances can have changed — in particular every node with a
// path of length ≤ bound-1 to an inserted edge's source.
//
// Enumeration is then partial: for each pattern edge, match pairs whose
// source is unaffected are copied from old verbatim (their shortest
// paths cannot have shortened without passing through an inserted
// edge's source within the bound, which would put the source in
// affected), and only affected sources are re-walked. The one hazard is
// a grown target set: an unaffected source may gain a pair to a newly
// admitted target over a purely old path, so any edge whose target
// match set grew falls back to full re-enumeration. Insert-only match
// sets are monotone, so "grew" is a length comparison.
func SimulateBoundedGrow(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, old *Result, affected bitset.Set) *Result {
	simList, inSim, bfs, ok := boundedRefine(g, p, cands, new(Scratch))
	if !ok {
		// Match sets cannot shrink under insertion, and old.Matched holds:
		// refinement from a seeded superset of the true sets cannot empty
		// any of them. Reaching here means the caller broke the contract;
		// recompute from full candidates rather than return a wrong result.
		return Simulate(g, p, Options{})
	}
	edges := make([]EdgeMatches, len(p.Edges))
	for ei := range p.Edges {
		e := &p.Edges[ei]
		em := &edges[ei]
		depth := -1
		if e.Bound != pattern.Unbounded {
			depth = int(e.Bound)
		}
		dst := inSim.Row(e.To)
		full := len(simList[e.To]) != len(old.Sim[e.To])
		if !full {
			// Keep the unaffected slice of the old match set: Pairs are
			// sorted by (Src,Dst), and filtering by source preserves that.
			oldEM := &old.Edges[ei]
			for i, pr := range oldEM.Pairs {
				if !affected.Get(int(pr.Src)) {
					em.add(pr.Src, pr.Dst, oldEM.Dists[i])
				}
			}
		}
		for _, v := range simList[e.From] {
			if !full && !affected.Get(int(v)) {
				continue
			}
			bfs.From(g, v, graph.Forward, depth, func(w graph.NodeID, d int) bool {
				if dst.Get(int(w)) {
					em.add(v, w, int32(d))
				}
				return true
			})
		}
		em.normalize()
	}
	return &Result{Pattern: p, Matched: true, Sim: simList, Edges: edges}
}
