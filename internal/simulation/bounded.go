package simulation

// Bounded simulation engine (Section VI, after Fan et al. [16]). A pattern
// edge (u,u') with bound k maps to a nonempty path of length ≤ k (any
// length for *). The engine refines label candidates to a fixpoint; each
// round recomputes, for every pattern edge, the set of nodes that can
// reach the current sim(u') within the bound, via one multi-source
// backward BFS per edge (the cubic-class algorithm the paper quotes for
// BMatch). Match-set enumeration records exact shortest path lengths,
// which materialized views reuse as the distance index I(V). Membership
// rows, BFS distance arrays and the dirty-edge queue come from the
// query's Scratch.

import (
	"context"
	"sync"

	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/par"
	"graphviews/internal/pattern"
)

// simulateBoundedSeeded computes Qb(G) under bounded simulation from the
// given candidate sets (sorted supersets of the true match sets): the
// sequential refinement fixpoint, then the match-set enumeration over up
// to workers goroutines. Plain patterns (all bounds 1) yield exactly the
// plain engine's result, with identical match sets. Under a cancelled
// ctx the result may be partial.
func simulateBoundedSeeded(ctx context.Context, g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, workers int, sc *Scratch) *Result {
	simList, inSim, bfs, ok := boundedRefine(g, p, cands, sc)
	if !ok {
		return emptyResult(p)
	}
	return &Result{Pattern: p, Matched: true, Sim: simList, Edges: enumerateBounded(ctx, g, p, simList, inSim, workers, bfs)}
}

// boundedRefine runs the bounded-simulation refinement fixpoint from the
// given candidate sets down to the greatest match sets. It returns the
// per-pattern-node match lists, their bitset rows, the BFS scratch (for
// reuse by enumeration), and whether every set is nonempty.
func boundedRefine(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, sc *Scratch) (simListOut [][]graph.NodeID, inSimOut *bitset.Matrix, bfsOut *graph.BFS, ok bool) {
	n := g.NumNodes()
	inSim := sc.seedRows(cands, n)
	if inSim == nil {
		return nil, nil, nil, false
	}
	simList := make([][]graph.NodeID, len(p.Nodes))
	for u := range cands {
		// simList ends up in the Result, so it must own heap memory.
		simList[u] = append([]graph.NodeID(nil), cands[u]...)
	}

	bfs := sc.bfsScratch(n)
	// backDist holds, per refinement step, the backward BFS distance from
	// the current sim(target) set; -1 = unreached.
	backDist := sc.buffer(n)

	// dirty[e] marks edges whose support must be (re)checked.
	queue, dirty := sc.edgeQueue(len(p.Edges))
	for ei := range p.Edges {
		dirty[ei] = true
		queue = append(queue, ei)
	}

	for len(queue) > 0 {
		ei := queue[0]
		queue = queue[1:]
		if !dirty[ei] {
			continue
		}
		dirty[ei] = false
		e := p.Edges[ei]
		k := e.Bound

		// Backward ball of radius k-1 around sim(e.To): a node v supports
		// the edge iff some successor w of v has backDist[w] ≤ k-1, i.e.
		// v reaches sim(e.To) via a nonempty path of length ≤ k.
		for i := range backDist {
			backDist[i] = -1
		}
		depth := -1 // unbounded
		if k != pattern.Unbounded {
			depth = int(k) - 1
		}
		bfs.FromMulti(g, simList[e.To], graph.Backward, depth, func(v graph.NodeID, d int) bool {
			backDist[v] = int32(d)
			return true
		})

		kept := simList[e.From][:0]
		removedAny := false
		fromRow := inSim.Row(e.From)
		for _, v := range simList[e.From] {
			supported := false
			for _, w := range g.Out(v) {
				if backDist[w] >= 0 {
					supported = true
					break
				}
			}
			if supported {
				kept = append(kept, v)
			} else {
				fromRow.Clear(int(v))
				removedAny = true
			}
		}
		simList[e.From] = kept
		if len(kept) == 0 {
			return nil, nil, nil, false
		}
		if removedAny {
			// sim(e.From) shrank: every edge whose target is e.From needs
			// a recheck.
			for _, in := range p.InEdges(e.From) {
				if !dirty[in] {
					dirty[in] = true
					queue = append(queue, in)
				}
			}
		}
	}

	for u := range simList {
		if len(simList[u]) == 0 {
			return nil, nil, nil, false
		}
	}

	return simList, inSim, bfs, true
}

// enumerateBounded builds the per-edge match sets with exact shortest
// path lengths. With workers > 1 the (edge, source-chunk) tasks are run
// concurrently, each with its own BFS scratch from a pool; since chunks
// partition the source nodes, the concatenated partial sets contain no
// duplicates and normalization restores the canonical (Src,Dst) order.
// inSim is only read, so goroutines may share its rows.
func enumerateBounded(ctx context.Context, g graph.Reader, p *pattern.Pattern, simList [][]graph.NodeID, inSim *bitset.Matrix, workers int, bfs *graph.BFS) []EdgeMatches {
	edges := make([]EdgeMatches, len(p.Edges))
	depthOf := func(e *pattern.Edge) int {
		if e.Bound == pattern.Unbounded {
			return -1
		}
		return int(e.Bound)
	}
	if par.Workers(workers) <= 1 {
		for ei := range p.Edges {
			e := &p.Edges[ei]
			em := &edges[ei]
			depth := depthOf(e)
			dst := inSim.Row(e.To)
			for _, v := range simList[e.From] {
				bfs.From(g, v, graph.Forward, depth, func(w graph.NodeID, d int) bool {
					if dst.Get(int(w)) {
						em.add(v, w, int32(d))
					}
					return true
				})
			}
			em.normalize()
		}
		return edges
	}

	type chunk struct{ ei, lo, hi int }
	var chunks []chunk
	const minChunk = 64
	for ei := range p.Edges {
		srcs := simList[p.Edges[ei].From]
		step := len(srcs)/(par.Workers(workers)*4) + 1
		if step < minChunk {
			step = minChunk
		}
		for lo := 0; lo < len(srcs); lo += step {
			hi := lo + step
			if hi > len(srcs) {
				hi = len(srcs)
			}
			chunks = append(chunks, chunk{ei, lo, hi})
		}
	}
	parts := make([]EdgeMatches, len(chunks))
	pool := sync.Pool{New: func() any { return graph.NewBFS(g.NumNodes()) }}
	pool.Put(bfs) // reuse the refinement scratch
	par.ForEach(ctx, workers, len(chunks), func(ci int) {
		c := chunks[ci]
		e := &p.Edges[c.ei]
		depth := depthOf(e)
		scratch := pool.Get().(*graph.BFS)
		em := &parts[ci]
		dst := inSim.Row(e.To)
		for _, v := range simList[e.From][c.lo:c.hi] {
			scratch.From(g, v, graph.Forward, depth, func(w graph.NodeID, d int) bool {
				if dst.Get(int(w)) {
					em.add(v, w, int32(d))
				}
				return true
			})
		}
		pool.Put(scratch)
	})
	for ci := range chunks {
		em := &edges[chunks[ci].ei]
		em.Pairs = append(em.Pairs, parts[ci].Pairs...)
		em.Dists = append(em.Dists, parts[ci].Dists...)
	}
	for ei := range edges {
		edges[ei].normalize()
	}
	return edges
}
