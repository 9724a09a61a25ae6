package experiments

// The two scan-based forms of MatchJoin that the Exp-2 ablation (Fig. 8f)
// compares: matchJoinRanked is Fig. 2 with the Section III bottom-up
// (ascending edge rank) strategy, matchJoinNaive is Fig. 2 with blind
// full passes ("MatchJoin_nopt"). Both compute exactly core.MatchJoin's
// result (cross-checked by tests and by Config.Verify); they differ only
// in how often match sets are rescanned, which Stats.EdgeScans counts.
// They are written over the exported result types alone — no index, no
// scratch: the experiment measures revisits, not the engine.

import (
	"slices"

	"graphviews/internal/core"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// scanSet is the working match set of one query edge: the surviving
// pairs in (Src, Dst) order and, per graph node, how many of them it is
// the source of.
type scanSet struct {
	simulation.EdgeMatches
	srcCount []int32
}

// seedScanSets unions, per query edge, the extension match sets λ refers
// to, filtered by the query bound on the recorded distances and
// deduplicated keeping the minimum distance. ok is false when some edge
// has no candidate pair at all (Qs(G) = ∅).
func seedScanSets(q *pattern.Pattern, x *view.Extensions, l *core.Lambda, st *core.Stats) (sets []scanSet, ok bool) {
	sets = make([]scanSet, len(q.Edges))
	ids := 0 // one past the largest node id in any seeded pair
	for qi, e := range q.Edges {
		es := &sets[qi]
		for _, ref := range l.PerEdge[qi] {
			se := &x.Exts[ref.View].Result.Edges[ref.Edge]
			for j, pr := range se.Pairs {
				if e.Bound == pattern.Unbounded || int64(se.Dists[j]) <= int64(e.Bound) {
					es.Pairs = append(es.Pairs, pr)
					es.Dists = append(es.Dists, se.Dists[j])
				}
			}
		}
		es.Normalize()
		if len(es.Pairs) == 0 {
			return nil, false
		}
		for _, pr := range es.Pairs {
			ids = max(ids, int(pr.Src)+1, int(pr.Dst)+1)
		}
	}
	for qi := range sets {
		es := &sets[qi]
		st.InitialPairs += len(es.Pairs)
		es.srcCount = make([]int32, ids)
		for _, pr := range es.Pairs {
			es.srcCount[pr.Src]++
		}
	}
	return sets, true
}

// scanEdge applies the Fig. 2 lines 6–10 checks to every pair of edge
// qi, dropping the failures in place: the pair (v',v) of e=(u',u)
// survives iff v' retains a source pair in every out-edge set of u' and
// v retains one in every out-edge set of u. It reports whether any
// source's count dropped to zero (requiring neighbors to be rescanned).
func scanEdge(q *pattern.Pattern, sets []scanSet, qi int, st *core.Stats) (killedAny, zeroed bool) {
	st.EdgeScans++
	es := &sets[qi]
	supported := func(u int, v graph.NodeID) bool {
		return !slices.ContainsFunc(q.OutEdges(u), func(e int) bool { return sets[e].srcCount[v] == 0 })
	}
	kept := 0
	for i, pr := range es.Pairs {
		if supported(q.Edges[qi].From, pr.Src) && supported(q.Edges[qi].To, pr.Dst) {
			es.Pairs[kept], es.Dists[kept] = pr, es.Dists[i]
			kept++
			continue
		}
		st.PairKills++
		es.srcCount[pr.Src]--
		if es.srcCount[pr.Src] == 0 {
			zeroed = true
		}
	}
	killedAny = kept < len(es.Pairs)
	es.Pairs, es.Dists = es.Pairs[:kept], es.Dists[:kept]
	return killedAny, zeroed
}

// assemble builds the Result from the surviving pairs. Node match sets
// are derived as core.MatchJoin derives them: for a node with out-edges,
// the sources supported in every out-edge set; for a sink, the union of
// the targets across its in-edge sets.
func assemble(q *pattern.Pattern, sets []scanSet) *simulation.Result {
	res := &simulation.Result{
		Pattern: q,
		Matched: true,
		Sim:     make([][]graph.NodeID, len(q.Nodes)),
		Edges:   make([]simulation.EdgeMatches, len(q.Edges)),
	}
	for qi := range sets {
		res.Edges[qi] = sets[qi].EdgeMatches
	}
	for u := range q.Nodes {
		in := make([]bool, len(sets[0].srcCount))
		if outs := q.OutEdges(u); len(outs) > 0 {
			for v := range in {
				in[v] = !slices.ContainsFunc(outs, func(e int) bool { return sets[e].srcCount[v] == 0 })
			}
		} else {
			for _, e := range q.InEdges(u) {
				for _, pr := range sets[e].Pairs {
					in[pr.Dst] = true
				}
			}
		}
		res.Sim[u] = []graph.NodeID{}
		for v, ok := range in {
			if ok {
				res.Sim[u] = append(res.Sim[u], graph.NodeID(v))
			}
		}
	}
	return res
}

// matchJoinNaive is Fig. 2 with no visiting strategy: it repeatedly
// sweeps every match set until a full pass makes no change.
func matchJoinNaive(q *pattern.Pattern, x *view.Extensions, l *core.Lambda) (*simulation.Result, core.Stats) {
	var st core.Stats
	sets, ok := seedScanSets(q, x, l, &st)
	if !ok {
		return simulation.Empty(q), st
	}
	for changed := true; changed; {
		changed = false
		for qi := range sets {
			if killed, _ := scanEdge(q, sets, qi, &st); killed {
				changed = true
			}
			if len(sets[qi].Pairs) == 0 {
				return simulation.Empty(q), st
			}
		}
	}
	return assemble(q, sets), st
}

// matchJoinRanked is Fig. 2 with the bottom-up strategy: edges are
// scanned in ascending rank order (rank of an edge = rank of its target
// node over the pattern's SCC DAG), and an edge is rescanned only when a
// scan elsewhere removed the last source pair of some node that the edge
// may depend on. For patterns whose relevant region is a DAG this keeps
// the number of scans near |Ep| (Lemma 2); cyclic patterns iterate within
// the SCCs until the fixpoint.
func matchJoinRanked(q *pattern.Pattern, x *view.Extensions, l *core.Lambda) (*simulation.Result, core.Stats) {
	var st core.Stats
	sets, ok := seedScanSets(q, x, l, &st)
	if !ok {
		return simulation.Empty(q), st
	}
	eRanks := q.EdgeRanks()
	byRank := func(a, b int) int { return eRanks[a] - eRanks[b] }
	dirty := make([]bool, len(q.Edges))
	queue := make([]int, len(q.Edges))
	for i := range queue {
		queue[i], dirty[i] = i, true
	}
	mark := func(e int) {
		if !dirty[e] {
			dirty[e] = true
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		// Re-sorted on every drain round so lower-rank edges go first.
		slices.SortStableFunc(queue, byRank)
		next := queue
		queue = nil
		for _, qi := range next {
			if !dirty[qi] {
				continue
			}
			dirty[qi] = false
			_, zeroed := scanEdge(q, sets, qi, &st)
			if len(sets[qi].Pairs) == 0 {
				return simulation.Empty(q), st
			}
			if !zeroed {
				continue
			}
			// A node match of the edge's source lost its last pair here:
			// sibling out-edges and in-edges of that pattern node must be
			// rechecked.
			uSrc := q.Edges[qi].From
			for _, e := range q.OutEdges(uSrc) {
				if e != qi {
					mark(e)
				}
			}
			for _, e := range q.InEdges(uSrc) {
				mark(e)
			}
		}
	}
	return assemble(q, sets), st
}
