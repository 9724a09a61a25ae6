package core

// Retained reference implementation of the pre-dense-kernel MatchJoin
// (PR 2/3 state): per-edge working sets indexed by
// map[graph.NodeID][]int32 / map[graph.NodeID]int32 with map-based
// failure counters — byte-for-byte the algorithm the CSR/arena kernels
// replaced. The differential tests prove the dense engines return
// identical Results AND Stats across plain, bounded, cyclic (multi-SCC)
// and dual workloads, including warmed-scratch-pool reuse.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// refEdgeSet is the pre-PR working match set of one query edge.
type refEdgeSet struct {
	pairs    []simulation.Pair
	dists    []int32
	alive    []bool
	nAliv    int
	bySrc    map[graph.NodeID][]int32
	byDst    map[graph.NodeID][]int32
	srcCount map[graph.NodeID]int32
}

func (es *refEdgeSet) kill(i int32) bool {
	if !es.alive[i] {
		return false
	}
	es.alive[i] = false
	es.nAliv--
	return true
}

// refSeedEdgeSet is the pre-PR per-edge seeding: append-grown union,
// full sort+dedup normalization, map indexes.
func refSeedEdgeSet(es *refEdgeSet, q *pattern.Pattern, x *view.Extensions, l *Lambda, qi int) {
	b := q.Edges[qi].Bound
	var em simulation.EdgeMatches
	for _, ref := range l.PerEdge[qi] {
		src := x.Exts[ref.View].Result
		se := &src.Edges[ref.Edge]
		for j, pr := range se.Pairs {
			d := se.Dists[j]
			if b != pattern.Unbounded && int64(d) > int64(b) {
				continue
			}
			em.Pairs = append(em.Pairs, pr)
			em.Dists = append(em.Dists, d)
		}
	}
	refNormalizeMatches(&em)
	if len(em.Pairs) == 0 {
		return
	}
	es.pairs = em.Pairs
	es.dists = em.Dists
	es.alive = make([]bool, len(em.Pairs))
	es.nAliv = len(em.Pairs)
	es.bySrc = make(map[graph.NodeID][]int32)
	es.byDst = make(map[graph.NodeID][]int32)
	es.srcCount = make(map[graph.NodeID]int32)
	for i := range es.pairs {
		es.alive[i] = true
		s, d := es.pairs[i].Src, es.pairs[i].Dst
		es.bySrc[s] = append(es.bySrc[s], int32(i))
		es.byDst[d] = append(es.byDst[d], int32(i))
		es.srcCount[s]++
	}
}

func refNormalizeMatches(em *simulation.EdgeMatches) {
	if len(em.Pairs) == 0 {
		return
	}
	idx := make([]int, len(em.Pairs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := em.Pairs[idx[a]], em.Pairs[idx[b]]
		if pa.Src != pb.Src {
			return pa.Src < pb.Src
		}
		if pa.Dst != pb.Dst {
			return pa.Dst < pb.Dst
		}
		return em.Dists[idx[a]] < em.Dists[idx[b]]
	})
	newP := make([]simulation.Pair, 0, len(em.Pairs))
	newD := make([]int32, 0, len(em.Dists))
	for _, i := range idx {
		if n := len(newP); n > 0 && newP[n-1] == em.Pairs[i] {
			continue
		}
		newP = append(newP, em.Pairs[i])
		newD = append(newD, em.Dists[i])
	}
	em.Pairs = newP
	em.Dists = newD
}

func refBuildInitial(q *pattern.Pattern, x *view.Extensions, l *Lambda) ([]refEdgeSet, bool, int) {
	sets := make([]refEdgeSet, len(q.Edges))
	for qi := range q.Edges {
		refSeedEdgeSet(&sets[qi], q, x, l, qi)
		if len(sets[qi].pairs) == 0 {
			return nil, false, qi + 1
		}
	}
	return sets, true, len(q.Edges)
}

func refFinish(q *pattern.Pattern, sets []refEdgeSet) *simulation.Result {
	for qi := range sets {
		if sets[qi].nAliv == 0 {
			return simulation.Empty(q)
		}
	}
	res := &simulation.Result{
		Pattern: q,
		Matched: true,
		Sim:     make([][]graph.NodeID, len(q.Nodes)),
		Edges:   make([]simulation.EdgeMatches, len(q.Edges)),
	}
	for qi := range sets {
		es := &sets[qi]
		em := &res.Edges[qi]
		for i := range es.pairs {
			if es.alive[i] {
				em.Pairs = append(em.Pairs, es.pairs[i])
				em.Dists = append(em.Dists, es.dists[i])
			}
		}
	}
	for u := range q.Nodes {
		outs := q.OutEdges(u)
		seen := map[graph.NodeID]bool{}
		if len(outs) > 0 {
			first := &sets[outs[0]]
			for v, c := range first.srcCount {
				if c <= 0 {
					continue
				}
				ok := true
				for _, ei := range outs[1:] {
					if sets[ei].srcCount[v] <= 0 {
						ok = false
						break
					}
				}
				if ok {
					seen[v] = true
				}
			}
		} else {
			for _, ei := range q.InEdges(u) {
				es := &sets[ei]
				for i := range es.pairs {
					if es.alive[i] {
						seen[es.pairs[i].Dst] = true
					}
				}
			}
		}
		list := make([]graph.NodeID, 0, len(seen))
		for v := range seen {
			list = append(list, v)
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		res.Sim[u] = list
	}
	return res
}

// refMatchJoin is the pre-PR sequential production engine.
func refMatchJoin(q *pattern.Pattern, x *view.Extensions, l *Lambda) (*simulation.Result, Stats) {
	var st Stats
	sets, ok, scans := refBuildInitial(q, x, l)
	st.EdgeScans = scans
	if !ok {
		return simulation.Empty(q), st
	}
	for qi := range sets {
		st.InitialPairs += len(sets[qi].pairs)
	}

	failCnt := make([]map[graph.NodeID]int32, len(q.Nodes))
	for u := range q.Nodes {
		failCnt[u] = make(map[graph.NodeID]int32)
	}
	type kill struct {
		u int
		v graph.NodeID
	}
	var work []kill

	ranks := q.Ranks()
	order := make([]int, len(q.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })

	for _, u := range order {
		outs := q.OutEdges(u)
		if len(outs) == 0 {
			continue
		}
		universe := map[graph.NodeID]bool{}
		for _, ei := range outs {
			for v := range sets[ei].srcCount {
				universe[v] = true
			}
		}
		for _, ei := range q.InEdges(u) {
			for v := range sets[ei].byDst {
				universe[v] = true
			}
		}
		for v := range universe {
			var fails int32
			for _, ei := range outs {
				if sets[ei].srcCount[v] == 0 {
					fails++
				}
			}
			if fails > 0 {
				failCnt[u][v] = fails
				work = append(work, kill{u, v})
			}
		}
	}

	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range q.InEdges(k.u) {
			es := &sets[ei]
			w := q.Edges[ei].From
			for _, i := range es.byDst[k.v] {
				if !es.kill(i) {
					continue
				}
				st.PairKills++
				s := es.pairs[i].Src
				es.srcCount[s]--
				if es.srcCount[s] == 0 {
					failCnt[w][s]++
					if failCnt[w][s] == 1 {
						work = append(work, kill{w, s})
					}
				}
			}
		}
		for _, ei := range q.OutEdges(k.u) {
			es := &sets[ei]
			for _, i := range es.bySrc[k.v] {
				if es.kill(i) {
					st.PairKills++
				}
			}
		}
	}
	return refFinish(q, sets), st
}

// refDualMatchJoin is the pre-PR dual fixpoint over map-indexed sets.
func refDualMatchJoin(q *pattern.Pattern, x *view.Extensions, l *Lambda) (*simulation.Result, Stats) {
	var st Stats
	sets, ok, scans := refBuildInitial(q, x, l)
	st.EdgeScans = scans
	if !ok {
		return simulation.Empty(q), st
	}
	for qi := range sets {
		st.InitialPairs += len(sets[qi].pairs)
	}

	dstCount := make([]map[graph.NodeID]int32, len(sets))
	for qi := range sets {
		dstCount[qi] = make(map[graph.NodeID]int32)
		for i := range sets[qi].pairs {
			dstCount[qi][sets[qi].pairs[i].Dst]++
		}
	}

	failCnt := make([]map[graph.NodeID]int32, len(q.Nodes))
	for u := range q.Nodes {
		failCnt[u] = make(map[graph.NodeID]int32)
	}
	type kill struct {
		u int
		v graph.NodeID
	}
	var work []kill

	for u := range q.Nodes {
		universe := map[graph.NodeID]bool{}
		for _, ei := range q.OutEdges(u) {
			for v := range sets[ei].srcCount {
				universe[v] = true
			}
		}
		for _, ei := range q.InEdges(u) {
			for v := range dstCount[ei] {
				universe[v] = true
			}
		}
		for v := range universe {
			var fails int32
			for _, ei := range q.OutEdges(u) {
				if sets[ei].srcCount[v] == 0 {
					fails++
				}
			}
			for _, ei := range q.InEdges(u) {
				if dstCount[ei][v] == 0 {
					fails++
				}
			}
			if fails > 0 {
				failCnt[u][v] = fails
				work = append(work, kill{u, v})
			}
		}
	}

	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range q.InEdges(k.u) {
			es := &sets[ei]
			w := q.Edges[ei].From
			for _, i := range es.byDst[k.v] {
				if !es.kill(i) {
					continue
				}
				st.PairKills++
				s := es.pairs[i].Src
				es.srcCount[s]--
				if es.srcCount[s] == 0 {
					failCnt[w][s]++
					if failCnt[w][s] == 1 {
						work = append(work, kill{w, s})
					}
				}
			}
			if es.nAliv == 0 {
				return simulation.Empty(q), st
			}
		}
		for _, ei := range q.OutEdges(k.u) {
			es := &sets[ei]
			w := q.Edges[ei].To
			for _, i := range es.bySrc[k.v] {
				if !es.kill(i) {
					continue
				}
				st.PairKills++
				d := es.pairs[i].Dst
				dstCount[ei][d]--
				if dstCount[ei][d] == 0 {
					failCnt[w][d]++
					if failCnt[w][d] == 1 {
						work = append(work, kill{w, d})
					}
				}
			}
			if es.nAliv == 0 {
				return simulation.Empty(q), st
			}
		}
	}

	for qi := range sets {
		if sets[qi].nAliv == 0 {
			return simulation.Empty(q), st
		}
	}
	res := &simulation.Result{
		Pattern: q,
		Matched: true,
		Sim:     make([][]graph.NodeID, len(q.Nodes)),
		Edges:   make([]simulation.EdgeMatches, len(q.Edges)),
	}
	for qi := range sets {
		es := &sets[qi]
		em := &res.Edges[qi]
		for i := range es.pairs {
			if es.alive[i] {
				em.Pairs = append(em.Pairs, es.pairs[i])
				em.Dists = append(em.Dists, es.dists[i])
			}
		}
	}
	for u := range q.Nodes {
		seen := map[graph.NodeID]bool{}
		outs, ins := q.OutEdges(u), q.InEdges(u)
		collect := func(v graph.NodeID) {
			for _, ei := range outs {
				if sets[ei].srcCount[v] <= 0 {
					return
				}
			}
			for _, ei := range ins {
				if dstCount[ei][v] <= 0 {
					return
				}
			}
			seen[v] = true
		}
		for _, ei := range outs {
			for v, c := range sets[ei].srcCount {
				if c > 0 {
					collect(v)
				}
			}
		}
		for _, ei := range ins {
			for v, c := range dstCount[ei] {
				if c > 0 {
					collect(v)
				}
			}
		}
		list := make([]graph.NodeID, 0, len(seen))
		for v := range seen {
			list = append(list, v)
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		res.Sim[u] = list
	}
	return res, st
}

// assertRefIdentical fails unless result and stats are byte-identical to
// the reference engine's.
func assertRefIdentical(t *testing.T, label string, refRes *simulation.Result, refSt Stats, res *simulation.Result, st Stats) {
	t.Helper()
	if !res.Equal(refRes) {
		t.Fatalf("%s: edge match sets differ from reference\nref:   %v\ndense: %v", label, refRes, res)
	}
	if !reflect.DeepEqual(res.Sim, refRes.Sim) {
		t.Fatalf("%s: node match sets differ from reference\nref:   %v\ndense: %v", label, refRes.Sim, res.Sim)
	}
	if st != refSt {
		t.Fatalf("%s: stats differ from reference: ref %+v dense %+v", label, refSt, st)
	}
}

// TestDenseMatchJoinMatchesReference: the CSR/arena MatchJoin — with a
// transient scratch and on a warmed pool — reproduces the retained
// map-based reference byte for byte (Results and Stats) on plain and
// bounded glued workloads.
func TestDenseMatchJoinMatchesReference(t *testing.T) {
	labels := []string{"A", "B", "C"}
	pool := NewScratchPool()
	for _, bounded := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7321))
		tested := 0
		for trial := 0; trial < 300 && tested < 60; trial++ {
			vs := randomViews(rng, labels, bounded)
			q := glueContainedQuery(rng, vs, rng.Intn(3))
			if q == nil {
				continue
			}
			l, ok, err := Contain(q, vs, Options{})
			if err != nil || !ok {
				continue
			}
			g := randomDataGraph(rng, labels)
			x := materialize(g, vs)

			refRes, refSt := refMatchJoin(q, x, l)
			gotRes, gotSt := seqMatchJoin(q, x, l)
			assertRefIdentical(t, "transient", refRes, refSt, gotRes, gotSt)
			res, st, err := MatchJoin(q, x, l, Options{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			assertRefIdentical(t, "pooled", refRes, refSt, res, st)
			tested++
		}
		if tested < 40 {
			t.Fatalf("bounded=%v: only %d usable trials", bounded, tested)
		}
	}
}

// TestDenseMatchJoinMatchesReferenceSCC: multi-SCC necklace patterns —
// the pooled cascade against the map-based reference.
func TestDenseMatchJoinMatchesReferenceSCC(t *testing.T) {
	rng := rand.New(rand.NewSource(7331))
	pool := NewScratchPool()
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(4)
		bound := pattern.Bound(1)
		if trial%3 == 1 {
			bound = pattern.Bound(2 + rng.Intn(2))
		} else if trial%3 == 2 {
			bound = pattern.Unbounded
		}
		q, vs := generator.Necklace(rng, k, bound)
		l, ok, err := Contain(q, vs, Options{})
		if err != nil || !ok {
			t.Fatalf("trial %d: necklace not contained: %v %v", trial, ok, err)
		}
		g := generator.NecklaceGraph(rng, q, 30+rng.Intn(40), 150+rng.Intn(150))
		x := materialize(g, vs)

		refRes, refSt := refMatchJoin(q, x, l)
		res, st, err := MatchJoin(q, x, l, Options{Pool: pool})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertRefIdentical(t, "scc", refRes, refSt, res, st)
	}
}

// TestDenseDualMatchJoinMatchesReference: the dense dual fixpoint
// against the retained map-based dual reference on dual-contained
// workloads.
func TestDenseDualMatchJoinMatchesReference(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(7341))
	tested := 0
	for trial := 0; trial < 400 && tested < 60; trial++ {
		vs := randomViews(rng, labels, false)
		q := glueContainedQuery(rng, vs, rng.Intn(3))
		if q == nil {
			continue
		}
		l, ok, err := DualContain(q, vs)
		if err != nil || !ok {
			continue
		}
		g := randomDataGraph(rng, labels)
		x := materializeDual(g, vs)

		refRes, refSt := refDualMatchJoin(q, x, l)
		gotRes, gotSt := DualMatchJoin(q, x, l)
		if refRes.Matched {
			assertRefIdentical(t, "dual", refRes, refSt, gotRes, gotSt)
		} else {
			// Early-abort path (some set emptied mid-cascade): the
			// pre-PR engine's PairKills there depended on map iteration
			// order — it was never canonical — so only the
			// order-independent counters are compared.
			if !gotRes.Equal(refRes) {
				t.Fatalf("dual: results differ on empty path")
			}
			if gotSt.EdgeScans != refSt.EdgeScans || gotSt.InitialPairs != refSt.InitialPairs {
				t.Fatalf("dual: canonical stats differ: ref %+v dense %+v", refSt, gotSt)
			}
		}
		tested++
	}
	if tested < 30 {
		t.Fatalf("only %d usable trials", tested)
	}
}
