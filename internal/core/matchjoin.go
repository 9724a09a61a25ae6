package core

// MatchJoin (Fig. 2, Section III; BMatchJoin of Section VI-A for bounded
// patterns): compute Qs(G) from materialized view extensions only,
// without touching G.
//
// There is one engine: support counters plus a removal worklist, each
// pair touched O(1) times beyond initialization, run on the caller's
// goroutine — a serving process parallelizes across requests, not
// within one. The two scan-based forms of Fig. 2 that the Exp-2 ablation
// compares (no visiting order; ascending rank order, Lemma 2) live with
// that experiment in internal/experiments.
//
// Bounded patterns need no second engine: extension pairs carry their
// exact path lengths, so seeding filters each query edge's union by the
// query bound (the role the paper assigns to the distance index I(V)),
// after which the fixpoint is identical to the plain case.
//
// The working state is dense (PR 4): node ids in [0, universe) where
// universe covers every id occurring in a seeded pair, per-edge CSR
// indexes (bySrc needs only offsets, since pairs are sorted by Src;
// byDst adds one counting-sorted index array), flat int32 support and
// failure counters, and a bitset of alive pairs — all drawn from the
// query's Scratch arenas, so a pooled engine's steady state allocates
// only the Result.

import (
	"context"
	"slices"

	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// Stats reports work done by a MatchJoin run, for the optimization
// experiments (Exp-2) and the Lemma 2 test.
type Stats struct {
	// EdgeScans counts full scans over an edge's match set. For the
	// scan-based ablation engines of internal/experiments this is the
	// number of Fig. 2 re-scan passes; for the support-counter engines
	// (MatchJoin, DualMatchJoin) the cascade never re-scans a set, so
	// EdgeScans counts the seeding passes performed — one per query edge
	// in order, stopping at the first edge whose union came up empty.
	EdgeScans int
	// PairKills counts removed candidate pairs.
	PairKills int
	// InitialPairs counts pairs seeded from the views after bound
	// filtering and deduplication.
	InitialPairs int
}

// edgeSet is the working match set of one query edge. pairs are sorted by
// (Src, Dst) over original graph ids; lsrc/ldst carry the same pairs
// re-labeled into the query's compressed id universe [0, m) — the
// distinct ids occurring in any seeded pair, numbered in ascending
// original order (see indexEdgeSets) — which every per-node index below
// is keyed by. Compression keeps the counter arrays and universe scans
// proportional to the match sets, not to |V(G)|.
type edgeSet struct {
	pairs []simulation.Pair
	dists []int32
	lsrc  []int32    // lsrc[i]: compressed id of pairs[i].Src (ascending)
	ldst  []int32    // ldst[i]: compressed id of pairs[i].Dst
	alive bitset.Set // bit i: pair i not yet killed
	nAliv int
	// bySrcOff[v], bySrcOff[v+1]: pairs with compressed Src v occupy
	// exactly the index range [bySrcOff[v], bySrcOff[v+1]) — sorting by
	// Src makes a separate index array unnecessary.
	bySrcOff []int32
	// byDstOff/byDstIdx: pairs with compressed Dst v are
	// byDstIdx[byDstOff[v]:byDstOff[v+1]], ascending (counting sort is
	// stable).
	byDstOff []int32
	byDstIdx []int32
	// srcCount[v] = number of alive pairs with compressed Src v.
	srcCount []int32
}

func (es *edgeSet) kill(i int32) bool {
	if !es.alive.TestAndClear(int(i)) {
		return false
	}
	es.nAliv--
	return true
}

// srcRange returns the pair-index range with Src v.
func (es *edgeSet) srcRange(v graph.NodeID) (int32, int32) {
	return es.bySrcOff[v], es.bySrcOff[v+1]
}

// dstPairs returns the pair indices with Dst v.
func (es *edgeSet) dstPairs(v graph.NodeID) []int32 {
	return es.byDstIdx[es.byDstOff[v]:es.byDstOff[v+1]]
}

// hasDst reports whether any pair (alive or dead) has Dst v.
func (es *edgeSet) hasDst(v int) bool {
	return es.byDstOff[v+1] > es.byDstOff[v]
}

// buildInitial seeds the per-edge sets: union over λ(e) of the referenced
// extension match sets, filtered by the query edge bound using the
// recorded pair distances, deduplicated keeping minimum distance. Edges
// are seeded in order with ctx checked before each; the first empty
// union short-circuits (Qs(G) = ∅) before later edges are touched, and
// the returned scan count (see Stats.EdgeScans) includes it.
func buildInitial(ctx context.Context, q *pattern.Pattern, x *view.Extensions, l *Lambda, sc *Scratch) ([]edgeSet, bool, int, error) {
	sets := make([]edgeSet, len(q.Edges))
	for qi := range q.Edges {
		if err := ctx.Err(); err != nil {
			return nil, false, 0, err
		}
		seedEdgeSet(&sets[qi], q, x, l, qi, sc)
		if len(sets[qi].pairs) == 0 {
			return nil, false, qi + 1, nil
		}
	}
	return sets, true, len(q.Edges), nil
}

// seedEdgeSet fills one query edge's pair buffer from the extensions; an
// empty union leaves the set with no pairs, which the caller treats as
// Qs(G) = ∅. A counting pass sizes the buffer exactly, so the fill never
// reallocates; the buffer comes from the scratch arenas. The CSR indexes
// are built later by indexEdgeSets.
func seedEdgeSet(es *edgeSet, q *pattern.Pattern, x *view.Extensions, l *Lambda, qi int, sc *Scratch) {
	b := q.Edges[qi].Bound
	refs := l.PerEdge[qi]
	total := 0
	for _, ref := range refs {
		se := &x.Exts[ref.View].Result.Edges[ref.Edge]
		if b == pattern.Unbounded {
			total += len(se.Pairs)
			continue
		}
		for _, d := range se.Dists {
			if int64(d) <= int64(b) {
				total++
			}
		}
	}
	if total == 0 {
		return
	}
	// This EdgeMatches is the working set, not the answer: its storage
	// dies with the query's scratch, and finish() copies the survivors
	// into fresh heap slices before the Result escapes.
	em := simulation.EdgeMatches{
		Pairs: sc.pairs.MakeDirty(total)[:0], //gvcheck:owns working set; finish() copies survivors out
		Dists: sc.i32.MakeDirty(total)[:0],   //gvcheck:owns working set; finish() copies survivors out
	}
	for _, ref := range refs {
		se := &x.Exts[ref.View].Result.Edges[ref.Edge]
		for j, pr := range se.Pairs {
			d := se.Dists[j]
			if b != pattern.Unbounded && int64(d) > int64(b) {
				continue
			}
			em.Pairs = append(em.Pairs, pr)
			em.Dists = append(em.Dists, d)
		}
	}
	// A single already-normalized source (the overwhelmingly common λ)
	// hits Normalize's sorted fast path and costs one linear scan.
	em.Normalize()
	es.pairs = em.Pairs
	es.dists = em.Dists
	es.nAliv = len(em.Pairs)
}

// indexEdgeSets builds the dense per-edge indexes: it first compresses
// the ids occurring in any seeded pair into the universe [0, m) —
// numbered in ascending original-id order, so every "scan compressed ids
// ascending" loop downstream still yields sorted original ids — then
// builds each edge's alive bitset, bySrc/byDst CSR offsets and source
// support counters via one counting sort per edge, on the scratch
// arenas; cost O(Σ|Se| + |Eq|·m) plus one bitset sweep over the max
// original id.
// Returns m and the compressed→original id table.
func indexEdgeSets(sets []edgeSet, sc *Scratch) (int, []graph.NodeID) {
	maxID := graph.NodeID(-1)
	for qi := range sets {
		es := &sets[qi]
		if len(es.pairs) == 0 {
			continue
		}
		// pairs are sorted by Src, so the last pair carries the max Src.
		if s := es.pairs[len(es.pairs)-1].Src; s > maxID {
			maxID = s
		}
		for _, pr := range es.pairs {
			if pr.Dst > maxID {
				maxID = pr.Dst
			}
		}
	}
	present := sc.bits(int(maxID) + 1)
	for qi := range sets {
		for _, pr := range sets[qi].pairs {
			present.Set(int(pr.Src))
			present.Set(int(pr.Dst))
		}
	}
	m := present.Count()
	// remap[orig] = compressed id; only slots marked present are written,
	// and only those are ever read.
	remap := sc.i32.MakeDirty(int(maxID) + 1)
	toOrig := make([]graph.NodeID, 0, m)
	present.Iterate(func(v int) bool {
		remap[v] = int32(len(toOrig))
		toOrig = append(toOrig, graph.NodeID(v))
		return true
	})

	cur := sc.i32.MakeDirty(m)
	for qi := range sets {
		es := &sets[qi]
		n := len(es.pairs)
		es.alive = sc.bits(n)
		es.alive.SetFirst(n)
		es.nAliv = n
		es.lsrc = sc.i32.MakeDirty(n)
		es.ldst = sc.i32.MakeDirty(n)
		es.bySrcOff = sc.i32.Make(m + 1)
		es.byDstOff = sc.i32.Make(m + 1)
		es.byDstIdx = sc.i32.MakeDirty(n)
		es.srcCount = sc.i32.MakeDirty(m)
		for i := range es.pairs {
			s, d := remap[es.pairs[i].Src], remap[es.pairs[i].Dst]
			es.lsrc[i] = s
			es.ldst[i] = d
			es.bySrcOff[s+1]++
			es.byDstOff[d+1]++
		}
		for v := 0; v < m; v++ {
			es.bySrcOff[v+1] += es.bySrcOff[v]
			es.byDstOff[v+1] += es.byDstOff[v]
		}
		for v := 0; v < m; v++ {
			es.srcCount[v] = es.bySrcOff[v+1] - es.bySrcOff[v]
		}
		copy(cur, es.byDstOff[:m])
		for i := range es.ldst {
			d := es.ldst[i]
			es.byDstIdx[cur[d]] = int32(i)
			cur[d]++
		}
	}
	return m, toOrig
}

// survivors starts the Result of a finished fixpoint, plain or dual: ∅
// when any edge set died, else the surviving pairs of every edge, copied
// into fresh heap slices, with the node match sets left to the caller.
func survivors(q *pattern.Pattern, sets []edgeSet) *simulation.Result {
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
		em.Pairs = make([]simulation.Pair, 0, es.nAliv)
		em.Dists = make([]int32, 0, es.nAliv)
		es.alive.Iterate(func(i int) bool {
			em.Pairs = append(em.Pairs, es.pairs[i])
			em.Dists = append(em.Dists, es.dists[i])
			return true
		})
		// pairs were sorted at build time; filtering preserves order.
	}
	return res
}

// finish assembles the Result from surviving pairs; returns ∅ when any
// edge set died. nu is the compressed universe size and toOrig the
// compressed→original table; ascending compressed scans therefore emit
// sorted original ids. The result is freshly heap-allocated — it must
// not alias scratch memory.
func finish(q *pattern.Pattern, sets []edgeSet, nu int, toOrig []graph.NodeID, sc *Scratch) *simulation.Result {
	res := survivors(q, sets)
	if !res.Matched {
		return res
	}
	// Derive node match sets: for a node with out-edges, the sources
	// supported in every out-edge set (intersection — the simulation
	// condition demands a successor in each out-edge); for a sink node
	// the union of targets across its in-edge sets. The union is the
	// correct choice: simulation places no join constraint on the targets
	// of distinct in-edges, so a node matched through one in-edge need
	// not appear in another's match set (pinned by the differential sink
	// tests). Note MatchJoin sees only the views, so a sink match with no
	// incoming matched edge — which direct simulation would report in
	// Sim — cannot be recovered here; the edge match sets Qs(G) agree
	// regardless. Both derivations scan ids in ascending order, so the
	// lists come out sorted.
	for u := range q.Nodes {
		outs := q.OutEdges(u)
		list := make([]graph.NodeID, 0)
		if len(outs) > 0 {
			first := &sets[outs[0]]
			for v := 0; v < nu; v++ {
				if first.srcCount[v] <= 0 {
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
					list = append(list, toOrig[v])
				}
			}
		} else {
			seen := sc.bits(nu)
			for _, ei := range q.InEdges(u) {
				es := &sets[ei]
				es.alive.Iterate(func(i int) bool {
					seen.Set(int(es.ldst[i]))
					return true
				})
			}
			list = make([]graph.NodeID, 0, seen.Count())
			seen.Iterate(func(v int) bool {
				list = append(list, toOrig[v])
				return true
			})
		}
		res.Sim[u] = list
	}
	return res
}

// MatchJoin evaluates q over the extensions using λ. Callers obtain λ
// from Contain, Minimal or Minimum; extensions must correspond to the
// full view set λ was built against. It seeds every query edge (union
// and bound filtering over the view extensions), then runs one global
// support-counter cascade, all on the calling goroutine. It returns
// o.Ctx.Err() when cancelled before an edge is seeded or before the
// fixpoint starts.
func MatchJoin(q *pattern.Pattern, x *view.Extensions, l *Lambda, o Options) (*simulation.Result, Stats, error) {
	ctx := o.context()
	sc := o.Pool.Get()
	defer o.Pool.Put(sc)
	var st Stats
	sets, ok, scans, err := buildInitial(ctx, q, x, l, sc)
	st.EdgeScans = scans
	if err != nil {
		return nil, Stats{}, err
	}
	if !ok {
		return simulation.Empty(q), st, nil
	}
	for qi := range sets {
		st.InitialPairs += len(sets[qi].pairs)
	}
	nu, toOrig := indexEdgeSets(sets, sc)
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	return matchJoinFixpoint(q, sets, &st, nu, toOrig, sc), st, nil
}

// seedNodeFailures scans the compressed universe for pattern node u and
// records its initial failure counters: for every id v that occurs in
// some incident edge set (source of an out-edge set, or target of an
// in-edge set when no out-edge has it), fails counts the out-edges in
// which v has no source pair; fails > 0 writes failCnt[u·nu+v] and
// appends the kill. Sink nodes (no out-edges) never fail.
func seedNodeFailures(q *pattern.Pattern, sets []edgeSet, failCnt []int32, nu, u int, work []kill) []kill {
	outs := q.OutEdges(u)
	if len(outs) == 0 {
		return work // sinks: every referenced node is valid
	}
	ins := q.InEdges(u)
	fc := failCnt[u*nu : (u+1)*nu]
	for v := 0; v < nu; v++ {
		var fails int32
		member := false
		for _, ei := range outs {
			if sets[ei].srcCount[v] == 0 {
				fails++
			} else {
				member = true
			}
		}
		if fails == 0 {
			continue
		}
		if !member {
			for _, ei := range ins {
				if sets[ei].hasDst(v) {
					member = true
					break
				}
			}
		}
		if member {
			fc[v] = fails
			work = append(work, kill{u, graph.NodeID(v)})
		}
	}
	return work
}

// matchJoinFixpoint runs the support-counter removal cascade over seeded
// edge sets (the heart of Fig. 2) and assembles the result. The cascade
// always runs to its greatest fixpoint — even when an edge set empties
// along the way — so PairKills is a deterministic function of the seeds.
func matchJoinFixpoint(q *pattern.Pattern, sets []edgeSet, st *Stats, nu int, toOrig []graph.NodeID, sc *Scratch) *simulation.Result {
	// failCnt[u·nu + v] = number of out-edges of pattern node u in which v
	// has no alive pair as source. A node match (u,v) is valid iff 0.
	failCnt := sc.i32.Make(len(q.Nodes) * nu)
	work := sc.takeKills()

	// Universe per node: sources of out-edge sets and targets of in-edge
	// sets. Seed failCnt and the initial kill list, in ascending rank
	// order of the owning node (bottom-up strategy).
	ranks := q.Ranks()
	order := make([]int, len(q.Nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return ranks[a] - ranks[b] })

	for _, u := range order {
		work = seedNodeFailures(q, sets, failCnt, nu, u, work)
	}

	// Cascade: when (u,v) becomes invalid, dst-side pairs (s,v) of each
	// in-edge e=(w,u) die, reducing s's support in Se; src-side pairs die
	// silently (their removal affects no other counter).
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range q.InEdges(k.u) {
			es := &sets[ei]
			w := q.Edges[ei].From
			fcW := failCnt[w*nu : (w+1)*nu]
			for _, i := range es.dstPairs(k.v) {
				if !es.kill(i) {
					continue
				}
				st.PairKills++
				s := es.lsrc[i]
				es.srcCount[s]--
				if es.srcCount[s] == 0 {
					fcW[s]++
					if fcW[s] == 1 {
						work = append(work, kill{w, graph.NodeID(s)})
					}
				}
			}
		}
		for _, ei := range q.OutEdges(k.u) {
			es := &sets[ei]
			lo, hi := es.srcRange(k.v)
			for i := lo; i < hi; i++ {
				if es.kill(i) {
					st.PairKills++
				}
			}
		}
	}
	sc.giveKills(work)
	return finish(q, sets, nu, toOrig, sc)
}
