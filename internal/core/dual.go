package core

// Section VIII extension: "our techniques can be readily extended to
// revisions of simulation such as dual and strong simulation [28] ...
// retaining the same complexity". This file carries the containment
// characterization and MatchJoin over to dual simulation:
//
//   - the view match is computed by *dual* simulation of V over Qs
//     (forward and backward conditions);
//   - composition still holds (both directions compose), so coverage of
//     every query edge remains sufficient for answerability;
//   - DualMatchJoin enforces both forward (source) and backward (target)
//     support during the fixpoint.
//
// Property tests verify DualMatchJoin ≡ SimulateDual whenever
// DualContain holds. Dual containment is supported for plain patterns
// (dual simulation is defined edge-to-edge).

import (
	"context"
	"fmt"
	"slices"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// computeDualViewMatch evaluates V over Qs under dual simulation with
// node-condition equivalence, returning the covered query edges.
func computeDualViewMatch(q *pattern.Pattern, def *view.Definition) *ViewMatch {
	v := def.Pattern
	nq, nv := len(q.Nodes), len(v.Nodes)

	sim := make([][]bool, nv)
	for x := 0; x < nv; x++ {
		sim[x] = make([]bool, nq)
		for u := 0; u < nq; u++ {
			sim[x][u] = pattern.NodeConditionsEquivalent(&v.Nodes[x], &q.Nodes[u])
		}
	}
	hasQEdge := func(a, b int) bool {
		for _, e := range q.Edges {
			if e.From == a && e.To == b {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for x := 0; x < nv; x++ {
			for u := 0; u < nq; u++ {
				if !sim[x][u] {
					continue
				}
				ok := true
				for _, ei := range v.OutEdges(x) {
					tgt := v.Edges[ei].To
					found := false
					for u2 := 0; u2 < nq && !found; u2++ {
						if sim[tgt][u2] && hasQEdge(u, u2) {
							found = true
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if ok {
					for _, ei := range v.InEdges(x) {
						src := v.Edges[ei].From
						found := false
						for u2 := 0; u2 < nq && !found; u2++ {
							if sim[src][u2] && hasQEdge(u2, u) {
								found = true
							}
						}
						if !found {
							ok = false
							break
						}
					}
				}
				if !ok {
					sim[x][u] = false
					changed = true
				}
			}
		}
	}

	vm := &ViewMatch{
		PairsPerEdge:  make([][][2]int, len(v.Edges)),
		CoversPerEdge: make([][]int, len(v.Edges)),
		Covered:       make([]bool, len(q.Edges)),
	}
	for x := 0; x < nv; x++ {
		any := false
		for u := 0; u < nq; u++ {
			if sim[x][u] {
				any = true
				break
			}
		}
		if !any {
			return vm
		}
	}
	for ei, e := range v.Edges {
		for qi, qe := range q.Edges {
			if sim[e.From][qe.From] && sim[e.To][qe.To] {
				vm.PairsPerEdge[ei] = append(vm.PairsPerEdge[ei], [2]int{qe.From, qe.To})
				vm.CoversPerEdge[ei] = append(vm.CoversPerEdge[ei], qi)
				vm.Covered[qi] = true
			}
		}
	}
	return vm
}

// DualContain decides containment under dual simulation semantics and
// returns λ when it holds. Plain patterns only.
func DualContain(q *pattern.Pattern, vs *view.Set) (*Lambda, bool, error) {
	if err := validateForContainment(q, vs); err != nil {
		return nil, false, err
	}
	if !q.IsPlain() {
		return nil, false, fmt.Errorf("core: dual simulation containment requires a plain pattern")
	}
	for _, d := range vs.Defs {
		if !d.Pattern.IsPlain() {
			return nil, false, fmt.Errorf("core: dual simulation containment requires plain views")
		}
	}
	vms := make([]*ViewMatch, vs.Card())
	for i, d := range vs.Defs {
		vms[i] = computeDualViewMatch(q, d)
	}
	l, covered := lambdaOverAll(q, vms)
	if slices.Contains(covered, false) {
		return nil, false, nil
	}
	return l, true, nil
}

// DualMatchJoin answers q from extensions materialized under dual
// simulation (view.MaterializeDual), enforcing forward and backward
// support in the fixpoint. It runs on the same dense CSR edge sets and
// flat counters as MatchJoin, with one extra per-edge dstCount array for
// the backward condition.
func DualMatchJoin(q *pattern.Pattern, x *view.Extensions, l *Lambda) (*simulation.Result, Stats) {
	var st Stats
	sc := new(Scratch)
	sets, ok, scans, _ := buildInitial(context.Background(), q, x, l, sc)
	st.EdgeScans = scans
	if !ok {
		return simulation.Empty(q), st
	}
	for qi := range sets {
		st.InitialPairs += len(sets[qi].pairs)
	}
	nu, toOrig := indexEdgeSets(sets, sc)

	// dstCount[qi][v]: alive pairs in Se with Dst v (backward support) —
	// initially the byDst group sizes.
	dstCount := make([][]int32, len(sets))
	for qi := range sets {
		es := &sets[qi]
		dc := sc.i32.MakeDirty(nu)
		for v := 0; v < nu; v++ {
			dc[v] = es.byDstOff[v+1] - es.byDstOff[v]
		}
		dstCount[qi] = dc
	}

	// failCnt[u·nu + v]: out-edges of u without src support plus in-edges
	// of u without dst support. Valid iff 0.
	failCnt := sc.i32.Make(len(q.Nodes) * nu)
	work := sc.takeKills()

	for u := range q.Nodes {
		outs, ins := q.OutEdges(u), q.InEdges(u)
		if len(outs) == 0 && len(ins) == 0 {
			continue
		}
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
			for _, ei := range ins {
				if dstCount[ei][v] == 0 {
					fails++
				} else {
					member = true
				}
			}
			if fails > 0 && member {
				fc[v] = fails
				work = append(work, kill{u, graph.NodeID(v)})
			}
		}
	}

	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		// Dst-side removals: pairs (s, k.v) in in-edges of k.u.
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
			if es.nAliv == 0 {
				return simulation.Empty(q), st
			}
		}
		// Src-side removals: pairs (k.v, t) in out-edges of k.u; their
		// targets lose backward support.
		for _, ei := range q.OutEdges(k.u) {
			es := &sets[ei]
			w := q.Edges[ei].To
			fcW := failCnt[w*nu : (w+1)*nu]
			dc := dstCount[ei]
			lo, hi := es.srcRange(k.v)
			for i := lo; i < hi; i++ {
				if !es.kill(i) {
					continue
				}
				st.PairKills++
				d := es.ldst[i]
				dc[d]--
				if dc[d] == 0 {
					fcW[d]++
					if fcW[d] == 1 {
						work = append(work, kill{w, graph.NodeID(d)})
					}
				}
			}
			if es.nAliv == 0 {
				return simulation.Empty(q), st
			}
		}
	}
	sc.giveKills(work)
	return finishDual(q, sets, dstCount, nu, toOrig), st
}

// finishDual assembles the Result under dual semantics: node matches need
// support on every incident edge in both directions. The ascending
// compressed-universe scan yields sorted match lists directly.
func finishDual(q *pattern.Pattern, sets []edgeSet, dstCount [][]int32, nu int, toOrig []graph.NodeID) *simulation.Result {
	res := survivors(q, sets)
	if !res.Matched {
		return res
	}
	for u := range q.Nodes {
		outs, ins := q.OutEdges(u), q.InEdges(u)
		list := make([]graph.NodeID, 0)
		if len(outs) == 0 && len(ins) == 0 {
			res.Sim[u] = list // isolated node: nothing derivable
			continue
		}
		for v := 0; v < nu; v++ {
			member := false
			ok := true
			for _, ei := range outs {
				if sets[ei].srcCount[v] > 0 {
					member = true
				} else {
					ok = false
					break
				}
			}
			if ok {
				for _, ei := range ins {
					if dstCount[ei][v] > 0 {
						member = true
					} else {
						ok = false
						break
					}
				}
			}
			if ok && member {
				list = append(list, toOrig[v])
			}
		}
		res.Sim[u] = list
	}
	return res
}
