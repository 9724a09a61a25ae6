// Package core implements the paper's primary contribution: pattern
// containment (Section III), the containment problems and their
// algorithms contain / minimal / minimum (Sections IV–V), the view-based
// evaluation algorithms MatchJoin and BMatchJoin (Sections III and VI-A),
// and their bounded-containment counterparts (Section VI-B).
package core

import (
	"context"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// ViewMatch is M^Qs_V (Section V-A) in indexed form: for every edge of
// the view definition, the set of query node pairs that match it when the
// query is treated as a data graph — and, derived from it, the set of
// query edges the view edge covers.
type ViewMatch struct {
	// PairsPerEdge[i] lists the (query-node, query-node) index pairs
	// matching view edge i.
	PairsPerEdge [][][2]int
	// CoversPerEdge[i] lists the query edge indices covered by view edge
	// i: pairs that are query edges whose bound fits under the view
	// edge's bound (fe(e) ≤ fVe(eV), DESIGN.md §2.6).
	CoversPerEdge [][]int
	// Covered is the union of CoversPerEdge: M^Qs_V ∩ Ep as a bitmask
	// over query edges.
	Covered []bool
}

// CoveredCount returns |M^Qs_V ∩ Ep| (the α numerator base of minimum).
func (vm *ViewMatch) CoveredCount() int {
	n := 0
	for _, c := range vm.Covered {
		if c {
			n++
		}
	}
	return n
}

// ComputeViewMatches evaluates M^Qs_V for every view of the set, in set
// order, checking ctx before each view; a cancelled call returns
// ctx.Err(). With context.Background() it never fails.
func ComputeViewMatches(ctx context.Context, q *pattern.Pattern, vs *view.Set) ([]*ViewMatch, error) {
	vms := make([]*ViewMatch, vs.Card())
	// The weighted distance closure depends only on q: compute it once
	// for all views.
	wdist, reach := pattern.Distances(q)
	for i, d := range vs.Defs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vms[i] = computeViewMatchFrom(q, d, wdist, reach)
	}
	return vms, nil
}

// ComputeViewMatch evaluates the view definition over the query pattern
// treated as a (weighted) data graph via bounded simulation with
// node-condition equivalence (Section V-A for plain patterns, Section
// VI-B for bounded ones; both reduce to the weighted form, with plain
// patterns having all weights 1).
func ComputeViewMatch(q *pattern.Pattern, def *view.Definition) *ViewMatch {
	wdist, reach := pattern.Distances(q)
	return computeViewMatchFrom(q, def, wdist, reach)
}

// computeViewMatchFrom is ComputeViewMatch over a precomputed weighted
// distance closure of q (see pattern.Distances), which batch callers
// hoist out of their per-view loop. wdist and reach are only read.
func computeViewMatchFrom(q *pattern.Pattern, def *view.Definition, wdist [][]int64, reach [][]bool) *ViewMatch {
	v := def.Pattern
	nq, nv := len(q.Nodes), len(v.Nodes)

	// sim[x] ⊆ query nodes, seeded by node-condition equivalence.
	sim := make([][]bool, nv)
	for x := 0; x < nv; x++ {
		sim[x] = make([]bool, nq)
		for u := 0; u < nq; u++ {
			sim[x][u] = pattern.NodeConditionsEquivalent(&v.Nodes[x], &q.Nodes[u])
		}
	}

	// within reports whether a view edge with bound b admits the query
	// pair (u,u'): a path of weight ≤ b (any nonempty path for *).
	within := func(u, u2 int, b pattern.Bound) bool {
		if b == pattern.Unbounded {
			return reach[u][u2]
		}
		return wdist[u][u2] <= int64(b)
	}

	// Fixpoint refinement (patterns are tiny; quadratic passes suffice).
	for changed := true; changed; {
		changed = false
		for x := 0; x < nv; x++ {
			for u := 0; u < nq; u++ {
				if !sim[x][u] {
					continue
				}
				ok := true
				for _, ei := range v.OutEdges(x) {
					e := v.Edges[ei]
					found := false
					for u2 := 0; u2 < nq; u2++ {
						if sim[e.To][u2] && within(u, u2, e.Bound) {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if !ok {
					sim[x][u] = false
					changed = true
				}
			}
		}
	}

	// Empty sim set for any view node ⇒ V does not match Qs at all.
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
			return vm // all empty
		}
	}

	// Query edges indexed by endpoints for the covering step.
	type ek struct{ from, to int }
	qEdges := make(map[ek][]int, len(q.Edges))
	for i, e := range q.Edges {
		qEdges[ek{e.From, e.To}] = append(qEdges[ek{e.From, e.To}], i)
	}

	for ei, e := range v.Edges {
		for u := 0; u < nq; u++ {
			if !sim[e.From][u] {
				continue
			}
			for u2 := 0; u2 < nq; u2++ {
				if !sim[e.To][u2] || !within(u, u2, e.Bound) {
					continue
				}
				vm.PairsPerEdge[ei] = append(vm.PairsPerEdge[ei], [2]int{u, u2})
				// Cover query edges (u,u2) whose bound fits under the view
				// edge bound.
				for _, qi := range qEdges[ek{u, u2}] {
					if q.Edges[qi].Bound.Leq(e.Bound) {
						vm.CoversPerEdge[ei] = append(vm.CoversPerEdge[ei], qi)
						vm.Covered[qi] = true
					}
				}
			}
		}
	}
	return vm
}
