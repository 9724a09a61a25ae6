package core

// Workload-driven view selection — the first §VIII future-work item
// ("decide what views to cache such that a set of frequently used
// pattern queries can be answered by using the views"). It is the
// natural two-level extension of the paper's minimum containment greedy
// (Section V-C): the universe is the disjoint union of all queries'
// edges instead of one query's.

import (
	"context"
	"sort"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// SelectViews picks a subset of the candidate views sufficient to answer
// every query in the workload, greedily maximizing newly covered (query,
// edge) obligations; which edges of a query a view covers is its view
// match (the per-view half of Proposition 7 / 11). It returns the chosen
// candidate indices (ascending). ok is false when some query cannot be
// covered even by the full pool; the selection then covers as much as
// possible.
func SelectViews(workload []*pattern.Pattern, candidates *view.Set) (chosen []int, ok bool, err error) {
	for _, q := range workload {
		if verr := validateForContainment(q, candidates); verr != nil {
			return nil, false, verr
		}
	}
	type obligation struct{ query, edge int }
	// coverage[i] lists the obligations candidate i fulfills.
	coverage := make([][]obligation, candidates.Card())
	total := 0
	for qi, q := range workload {
		total += len(q.Edges)
		vms, _ := ComputeViewMatches(context.Background(), q, candidates)
		for ci, vm := range vms {
			for ei, c := range vm.Covered {
				if c {
					coverage[ci] = append(coverage[ci], obligation{qi, ei})
				}
			}
		}
	}

	covered := make(map[obligation]bool, total)
	used := make([]bool, candidates.Card())
	for len(covered) < total {
		best, bestGain := -1, 0
		for ci := range coverage {
			if used[ci] {
				continue
			}
			gain := 0
			for _, ob := range coverage[ci] {
				if !covered[ob] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = ci, gain
			}
		}
		if best < 0 {
			break // nothing can cover the remainder
		}
		used[best] = true
		chosen = append(chosen, best)
		for _, ob := range coverage[best] {
			covered[ob] = true
		}
	}
	sort.Ints(chosen)
	return chosen, len(covered) == total, nil
}
