// Package view implements graph pattern views (Section II-B): view
// definitions V (pattern queries), view extensions V(G) (materialized
// query results), the distance index I(V) used by BMatchJoin (Section
// VI-A), and incremental maintenance of cached extensions under edge
// insertions and deletions (the paper relies on [15] for this).
package view

import (
	"context"
	"fmt"

	"graphviews/internal/graph"
	"graphviews/internal/par"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
)

// Definition is a named view definition: a (possibly bounded) pattern.
type Definition struct {
	Name    string
	Pattern *pattern.Pattern
}

// Define wraps a pattern as a view definition, inheriting its name when
// none is given.
func Define(name string, p *pattern.Pattern) *Definition {
	if name == "" {
		name = p.Name
	}
	return &Definition{Name: name, Pattern: p}
}

// Set is an ordered collection of view definitions V = {V1, ..., Vn}.
type Set struct {
	Defs []*Definition
}

// NewSet builds a view set.
func NewSet(defs ...*Definition) *Set { return &Set{Defs: defs} }

// Card returns card(V), the number of view definitions.
func (s *Set) Card() int { return len(s.Defs) }

// Size returns |V|: the total size of the view definitions.
func (s *Set) Size() int {
	total := 0
	for _, d := range s.Defs {
		total += d.Pattern.Size()
	}
	return total
}

// Subset returns the view set restricted to the given indices (in the
// given order).
func (s *Set) Subset(idx []int) *Set {
	defs := make([]*Definition, len(idx))
	for i, j := range idx {
		defs[i] = s.Defs[j]
	}
	return NewSet(defs...)
}

// Validate checks every definition's pattern.
func (s *Set) Validate() error {
	names := make(map[string]struct{}, len(s.Defs))
	for _, d := range s.Defs {
		if _, dup := names[d.Name]; dup {
			return fmt.Errorf("view: duplicate view name %q", d.Name)
		}
		names[d.Name] = struct{}{}
		if err := d.Pattern.Validate(); err != nil {
			return fmt.Errorf("view %q: %w", d.Name, err)
		}
	}
	return nil
}

// Extension is one materialized view V(G).
type Extension struct {
	Def    *Definition
	Result *simulation.Result
}

// Edges returns |V(G)| for this view: total pairs over its match sets.
func (e *Extension) Edges() int { return e.Result.Size() }

// Extensions is the materialized family V(G) = {V1(G), ..., Vn(G)},
// parallel to a Set.
type Extensions struct {
	Set  *Set
	Exts []*Extension
}

// Options carries what view evaluation may be given besides its inputs.
// The zero value is the sequential setting: background context, one
// worker, transient scratch. Only the Engine facade and code forwarding
// an Options it was handed fill the fields.
type Options struct {
	// Ctx is observed between work items; a cancelled call returns
	// Ctx.Err(). nil means context.Background().
	Ctx context.Context
	// Workers bounds the worker pool. Results are identical at every
	// count. 0 means one worker, a negative value GOMAXPROCS.
	Workers int
	// Pool supplies each view's simulation working state: every worker
	// task checks a Scratch out for the duration of its view and returns
	// it, so a warmed pool materializes repeatedly without allocating
	// fixpoint state. nil uses transient scratches. Results never alias
	// pool memory.
	Pool *simulation.ScratchPool
}

// Materialize evaluates every view definition over g (any graph.Reader
// backend — pass graph.Freeze(g) to evaluate against an immutable CSR
// snapshot). Plain views use graph simulation; bounded views use bounded
// simulation. Extension match sets record exact shortest path lengths,
// which provide the distance index I(V) for answering bounded queries
// (Section VI-A).
//
// Each view is simulated by one task, and when views are fewer than
// workers the leftover parallelism flows into each bounded view's
// match-set enumeration (the distance-index construction); the outer
// tasks and inner enumeration goroutines together never exceed the
// worker bound. Candidate seeding — the predicate scan over the label
// partitions, the hottest phase of materialization — runs once per
// distinct node condition across the whole view family instead of once
// per occurrence (simulation.CandidateSeeds).
func Materialize(g graph.Reader, s *Set, o Options) (*Extensions, error) {
	return materialize(g, s, o, false)
}

// MaterializeDual evaluates every view under dual simulation (the
// Section VIII extension), one view per task; pair distances are all 1
// and candidates never apply the out-degree prune. Use with
// core.DualContain / core.DualMatchJoin.
func MaterializeDual(g graph.Reader, s *Set, o Options) (*Extensions, error) {
	return materialize(g, s, o, true)
}

func materialize(g graph.Reader, s *Set, o Options, dual bool) (*Extensions, error) {
	exts := make([]*Extension, len(s.Defs))
	w := par.OptionWorkers(o.Workers)
	inner := 1
	if outer := min(w, len(s.Defs)); outer > 0 {
		inner = max(1, w/outer)
	}
	pats := make([]*pattern.Pattern, len(s.Defs))
	for i, d := range s.Defs {
		pats[i] = d.Pattern
	}
	seeds := simulation.CandidateSeeds(o.Ctx, g, pats, w, !dual)
	simulate := simulation.Simulate
	if dual {
		simulate = simulation.SimulateDual
	}
	err := par.ForEach(o.Ctx, w, len(s.Defs), func(i int) {
		so := simulation.Options{Ctx: o.Ctx, Workers: inner, Pool: o.Pool, Seeds: seeds[i]}
		exts[i] = &Extension{Def: s.Defs[i], Result: simulate(g, s.Defs[i].Pattern, so)}
	})
	if err != nil {
		return nil, err
	}
	return &Extensions{Set: s, Exts: exts}, nil
}

// TotalEdges returns |V(G)|: the total number of match pairs across all
// extensions, the size measure in the MatchJoin complexity bound.
func (x *Extensions) TotalEdges() int {
	total := 0
	for _, e := range x.Exts {
		total += e.Edges()
	}
	return total
}

// FractionOf estimates |V(G)| / |G|: cached-view volume relative to the
// data graph (the paper reports, e.g., ≤4% for the YouTube views).
func (x *Extensions) FractionOf(g graph.Reader) float64 {
	if g.Size() == 0 {
		return 0
	}
	return float64(x.TotalEdges()) / float64(g.Size())
}

// Subset restricts the extensions to the given view indices.
func (x *Extensions) Subset(idx []int) *Extensions {
	sub := &Extensions{Set: x.Set.Subset(idx), Exts: make([]*Extension, len(idx))}
	for i, j := range idx {
		sub.Exts[i] = x.Exts[j]
	}
	return sub
}

// DistIndex is the index I(V) of Section VI-A: for every match pair
// (v,v') occurring in some extension, the (shortest) distance from v to
// v' in G. Lookup is O(1).
type DistIndex struct {
	m map[simulation.Pair]int32
}

// BuildDistIndex collects every pair of every extension, keeping the
// minimum distance when several views share a pair. Its size is bounded
// by |V(G)| as the paper notes. The per-extension index maps are computed
// over the worker pool and then merged, so the index is identical at
// every worker count.
func BuildDistIndex(x *Extensions, o Options) (*DistIndex, error) {
	parts := make([]map[simulation.Pair]int32, len(x.Exts))
	err := par.ForEach(o.Ctx, par.OptionWorkers(o.Workers), len(x.Exts), func(i int) {
		m := make(map[simulation.Pair]int32)
		r := x.Exts[i].Result
		for ei := range r.Edges {
			em := &r.Edges[ei]
			for j, pr := range em.Pairs {
				d := em.Dists[j]
				if old, ok := m[pr]; !ok || d < old {
					m[pr] = d
				}
			}
		}
		parts[i] = m
	})
	if err != nil {
		return nil, err
	}
	idx := &DistIndex{m: make(map[simulation.Pair]int32)}
	for _, m := range parts {
		for pr, d := range m {
			if old, ok := idx.m[pr]; !ok || d < old {
				idx.m[pr] = d
			}
		}
	}
	return idx, nil
}

// Dist returns the indexed distance for (src,dst), or -1 if the pair does
// not occur in any extension.
func (i *DistIndex) Dist(src, dst graph.NodeID) int32 {
	if d, ok := i.m[simulation.Pair{Src: src, Dst: dst}]; ok {
		return d
	}
	return -1
}

// Len returns the number of indexed pairs.
func (i *DistIndex) Len() int { return len(i.m) }
