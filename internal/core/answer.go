package core

// End-to-end query answering using views: the "if Qs ⊑ V then evaluate
// MatchJoin over V(G)" pipeline of Theorem 1, with the view-selection
// strategies of Section IV.

import (
	"context"
	"fmt"

	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// Strategy selects which views feed MatchJoin.
type Strategy int

const (
	// UseAll answers with every view in the set (plain containment).
	UseAll Strategy = iota
	// UseMinimal answers with a minimal containing subset (Theorem 5).
	UseMinimal
	// UseMinimum answers with the greedy approximation of the minimum
	// containing subset (Theorem 6).
	UseMinimum
)

// ErrNotContained is reported when Qs ⋢ V: the query cannot be answered
// using the views (Theorem 1).
var ErrNotContained = fmt.Errorf("core: query is not contained in the views")

// Options carries what a containment check or a MatchJoin may be given
// besides its inputs. The zero value is background context and a
// transient scratch. Only the Engine facade and code forwarding an
// Options it was handed fill the fields. Every call runs on its caller's
// goroutine.
type Options struct {
	// Ctx is honored at every phase boundary (between per-view matches,
	// between seeded edges, before the fixpoint); a cancelled call
	// returns Ctx.Err(). nil means context.Background().
	Ctx context.Context
	// Pool supplies MatchJoin's working state (see ScratchPool); nil uses
	// a transient scratch. Containment is unaffected — its working state
	// is bounded by the pattern sizes, not the graph.
	Pool *ScratchPool
}

// context resolves Ctx, nil meaning context.Background().
func (o Options) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Answer computes Q(G) from materialized extensions only. It returns
// ErrNotContained when containment fails. The returned indices are the
// views actually used, and the Stats expose the MatchJoin work counters.
func Answer(q *pattern.Pattern, x *view.Extensions, s Strategy, o Options) (*simulation.Result, []int, Stats, error) {
	var (
		idx []int
		l   *Lambda
		ok  bool
		err error
		st  Stats
	)
	if cerr := o.context().Err(); cerr != nil {
		return nil, nil, st, cerr
	}
	switch s {
	case UseMinimal:
		idx, l, ok, err = Minimal(q, x.Set)
	case UseMinimum:
		idx, l, ok, err = Minimum(q, x.Set)
	default:
		l, ok, err = Contain(q, x.Set, o)
		if ok {
			idx = make([]int, x.Set.Card())
			for i := range idx {
				idx[i] = i
			}
		}
	}
	if err != nil {
		return nil, nil, st, err
	}
	if !ok {
		return nil, nil, st, ErrNotContained
	}
	res, st, err := MatchJoin(q, x, l, o)
	if err != nil {
		return nil, nil, st, err
	}
	return res, idx, st, nil
}
