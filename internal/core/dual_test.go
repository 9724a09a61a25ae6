package core

import (
	"math/rand"
	"testing"

	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// TestDualContainBasics: a view identical to the query contains it under
// dual semantics; an unrelated view does not.
func TestDualContainBasics(t *testing.T) {
	q := pattern.New("q")
	q.AddEdge(q.AddNode("a", "A"), q.AddNode("b", "B"))

	same := view.NewSet(view.Define("v", q.Clone()))
	if _, ok, err := DualContain(q, same); err != nil || !ok {
		t.Fatalf("q ⊑dual {q}: %v %v", ok, err)
	}

	other := pattern.New("o")
	other.AddEdge(other.AddNode("x", "X"), other.AddNode("y", "Y"))
	if _, ok, _ := DualContain(q, view.NewSet(view.Define("o", other))); ok {
		t.Fatalf("unrelated view cannot contain q")
	}
}

// TestDualContainBackwardSensitive: dual simulation's backward condition
// makes a view with an extra in-edge on a shared node non-matching.
func TestDualContainBackwardSensitive(t *testing.T) {
	// q: A -> B. view: A -> B, C -> B. Under plain simulation the view
	// still maps into q?? No: plain simulation of the view over q also
	// requires a C node. Use the reverse: view A -> B; query A -> B plus
	// C -> B. The view match under dual simulation must still cover
	// (A,B) — but B in q has an extra in-edge from C the view does not
	// require, which dual simulation of the VIEW over q tolerates (the
	// view's B has in-degree requirements satisfied by q's A -> B edge).
	q := pattern.New("q")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddEdge(a, b)
	q.AddEdge(c, b)

	v := pattern.New("v")
	v.AddEdge(v.AddNode("a", "A"), v.AddNode("b", "B"))
	v2 := pattern.New("v2")
	v2.AddEdge(v2.AddNode("c", "C"), v2.AddNode("b", "B"))

	l, ok, err := DualContain(q, view.NewSet(view.Define("v", v), view.Define("v2", v2)))
	if err != nil || !ok {
		t.Fatalf("both edges covered: %v %v", ok, err)
	}
	if len(l.PerEdge[0]) == 0 || len(l.PerEdge[1]) == 0 {
		t.Fatalf("λ incomplete: %v", l.PerEdge)
	}
}

// TestDualContainRejectsBounded: dual containment is plain-pattern only.
func TestDualContainRejectsBounded(t *testing.T) {
	q := pattern.New("q")
	q.AddBoundedEdge(q.AddNode("a", "A"), q.AddNode("b", "B"), 2)
	vs := view.NewSet(view.Define("v", q.Clone()))
	if _, _, err := DualContain(q, vs); err == nil {
		t.Fatalf("bounded dual containment should be rejected")
	}
}

// TestDualTheorem1: whenever DualContain holds, DualMatchJoin over
// dual-materialized views equals direct dual simulation.
func TestDualTheorem1(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(61))
	tested := 0
	for trial := 0; trial < 300 && tested < 80; trial++ {
		vs := randomViews(rng, labels, false)
		q := glueContainedQuery(rng, vs, rng.Intn(3))
		if q == nil {
			continue
		}
		l, ok, err := DualContain(q, vs)
		if err != nil {
			t.Fatalf("DualContain: %v", err)
		}
		if !ok {
			// Unlike plain simulation, gluing does guarantee dual
			// containment (the copy map preserves both directions), so
			// this should not happen.
			t.Fatalf("trial %d: glued query not dual-contained\nq: %s", trial, q)
		}
		g := randomDataGraph(rng, labels)
		x := materializeDual(g, vs)
		want := simulation.SimulateDual(g, q, simulation.Options{})
		got, _ := DualMatchJoin(q, x, l)
		if !got.Equal(want) {
			t.Fatalf("trial %d: DualMatchJoin != SimulateDual\nq: %s\ngot:  %v\nwant: %v",
				trial, q, got, want)
		}
		tested++
	}
	if tested < 40 {
		t.Fatalf("only %d usable trials", tested)
	}
}

// TestDualMatchJoinStricterThanPlain: dual results are subsets of plain
// results on the same instance.
func TestDualMatchJoinStricterThanPlain(t *testing.T) {
	labels := []string{"A", "B"}
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		vs := randomViews(rng, labels, false)
		q := glueContainedQuery(rng, vs, 1)
		if q == nil {
			continue
		}
		g := randomDataGraph(rng, labels)
		lp, okP, _ := Contain(q, vs, Options{})
		ld, okD, _ := DualContain(q, vs)
		if !okP || !okD {
			continue
		}
		plain, _ := seqMatchJoin(q, materialize(g, vs), lp)
		dual, _ := DualMatchJoin(q, materializeDual(g, vs), ld)
		if !dual.Matched {
			continue
		}
		if !plain.Matched {
			t.Fatalf("trial %d: dual matched but plain did not", trial)
		}
		for ei := range dual.Edges {
			for _, pr := range dual.Edges[ei].Pairs {
				if !plain.Edges[ei].Has(pr.Src, pr.Dst) {
					t.Fatalf("trial %d: dual pair %v missing from plain result", trial, pr)
				}
			}
		}
	}
}
