package core

// Equivalence tests for MatchJoin on multi-SCC patterns: results and
// stats must be byte-identical to the map-based reference engine of
// reference_test.go on cyclic, DAG and bounded patterns, and both must
// agree with direct (bounded) simulation on contained queries
// (Theorem 1).

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// runSweep evaluates q over x and checks it against the reference engine
// and, when want is non-nil, against the direct evaluation.
func runSweep(t *testing.T, label string, q *pattern.Pattern, x *view.Extensions, l *Lambda, want *simulation.Result) {
	t.Helper()
	res, st := seqMatchJoin(q, x, l)
	if want != nil && !res.Equal(want) {
		t.Fatalf("%s: MatchJoin != direct evaluation\ngot:  %v\nwant: %v", label, res, want)
	}
	refRes, refSt := refMatchJoin(q, x, l)
	assertRefIdentical(t, label, refRes, refSt, res, st)
}

// TestMatchJoinSCCNecklace: multi-SCC cyclic patterns (plain and
// bounded) across random data graphs.
func TestMatchJoinSCCNecklace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
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
			t.Fatalf("trial %d: necklace not contained in its views: %v %v", trial, ok, err)
		}
		g := generator.NecklaceGraph(rng, q, 30+rng.Intn(40), 150+rng.Intn(150))
		x := materialize(g, vs)
		want := simulation.Simulate(g, q, simulation.Options{})
		runSweep(t, "necklace", q, x, l, want)
	}
}

// TestMatchJoinSCCRandomGlued: glued contained queries over random
// cyclic views; covers DAG patterns, 2-cycles and empty results.
func TestMatchJoinSCCRandomGlued(t *testing.T) {
	labels := []string{"A", "B", "C"}
	for _, bounded := range []bool{false, true} {
		rng := rand.New(rand.NewSource(73))
		tested := 0
		for trial := 0; trial < 300 && tested < 80; trial++ {
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
			runSweep(t, "glued", q, x, l, nil)
			tested++
		}
		if tested < 40 {
			t.Fatalf("bounded=%v: only %d usable trials", bounded, tested)
		}
	}
}

// TestMatchJoinSCCEmptySeeding: a view with no matches yields ∅, with
// EdgeScans stopping at the first empty edge, exactly like the
// reference.
func TestMatchJoinSCCEmptySeeding(t *testing.T) {
	g := graph.New()
	g.AddNode("A") // no edges: the view has no matches
	v := pattern.New("v")
	v.AddEdge(v.AddNode("a", "A"), v.AddNode("b", "B"))
	vs := view.NewSet(view.Define("", v))
	x := materialize(g, vs)
	q := v.Clone()
	l, ok, _ := Contain(q, vs, Options{})
	if !ok {
		t.Fatal("q ⊑ {q} must hold")
	}
	res, st := seqMatchJoin(q, x, l)
	if res.Matched {
		t.Fatal("expected ∅")
	}
	if st.EdgeScans != 1 {
		t.Fatalf("EdgeScans = %d, want 1 (seeding stops at the first empty edge)", st.EdgeScans)
	}
	runSweep(t, "empty", q, x, l, nil)
}

// TestMatchJoinSCCCancellation: a cancelled context is refused by
// MatchJoin and by Contain.
func TestMatchJoinSCCCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	q, vs := generator.Necklace(rng, 3, 1)
	l, ok, err := Contain(q, vs, Options{})
	if err != nil || !ok {
		t.Fatalf("necklace not contained: %v %v", ok, err)
	}
	g := generator.NecklaceGraph(rng, q, 40, 200)
	x := materialize(g, vs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MatchJoin(q, x, l, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MatchJoin: err = %v", err)
	}
	if _, _, err := Contain(q, vs, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Contain: err = %v", err)
	}
}

// TestMatchJoinEdgeScansCountSeeding: on the success path the production
// engine reports exactly one seeding pass per query edge.
func TestMatchJoinEdgeScansCountSeeding(t *testing.T) {
	g, q, vs := fig3Instance()
	l, ok, err := Contain(q, vs, Options{})
	if err != nil || !ok {
		t.Fatalf("Qs3 ⊑ {V1,V2} expected: %v %v", ok, err)
	}
	x := materialize(g, vs)
	_, st := seqMatchJoin(q, x, l)
	if st.EdgeScans != len(q.Edges) {
		t.Fatalf("EdgeScans = %d, want %d (one seeding pass per edge)", st.EdgeScans, len(q.Edges))
	}
}
