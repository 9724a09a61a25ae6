package graphviews_test

import (
	"math/rand"
	"testing"

	gv "graphviews"
)

// TestFacadeSurface touches the remaining public entry points so the
// facade stays wired to the internals it re-exports.
func TestFacadeSurface(t *testing.T) {
	g := gv.NewGraphWithCapacity(8)
	if g.NumNodes() != 0 {
		t.Fatalf("capacity constructor should start empty")
	}
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddEdge(a, b)

	// Predicate constructors.
	p := gv.NewPattern("q")
	pa := p.AddNode("a", "A", gv.IntPred("x", gv.OpGe, 1))
	pb := p.AddNode("b", "B", gv.StrPred("c", gv.OpNe, "z"))
	p.AddBoundedEdge(pa, pb, gv.Unbounded)
	if p.IsPlain() {
		t.Fatalf("unbounded edge should make the pattern non-plain")
	}

	// ParsePatterns (plural).
	ps, err := gv.ParsePatterns("pattern a {\n node x: X\n}\npattern b {\n node y: Y\n}")
	if err != nil || len(ps) != 2 {
		t.Fatalf("ParsePatterns: %v %d", err, len(ps))
	}

	// Minimize on a trivially irreducible pattern.
	q := gv.NewPattern("m")
	q.AddEdge(q.AddNode("a", "A"), q.AddNode("b", "B"))
	minP, nm := gv.MinimizePattern(q)
	if len(minP.Nodes) != 2 || len(nm) != 2 {
		t.Fatalf("MinimizePattern changed an irreducible pattern")
	}

	// Strong simulation through the facade.
	res := gv.MatchStrong(g, q)
	if !res.Matched {
		t.Fatalf("strong simulation should match the single edge")
	}

	// QueryContained through the facade, negative direction.
	q2 := gv.NewPattern("m2")
	q2.AddEdge(q2.AddNode("a", "A"), q2.AddNode("c", "C"))
	if ok, _ := gv.QueryContained(q, q2); ok {
		t.Fatalf("A->B should not be contained in A->C")
	}

	// MatchJoin invoked directly with a λ from Contains.
	v := gv.NewViewSet(gv.Define("v", q.Clone()))
	l, ok, err := gv.Contains(q, v)
	if err != nil || !ok {
		t.Fatalf("Contains: %v %v", ok, err)
	}
	x := gv.Materialize(g, v)
	mj, stats := gv.MatchJoin(q, x, l)
	if !mj.Matched || stats.InitialPairs != 1 {
		t.Fatalf("MatchJoin via facade: matched=%v pairs=%d", mj.Matched, stats.InitialPairs)
	}

	// Dataset generators exposed by the facade.
	if g := gv.GenerateDensified(100, 1.1, 5, 1); g.NumNodes() != 100 {
		t.Fatalf("GenerateDensified wrong size")
	}
	if g := gv.GenerateCitationLike(100, 200, 1); g.NumNodes() != 100 {
		t.Fatalf("GenerateCitationLike wrong size")
	}
	if g := gv.GenerateAmazonLike(100, 200, 1); g.NumNodes() != 100 {
		t.Fatalf("GenerateAmazonLike wrong size")
	}
	if vs := gv.CitationViews(); vs.Card() != 12 {
		t.Fatalf("CitationViews card = %d", vs.Card())
	}
	if vs := gv.AmazonViews(); vs.Card() != 12 {
		t.Fatalf("AmazonViews card = %d", vs.Card())
	}

	// Necklace workloads (the multi-SCC fixpoint stress generator).
	rng := rand.New(rand.NewSource(1))
	nq, nvs := gv.NecklaceQuery(rng, 3, 1)
	if nq.IsDAG() {
		t.Fatalf("necklace query must contain cycles")
	}
	if _, ok, err := gv.Contains(nq, nvs); err != nil || !ok {
		t.Fatalf("necklace not contained in its views: %v %v", ok, err)
	}
	if ng := gv.NecklaceGraph(rng, nq, 50, 100); ng.NumNodes() != 50 {
		t.Fatalf("NecklaceGraph wrong size")
	}
}
