package generator

import (
	"math/rand"
	"testing"

	"graphviews/internal/core"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(100, 200, 10, 7)
	b := Uniform(100, 200, 10, 7)
	if a.NumNodes() != 100 || a.NumEdges() != 200 {
		t.Fatalf("size = %d/%d", a.NumNodes(), a.NumEdges())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("not deterministic")
	}
	same := true
	a.Edges(func(u, v graph.NodeID) bool {
		if !b.HasEdge(u, v) {
			same = false
			return false
		}
		return true
	})
	if !same {
		t.Fatalf("edge sets differ across runs with same seed")
	}
	c := Uniform(100, 200, 10, 8)
	diff := false
	a.Edges(func(u, v graph.NodeID) bool {
		if !c.HasEdge(u, v) {
			diff = true
			return false
		}
		return true
	})
	if !diff {
		t.Fatalf("different seeds produced identical graphs (suspicious)")
	}
}

// TestSyntheticViewsDeterministic: one seed must give the same view set
// every time, down to the node numbering of each pattern.
func TestSyntheticViewsDeterministic(t *testing.T) {
	want := SyntheticViews(10, 7)
	for run := 0; run < 5; run++ {
		got := SyntheticViews(10, 7)
		for i, d := range want.Defs {
			if g, w := got.Defs[i].Pattern.String(), d.Pattern.String(); g != w {
				t.Fatalf("run %d view %d:\n%s\nvs\n%s", run, i, g, w)
			}
		}
	}
}

func TestDensified(t *testing.T) {
	g := Densified(1000, 1.1, 10, 3)
	// 1000^1.1 ≈ 1995
	if g.NumEdges() < 1800 || g.NumEdges() > 2000 {
		t.Fatalf("densified edges = %d, want ≈1995", g.NumEdges())
	}
}

func TestAmazonLike(t *testing.T) {
	g := AmazonLike(2000, 6000, 11)
	if g.NumNodes() != 2000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() < 5500 {
		t.Fatalf("edges = %d, want ≈6000", g.NumEdges())
	}
	books := len(g.NodesWithLabelName("Book"))
	if books < 900 || books > 1300 {
		t.Fatalf("book share off: %d/2000", books)
	}
	if _, ok := g.Attr(0, "salesrank"); !ok {
		t.Fatalf("salesrank missing")
	}
}

func TestCitationLikeAcyclic(t *testing.T) {
	g := CitationLike(1500, 4000, 13)
	scc := graph.SCC(g)
	for ci := range scc.Comps {
		if len(scc.Comps[ci]) > 1 {
			t.Fatalf("citation graph has a cycle (component of %d nodes)", len(scc.Comps[ci]))
		}
	}
	// Citations point from newer (higher year) to older.
	bad := 0
	g.Edges(func(u, v graph.NodeID) bool {
		yu, _ := g.Attr(u, "year")
		yv, _ := g.Attr(v, "year")
		if yu < yv {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("%d citations point forward in time", bad)
	}
}

func TestYouTubeLikeAttributes(t *testing.T) {
	g := YouTubeLike(1000, 3000, 17)
	for v := graph.NodeID(0); v < 20; v++ {
		if g.LabelName(v) != "video" {
			t.Fatalf("label = %q", g.LabelName(v))
		}
		for _, k := range []string{"category", "age", "rate", "length", "visits"} {
			if _, ok := g.Attr(v, k); !ok {
				t.Fatalf("attr %s missing", k)
			}
		}
		r, _ := g.Attr(v, "rate")
		if r < 10 || r > 50 {
			t.Fatalf("rate out of range: %d", r)
		}
	}
}

func TestViewSetsValid(t *testing.T) {
	for _, vs := range []*view.Set{YouTubeViews(), AmazonViews(), CitationViews(), SyntheticViews(10, 42)} {
		if err := vs.Validate(); err != nil {
			t.Fatalf("invalid view set: %v", err)
		}
	}
	if YouTubeViews().Card() != 12 || AmazonViews().Card() != 12 || CitationViews().Card() != 12 {
		t.Fatalf("real-life-like view sets must have 12 views")
	}
	if SyntheticViews(10, 42).Card() != 22 {
		t.Fatalf("synthetic view set must have 22 views")
	}
}

func TestViewsHaveMatches(t *testing.T) {
	// The stand-in datasets must actually populate their views, or every
	// experiment would measure empty joins.
	cases := []struct {
		name string
		g    *graph.Graph
		vs   *view.Set
	}{
		{"youtube", YouTubeLike(3000, 9000, 1), YouTubeViews()},
		{"amazon", AmazonLike(3000, 9000, 2), AmazonViews()},
		{"citation", CitationLike(3000, 9000, 3), CitationViews()},
		{"synthetic", Uniform(3000, 6000, 10, 4), SyntheticViews(10, 42)},
	}
	for _, c := range cases {
		x, _ := view.Materialize(c.g, c.vs, view.Options{})
		matched := 0
		for _, e := range x.Exts {
			if e.Result.Matched {
				matched++
			}
		}
		if matched < c.vs.Card()/2 {
			t.Errorf("%s: only %d/%d views have matches", c.name, matched, c.vs.Card())
		}
	}
}

func TestGlueQueryContained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := []*view.Set{YouTubeViews(), AmazonViews(), CitationViews(), SyntheticViews(10, 42)}
	for si, vs := range sets {
		for trial := 0; trial < 20; trial++ {
			q := GlueQuery(rng, vs, 4+rng.Intn(5), 4+rng.Intn(8))
			if err := q.Validate(); err != nil {
				t.Fatalf("set %d: invalid glued query: %v", si, err)
			}
			_, ok, err := core.Contain(q, vs, core.Options{})
			if err != nil {
				t.Fatalf("Contain: %v", err)
			}
			if !ok {
				t.Fatalf("set %d trial %d: glued query not contained:\n%s", si, trial, q)
			}
		}
	}
}

func TestGlueQueryBoundedContained(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vs := BoundedSet(AmazonViews(), 3)
	for trial := 0; trial < 15; trial++ {
		q := GlueQuery(rng, vs, 4, 6)
		_, ok, err := core.Contain(q, vs, core.Options{})
		if err != nil || !ok {
			t.Fatalf("trial %d: bounded glued query not contained (%v)", trial, err)
		}
		// Tightening query bounds below the views' preserves containment.
		q2 := q.WithBounds(2)
		_, ok, _ = core.Contain(q2, vs, core.Options{})
		if !ok {
			t.Fatalf("trial %d: tightened query lost containment", trial)
		}
		// Loosening beyond the views must break it.
		q3 := q.WithBounds(4)
		_, ok, _ = core.Contain(q3, vs, core.Options{})
		if ok {
			t.Fatalf("trial %d: query bounds above view bounds cannot be contained", trial)
		}
	}
}

func TestRandomPatternShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nv := 4 + rng.Intn(7)
		ne := nv + rng.Intn(nv)
		dag := RandomPattern(rng, nv, ne, 10, false)
		if err := dag.Validate(); err != nil {
			t.Fatalf("QDAG invalid: %v", err)
		}
		if !dag.IsDAG() {
			t.Fatalf("QDAG has a cycle")
		}
		cyc := RandomPattern(rng, nv, ne, 10, true)
		if err := cyc.Validate(); err != nil {
			t.Fatalf("QCyclic invalid: %v", err)
		}
		if cyc.IsDAG() {
			t.Fatalf("QCyclic is acyclic")
		}
	}
}

func TestBoundedQueryBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := RandomPattern(rng, 5, 8, 10, true)
	b := BoundedQuery(rng, q, 3)
	for _, e := range b.Edges {
		if e.Bound < 1 || e.Bound > 3 {
			t.Fatalf("bound %v out of [1,3]", e.Bound)
		}
	}
	if q.IsPlain() != true {
		t.Fatalf("original mutated")
	}
}

// TestWorkloadEndToEnd: a small smoke test of the full pipeline on the
// YouTube stand-in — materialize views, glue a query, answer it with
// views, compare against direct evaluation.
func TestWorkloadEndToEnd(t *testing.T) {
	g := YouTubeLike(2000, 6000, 21)
	vs := YouTubeViews()
	x, _ := view.Materialize(g, vs, view.Options{})
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		q := GlueQuery(rng, vs, 4, 6)
		want := simulation.Simulate(g, q, simulation.Options{})
		got, _, _, err := core.Answer(q, x, core.UseMinimum, core.Options{})
		if err != nil {
			t.Fatalf("Answer: %v", err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: view answer != direct\nq: %s", trial, q)
		}
	}
	_ = pattern.Unbounded // keep the import for the helpers above
}
