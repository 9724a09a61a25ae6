package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graphviews/internal/core"
	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// checkAblation runs both scan-based engines on one instance and holds
// them to core.MatchJoin: same edge match sets and distances, same node
// match sets (the sink derivation included), same seeding count — and,
// since q ⊑ V, the same answer as direct evaluation (Theorem 1).
func checkAblation(t *testing.T, tag string, g graph.Reader, q *pattern.Pattern, vs *view.Set) {
	t.Helper()
	l, ok, err := core.Contain(q, vs, core.Options{})
	if err != nil || !ok {
		t.Fatalf("%s: query not contained in its views: %v %v\nq: %s", tag, ok, err, q)
	}
	x, _ := view.Materialize(g, vs, view.Options{})
	want, wantSt, _ := core.MatchJoin(q, x, l, core.Options{})
	if direct := simulation.Simulate(g, q, simulation.Options{}); !want.Equal(direct) {
		t.Fatalf("%s: MatchJoin != Match\nq: %s", tag, q)
	}
	engines := map[string]func(*pattern.Pattern, *view.Extensions, *core.Lambda) (*simulation.Result, core.Stats){
		"naive": matchJoinNaive, "ranked": matchJoinRanked,
	}
	for name, run := range engines {
		got, st := run(q, x, l)
		if !got.Equal(want) {
			t.Fatalf("%s: %s != MatchJoin\nq: %s\ngot:  %v\nwant: %v", tag, name, q, got, want)
		}
		if got.Matched && !reflect.DeepEqual(got.Sim, want.Sim) {
			t.Fatalf("%s: %s node match sets %v, MatchJoin's %v\nq: %s", tag, name, got.Sim, want.Sim, q)
		}
		if st.InitialPairs != wantSt.InitialPairs {
			t.Fatalf("%s: %s seeded %d pairs, MatchJoin %d", tag, name, st.InitialPairs, wantSt.InitialPairs)
		}
	}
}

// TestAblationEnginesMatchMatchJoin cross-checks the scan-based engines
// on glued queries over the synthetic view family, plain and bounded
// (recorded distances filtered by the query bounds), and on
// star-into-sink patterns, where a node's matches are the union over
// several in-edges.
func TestAblationEnginesMatchMatchJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plain := generator.SyntheticViews(4, 7)
	for trial := 0; trial < 60; trial++ {
		vs := plain
		if trial%2 == 1 {
			vs = generator.BoundedSet(plain, pattern.Bound(2+trial%3))
		}
		g := generator.Uniform(60+rng.Intn(60), 200+rng.Intn(300), 4, int64(trial))
		q := generator.GlueQuery(rng, vs, 3+rng.Intn(3), 3+rng.Intn(4))
		checkAblation(t, fmt.Sprintf("glued %d", trial), g, q, vs)
	}
	for trial := 0; trial < 40; trial++ {
		q := pattern.New("star")
		sink := q.AddNode("u", "L3")
		var defs []*view.Definition
		for i := 0; i < 2+rng.Intn(3); i++ {
			lab := fmt.Sprintf("L%d", rng.Intn(3))
			q.AddEdge(q.AddNode("", lab), sink)
			v := pattern.New(fmt.Sprintf("v%d", i))
			v.AddEdge(v.AddNode("a", lab), v.AddNode("b", "L3"))
			defs = append(defs, view.Define("", v))
		}
		g := generator.Uniform(8+rng.Intn(8), rng.Intn(40), 4, int64(trial))
		checkAblation(t, fmt.Sprintf("star %d", trial), g, q, view.NewSet(defs...))
	}
}

// TestLemma2PathPattern: for a path (DAG) pattern, the ranked engine
// scans each match set exactly once.
func TestLemma2PathPattern(t *testing.T) {
	p := pattern.New("path")
	prev := p.AddNode("", "L0")
	for i := 1; i < 4; i++ {
		cur := p.AddNode("", fmt.Sprintf("L%d", i))
		p.AddEdge(prev, cur)
		prev = cur
	}
	vs := view.NewSet(view.Define("v", p.Clone()))
	g := generator.Uniform(12, 40, 4, 53)
	l, ok, err := core.Contain(p, vs, core.Options{})
	if err != nil || !ok {
		t.Fatalf("path ⊑ {itself} must hold: %v %v", ok, err)
	}
	x, _ := view.Materialize(g, vs, view.Options{})
	_, st := matchJoinRanked(p, x, l)
	if st.EdgeScans > len(p.Edges) {
		t.Fatalf("Lemma 2 violated on a path pattern: %d scans for %d edges", st.EdgeScans, len(p.Edges))
	}
}

// TestNaiveDoesMoreScansOnCycles: sanity for the Exp-2 ablation metric —
// on the cyclic pattern of Fig. 3, where invalid matches cascade
// (Example 4), the naive engine needs at least as many scans as the
// ranked one.
func TestNaiveDoesMoreScansOnCycles(t *testing.T) {
	g := graph.New()
	for _, l := range []string{"PM", "AI", "AI", "DB", "DB", "SE", "SE", "Bio"} {
		g.AddNode(l)
	}
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {0, 2}, {2, 7}, {3, 2}, {4, 1}, {1, 5}, {2, 6}, {5, 4}, {6, 3}, {5, 7},
	} {
		g.AddEdge(e[0], e[1])
	}
	pats, err := pattern.ParseAll(`
pattern Qs3 {
  node pm: PM
  node ai: AI
  node bio: Bio
  node db: DB
  node se: SE
  edge pm -> ai
  edge ai -> bio
  edge db -> ai
  edge ai -> se
  edge se -> db
}
pattern V1 {
  node ai: AI
  node bio: Bio
  node pm: PM
  edge ai -> bio
  edge pm -> ai
}
pattern V2 {
  node db: DB
  node ai: AI
  node se: SE
  edge db -> ai
  edge ai -> se
  edge se -> db
}`)
	if err != nil {
		t.Fatal(err)
	}
	q, vs := pats[0], view.NewSet(view.Define("", pats[1]), view.Define("", pats[2]))
	l, ok, _ := core.Contain(q, vs, core.Options{})
	if !ok {
		t.Fatalf("Fig. 3 query must be contained in its views")
	}
	x, _ := view.Materialize(g, vs, view.Options{})
	_, stR := matchJoinRanked(q, x, l)
	_, stN := matchJoinNaive(q, x, l)
	if stN.EdgeScans < stR.EdgeScans {
		t.Fatalf("naive scans (%d) < ranked scans (%d)?", stN.EdgeScans, stR.EdgeScans)
	}
	if stN.EdgeScans < 2*len(q.Edges) {
		t.Fatalf("naive should need at least two passes, got %d scans", stN.EdgeScans)
	}
}
