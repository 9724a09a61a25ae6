package simulation

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

func TestEdgeMatchesHasDist(t *testing.T) {
	var em EdgeMatches
	em.add(3, 4, 2)
	em.add(1, 2, 1)
	em.add(3, 1, 5)
	em.normalize()
	if em.Len() != 3 {
		t.Fatalf("Len = %d", em.Len())
	}
	if !em.Has(1, 2) || !em.Has(3, 4) || !em.Has(3, 1) {
		t.Fatalf("Has missing pairs: %v", em.Pairs)
	}
	if em.Has(2, 1) || em.Has(0, 0) {
		t.Fatalf("Has reports absent pairs")
	}
	if d := em.Dist(3, 4); d != 2 {
		t.Fatalf("Dist = %d", d)
	}
	if d := em.Dist(9, 9); d != -1 {
		t.Fatalf("absent Dist = %d", d)
	}
	// Sorted by (Src, Dst).
	for i := 1; i < len(em.Pairs); i++ {
		a, b := em.Pairs[i-1], em.Pairs[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
			t.Fatalf("not sorted: %v", em.Pairs)
		}
	}
}

func TestEdgeMatchesNormalizeDedupKeepsMinDist(t *testing.T) {
	var em EdgeMatches
	em.add(1, 2, 5)
	em.add(1, 2, 3)
	em.add(1, 2, 7)
	em.normalize()
	if em.Len() != 1 {
		t.Fatalf("dedup failed: %v", em.Pairs)
	}
	if d := em.Dist(1, 2); d != 3 {
		t.Fatalf("kept dist %d, want minimum 3", d)
	}
}

// TestNormalizeQuick: property test — normalize yields a sorted,
// duplicate-free set containing exactly the input pairs with min dists.
func TestNormalizeQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		var em EdgeMatches
		type key = Pair
		want := map[key]int32{}
		for i := 0; i+2 < len(raw); i += 3 {
			p := Pair{Src: graph.NodeID(raw[i] % 50), Dst: graph.NodeID(raw[i+1] % 50)}
			d := int32(raw[i+2]%9) + 1
			em.add(p.Src, p.Dst, d)
			if old, ok := want[p]; !ok || d < old {
				want[p] = d
			}
		}
		em.normalize()
		if len(em.Pairs) != len(want) {
			return false
		}
		for i, p := range em.Pairs {
			if want[p] != em.Dists[i] {
				return false
			}
			if i > 0 {
				a, b := em.Pairs[i-1], em.Pairs[i]
				if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResultStringAndEmpty(t *testing.T) {
	p := pattern.New("q")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	empty := Empty(p)
	if empty.Matched || empty.Size() != 0 {
		t.Fatalf("Empty is not empty")
	}
	if !strings.Contains(empty.String(), "∅") {
		t.Fatalf("empty String: %q", empty.String())
	}

	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddEdge(a, b)
	res := Simulate(g, p, Options{})
	s := res.String()
	if !strings.Contains(s, "(a,b)") || !strings.Contains(s, "(0,1)") {
		t.Fatalf("String = %q", s)
	}
}

func TestResultEqualSemantics(t *testing.T) {
	p := pattern.New("q")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	g := graph.New()
	g.AddEdge(g.AddNode("A"), g.AddNode("B"))
	r1 := Simulate(g, p, Options{})
	r2 := Simulate(g, p, Options{})
	if !r1.Equal(r2) || !r1.EqualIgnoreDist(r2) {
		t.Fatalf("identical runs must be equal")
	}
	// Mutate a distance: Equal differs, EqualIgnoreDist does not.
	r2.Edges[0].Dists[0] = 9
	if r1.Equal(r2) {
		t.Fatalf("Equal must see distance changes")
	}
	if !r1.EqualIgnoreDist(r2) {
		t.Fatalf("EqualIgnoreDist must ignore distance changes")
	}
	// Empty vs non-empty.
	if r1.Equal(Empty(p)) {
		t.Fatalf("empty != non-empty")
	}
	if !Empty(p).Equal(Empty(p)) {
		t.Fatalf("empty == empty")
	}
}

func TestNodeMatchesAccessor(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b1 := g.AddNode("B")
	b2 := g.AddNode("B")
	g.AddEdge(a, b1)
	g.AddEdge(a, b2)
	p := pattern.New("q")
	pa := p.AddNode("a", "A")
	pb := p.AddNode("b", "B")
	p.AddEdge(pa, pb)
	res := Simulate(g, p, Options{})
	if got := res.NodeMatches(pb); len(got) != 2 {
		t.Fatalf("NodeMatches(b) = %v", got)
	}
	if got := res.NodeMatches(pa); len(got) != 1 || got[0] != a {
		t.Fatalf("NodeMatches(a) = %v", got)
	}
}

// TestAllPairsHops cross-checks the matrix against single BFS calls.
func TestAllPairsHops(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := graph.New()
	n := 12
	for i := 0; i < n; i++ {
		g.AddNode("x")
	}
	for i := 0; i < 30; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	dist := AllPairsHops(g)
	bfs := graph.NewBFS(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := bfs.HopDistance(g, graph.NodeID(u), graph.NodeID(v), -1)
			if int(dist[u][v]) != want {
				t.Fatalf("dist[%d][%d] = %d, want %d", u, v, dist[u][v], want)
			}
		}
	}
}
