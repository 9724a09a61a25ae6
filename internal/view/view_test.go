package view

import (
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// seqMaterialize and seqMaintained are the zero-Options (sequential,
// never cancelled, hence error-free) forms most tests want.
func seqMaterialize(g graph.Reader, s *Set) *Extensions {
	x, err := Materialize(g, s, Options{})
	if err != nil {
		panic(err)
	}
	return x
}

func seqMaintained(g *graph.Graph, s *Set) *Maintained {
	m, err := NewMaintained(g, s, Options{})
	if err != nil {
		panic(err)
	}
	return m
}

// fig1 builds the Fig. 1 graph and the two views V1, V2 of the paper.
func fig1() (*graph.Graph, *Set) {
	g := graph.New()
	for _, l := range []string{"PM", "PM", "DBA", "DBA", "DBA", "PRG", "PRG", "PRG", "BA", "ST"} {
		g.AddNode(l)
	}
	for _, e := range [][2]graph.NodeID{
		{0, 2}, {1, 2}, {0, 5}, {1, 7},
		{3, 6}, {2, 6}, {4, 7},
		{5, 3}, {6, 4}, {6, 2}, {7, 2},
	} {
		g.AddEdge(e[0], e[1])
	}

	v1 := pattern.New("V1")
	pm := v1.AddNode("pm", "PM")
	dba := v1.AddNode("dba", "DBA")
	prg := v1.AddNode("prg", "PRG")
	v1.AddEdge(pm, dba) // e1
	v1.AddEdge(pm, prg) // e2

	v2 := pattern.New("V2")
	dba2 := v2.AddNode("dba", "DBA")
	prg2 := v2.AddNode("prg", "PRG")
	v2.AddEdge(dba2, prg2) // e3
	v2.AddEdge(prg2, dba2) // e4

	return g, NewSet(Define("", v1), Define("", v2))
}

// TestFig1ViewExtensions pins the V(G) tables of Fig. 1(b).
func TestFig1ViewExtensions(t *testing.T) {
	g, vs := fig1()
	if err := vs.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	x := seqMaterialize(g, vs)

	v1 := x.Exts[0].Result
	if !v1.Matched {
		t.Fatalf("V1 should match")
	}
	// Se1 = {(Bob,Mat),(Walt,Mat)}; Se2 = {(Bob,Dan),(Walt,Bill)}
	if v1.Edges[0].Len() != 2 || !v1.Edges[0].Has(0, 2) || !v1.Edges[0].Has(1, 2) {
		t.Fatalf("Se1 = %v", v1.Edges[0].Pairs)
	}
	if v1.Edges[1].Len() != 2 || !v1.Edges[1].Has(0, 5) || !v1.Edges[1].Has(1, 7) {
		t.Fatalf("Se2 = %v", v1.Edges[1].Pairs)
	}

	v2 := x.Exts[1].Result
	// Se3 = {(Fred,Pat),(Mat,Pat),(Mary,Bill)}
	if v2.Edges[0].Len() != 3 || !v2.Edges[0].Has(3, 6) || !v2.Edges[0].Has(2, 6) || !v2.Edges[0].Has(4, 7) {
		t.Fatalf("Se3 = %v", v2.Edges[0].Pairs)
	}
	// Se4 = {(Dan,Fred),(Pat,Mary),(Pat,Mat),(Bill,Mat)}
	if v2.Edges[1].Len() != 4 {
		t.Fatalf("Se4 = %v", v2.Edges[1].Pairs)
	}

	if x.TotalEdges() != 2+2+3+4 {
		t.Fatalf("|V(G)| = %d", x.TotalEdges())
	}
	if f := x.FractionOf(g); f <= 0 || f > 1 {
		t.Fatalf("FractionOf = %v", f)
	}
}

func TestSetAccessors(t *testing.T) {
	_, vs := fig1()
	if vs.Card() != 2 {
		t.Fatalf("Card = %d", vs.Card())
	}
	if vs.Size() != (3+2)+(2+2) {
		t.Fatalf("Size = %d", vs.Size())
	}
	sub := vs.Subset([]int{1})
	if sub.Card() != 1 || sub.Defs[0].Name != "V2" {
		t.Fatalf("Subset wrong: %v", sub.Defs)
	}
}

func TestSetValidateErrors(t *testing.T) {
	p := pattern.New("v")
	p.AddNode("a", "A")
	p.AddNode("b", "B") // disconnected
	vs := NewSet(Define("x", p))
	if err := vs.Validate(); err == nil {
		t.Fatalf("invalid pattern should fail Validate")
	}
	ok := pattern.New("ok")
	ok.AddNode("a", "A")
	dup := NewSet(Define("same", ok), Define("same", ok))
	if err := dup.Validate(); err == nil {
		t.Fatalf("duplicate names should fail Validate")
	}
}

func TestDistIndex(t *testing.T) {
	// chain A -> X -> B with a bounded view A ->(<=2) B.
	g := graph.New()
	a := g.AddNode("A")
	x := g.AddNode("X")
	b := g.AddNode("B")
	g.AddEdge(a, x)
	g.AddEdge(x, b)

	vp := pattern.New("v")
	pa := vp.AddNode("a", "A")
	pb := vp.AddNode("b", "B")
	vp.AddBoundedEdge(pa, pb, 2)
	xts := seqMaterialize(g, NewSet(Define("", vp)))
	idx, _ := BuildDistIndex(xts, Options{})
	if idx.Len() != 1 {
		t.Fatalf("index size = %d", idx.Len())
	}
	if d := idx.Dist(a, b); d != 2 {
		t.Fatalf("Dist(a,b) = %d, want 2", d)
	}
	if d := idx.Dist(a, x); d != -1 {
		t.Fatalf("Dist(a,x) = %d, want -1 (unindexed)", d)
	}
}

func TestDistIndexKeepsMinimum(t *testing.T) {
	// Two views share pair (a,b): one records the direct edge (1), one a
	// bounded path; the index keeps the minimum.
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddEdge(a, b)

	v1 := pattern.New("v1")
	v1.AddEdge(v1.AddNode("a", "A"), v1.AddNode("b", "B"))
	v2 := pattern.New("v2")
	v2.AddBoundedEdge(v2.AddNode("a", "A"), v2.AddNode("b", "B"), 3)
	xts := seqMaterialize(g, NewSet(Define("", v1), Define("", v2)))
	idx, _ := BuildDistIndex(xts, Options{})
	if d := idx.Dist(a, b); d != 1 {
		t.Fatalf("Dist = %d, want 1", d)
	}
}

func randomGraph(rng *rand.Rand, n int, labels []string) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < 3*n; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return g
}

func randomViewSet(rng *rand.Rand, labels []string) *Set {
	var defs []*Definition
	for i := 0; i < 3; i++ {
		p := pattern.New("v")
		pn := 2 + rng.Intn(2)
		for j := 0; j < pn; j++ {
			p.AddNode("", labels[rng.Intn(len(labels))])
		}
		for j := 1; j < pn; j++ {
			k := rng.Intn(j)
			if rng.Intn(2) == 0 {
				p.AddEdge(k, j)
			} else {
				p.AddEdge(j, k)
			}
		}
		if rng.Intn(3) == 0 { // some views bounded
			for k := range p.Edges {
				p.Edges[k].Bound = pattern.Bound(1 + rng.Intn(3))
			}
		}
		defs = append(defs, Define("", p))
	}
	return NewSet(defs...)
}

// TestMaintainedEquivalence: random update streams keep maintained
// extensions identical to full rematerialization.
func TestMaintainedEquivalence(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 8+rng.Intn(8), labels)
		vs := randomViewSet(rng, labels)
		m := seqMaintained(g.Clone(), vs)
		shadow := g.Clone()

		for step := 0; step < 30; step++ {
			u := graph.NodeID(rng.Intn(shadow.NumNodes()))
			v := graph.NodeID(rng.Intn(shadow.NumNodes()))
			if rng.Intn(2) == 0 {
				m.InsertEdge(u, v)
				shadow.AddEdge(u, v)
			} else {
				m.DeleteEdge(u, v)
				shadow.RemoveEdge(u, v)
			}
			if step%10 != 9 {
				continue // compare every 10 steps to keep the test fast
			}
			fresh := seqMaterialize(shadow, vs)
			for i := range fresh.Exts {
				if !m.X.Exts[i].Result.Equal(fresh.Exts[i].Result) {
					t.Fatalf("trial %d step %d: view %d diverged\nmaintained: %v\nfresh: %v",
						trial, step, i, m.X.Exts[i].Result, fresh.Exts[i].Result)
				}
			}
		}
	}
}

func TestMaintainedFastPaths(t *testing.T) {
	// Inserting an edge between labels no pattern edge relates must be a
	// no-op for a plain view.
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	g.AddEdge(a, b)

	p := pattern.New("v")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	m := seqMaintained(g, NewSet(Define("", p)))
	before := m.X.Exts[0]

	if !m.InsertEdge(b, c) { // B->C: no pattern edge has (B,C) endpoints
		t.Fatalf("insert failed")
	}
	if m.Stats.Skips != 1 || m.Stats.Recomputes != 0 {
		t.Fatalf("expected fast-path skip, got skips=%d recomputes=%d", m.Stats.Skips, m.Stats.Recomputes)
	}
	if m.X.Exts[0] != before {
		t.Fatalf("extension rebuilt unnecessarily")
	}

	// Duplicate insert: no-op entirely.
	if m.InsertEdge(a, b) {
		t.Fatalf("duplicate insert should report false")
	}
	// Deleting a never-existing edge: no-op.
	if m.DeleteEdge(c, a) {
		t.Fatalf("deleting a missing edge should report false")
	}
}

func TestMaintainedDeleteBreaksMatch(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddEdge(a, b)
	p := pattern.New("v")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	m := seqMaintained(g, NewSet(Define("", p)))
	if !m.X.Exts[0].Result.Matched {
		t.Fatalf("should match initially")
	}
	m.DeleteEdge(a, b)
	if m.X.Exts[0].Result.Matched {
		t.Fatalf("match should vanish after deletion")
	}
	// Re-insert: match returns.
	m.InsertEdge(a, b)
	if !m.X.Exts[0].Result.Matched {
		t.Fatalf("match should return after re-insertion")
	}
}

func TestMaterializeDualDirect(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddNode("B") // dangling B: kept by plain sim, dropped by dual
	g.AddEdge(a, b)
	p := pattern.New("v")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	x, _ := MaterializeDual(g, NewSet(Define("", p)), Options{})
	if x.TotalEdges() != 1 {
		t.Fatalf("dual extension size = %d", x.TotalEdges())
	}
	if len(x.Exts[0].Result.Sim[1]) != 1 {
		t.Fatalf("dual must keep only the linked B: %v", x.Exts[0].Result.Sim)
	}
}

func TestExtensionsSubsetDirect(t *testing.T) {
	g, vs := fig1()
	x := seqMaterialize(g, vs)
	sub := x.Subset([]int{1})
	if sub.Set.Card() != 1 || sub.Set.Defs[0].Name != "V2" {
		t.Fatalf("Subset wrong: %v", sub.Set.Defs)
	}
	if sub.TotalEdges() != x.Exts[1].Edges() {
		t.Fatalf("subset extension size mismatch")
	}
}
