package view

import (
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// TestApplyBatchEquivalence: batch maintenance matches rematerialization
// on random update streams.
func TestApplyBatchEquivalence(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 10+rng.Intn(8), labels)
		vs := randomViewSet(rng, labels)
		m := seqMaintained(g.Clone(), vs)
		shadow := g.Clone()

		for round := 0; round < 4; round++ {
			var batch []EdgeUpdate
			for i := 0; i < 8; i++ {
				up := EdgeUpdate{
					From:   graph.NodeID(rng.Intn(shadow.NumNodes())),
					To:     graph.NodeID(rng.Intn(shadow.NumNodes())),
					Delete: rng.Intn(2) == 0,
				}
				batch = append(batch, up)
				if up.Delete {
					shadow.RemoveEdge(up.From, up.To)
				} else {
					shadow.AddEdge(up.From, up.To)
				}
			}
			m.ApplyBatch(batch)
			fresh := seqMaterialize(shadow, vs)
			for i := range fresh.Exts {
				if !m.X.Exts[i].Result.Equal(fresh.Exts[i].Result) {
					t.Fatalf("trial %d round %d: view %d diverged after batch",
						trial, round, i)
				}
			}
		}
	}
}

// TestApplyBatchDeletionsOnly exercises the seeded-refinement path.
func TestApplyBatchDeletionsOnly(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b1 := g.AddNode("B")
	b2 := g.AddNode("B")
	g.AddEdge(a, b1)
	g.AddEdge(a, b2)

	vs := randomViewSetSingleEdge()
	m := seqMaintained(g, vs)
	if m.X.Exts[0].Result.Size() != 2 {
		t.Fatalf("initial size = %d", m.X.Exts[0].Result.Size())
	}
	applied := m.ApplyBatch([]EdgeUpdate{
		{From: a, To: b1, Delete: true},
		{From: a, To: b1, Delete: true}, // duplicate: no effect
	})
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if m.Stats.Recomputes != 0 {
		t.Fatalf("deletion-only batch must not rematerialize")
	}
	if m.X.Exts[0].Result.Size() != 1 {
		t.Fatalf("size after deletion = %d", m.X.Exts[0].Result.Size())
	}
}

// TestApplyBatchNoop: an empty / ineffective batch changes nothing.
func TestApplyBatchNoop(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	g.AddNode("B")
	vs := randomViewSetSingleEdge()
	m := seqMaintained(g, vs)
	before := m.X.Exts[0]
	if n := m.ApplyBatch(nil); n != 0 {
		t.Fatalf("empty batch applied %d", n)
	}
	if n := m.ApplyBatch([]EdgeUpdate{{From: a, To: a, Delete: true}}); n != 0 {
		t.Fatalf("ineffective batch applied %d", n)
	}
	if m.X.Exts[0] != before {
		t.Fatalf("extension rebuilt for a no-op batch")
	}
}

// randomViewSetSingleEdge returns the one-view set {A -> B}.
func randomViewSetSingleEdge() *Set {
	p := patternAB()
	return NewSet(Define("v", p))
}

// patternAB builds the 2-node pattern A -> B.
func patternAB() *pattern.Pattern {
	p := pattern.New("ab")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	return p
}
