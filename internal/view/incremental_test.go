package view

// Regression tests for the deletion-relevance semantics: the skip test
// for a removed edge is decided against the pre-deletion graph (the only
// state the edge ever matched in), for unit deletions and inside mixed
// batches alike. The randomized tests compare maintained extensions
// against full rematerialization over adversarial update streams that
// repeatedly delete exactly the edges that carried matches.

import (
	"math/rand"
	"testing"

	"graphviews/internal/graph"
)

// TestDeleteEdgeRelevanceRefreshes: deleting the only match-carrying
// edge must refresh the extension (not skip), and the skip path must
// still fire for edges no pattern edge could map to.
func TestDeleteEdgeRelevanceRefreshes(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	z1 := g.AddNode("Z")
	z2 := g.AddNode("Z")
	g.AddEdge(a, b)
	g.AddEdge(z1, z2)

	m := seqMaintained(g, NewSet(Define("v", patternAB())))
	if !m.X.Exts[0].Result.Matched {
		t.Fatal("view must match initially")
	}

	if !m.DeleteEdge(z1, z2) {
		t.Fatal("edge existed")
	}
	if m.Stats.Skips != 1 {
		t.Fatalf("irrelevant deletion must skip: Skips = %d", m.Stats.Skips)
	}
	if !m.X.Exts[0].Result.Matched {
		t.Fatal("irrelevant deletion changed the extension")
	}

	if !m.DeleteEdge(a, b) {
		t.Fatal("edge existed")
	}
	if m.X.Exts[0].Result.Matched {
		t.Fatal("deleting the only A->B edge must empty the extension")
	}
	if m.DeleteEdge(a, b) {
		t.Fatal("double deletion reported as applied")
	}
}

// TestMaintainedAdversarialDeletions hammers unit updates that target
// edges currently carrying matches — the stream most sensitive to
// deletion-relevance bugs — and checks against rematerialization after
// every step. Views include bounded ones (always-relevant path).
func TestMaintainedAdversarialDeletions(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 8+rng.Intn(8), labels)
		vs := randomViewSet(rng, labels)
		m := seqMaintained(g.Clone(), vs)
		shadow := g.Clone()

		for step := 0; step < 25; step++ {
			var u, v graph.NodeID
			// Half the time, delete an edge that is currently part of
			// some extension's match set; otherwise mutate at random.
			if step%2 == 0 {
				if pr, ok := someMatchedEdge(m); ok {
					u, v = pr[0], pr[1]
					m.DeleteEdge(u, v)
					shadow.RemoveEdge(u, v)
				} else {
					continue
				}
			} else {
				u = graph.NodeID(rng.Intn(shadow.NumNodes()))
				v = graph.NodeID(rng.Intn(shadow.NumNodes()))
				if rng.Intn(2) == 0 {
					m.InsertEdge(u, v)
					shadow.AddEdge(u, v)
				} else {
					m.DeleteEdge(u, v)
					shadow.RemoveEdge(u, v)
				}
			}
			fresh := seqMaterialize(shadow, vs)
			for i := range fresh.Exts {
				if !m.X.Exts[i].Result.Equal(fresh.Exts[i].Result) {
					t.Fatalf("trial %d step %d: view %d diverged from rematerialization",
						trial, step, i)
				}
			}
		}
	}
}

// TestApplyBatchDeleteThenReinsert: a batch that deletes a matched edge
// and re-inserts it coalesces to a single net insert op, which against a
// graph already holding the edge is a no-op: zero effective updates,
// one coalesced-away op, extension untouched and still exactly what a
// fresh materialization would produce.
func TestApplyBatchDeleteThenReinsert(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddEdge(a, b)
	m := seqMaintained(g, NewSet(Define("v", patternAB())))
	before := m.X.Exts[0]

	applied := m.ApplyBatch([]EdgeUpdate{
		{From: a, To: b, Delete: true},
		{From: a, To: b},
	})
	if applied != 0 {
		t.Fatalf("applied = %d, want 0 (delete+reinsert cancels)", applied)
	}
	if m.Stats.CoalescedAway != 1 {
		t.Fatalf("CoalescedAway = %d, want 1", m.Stats.CoalescedAway)
	}
	if m.X.Exts[0] != before {
		t.Fatalf("cancelled batch rebuilt the extension")
	}
	if !m.X.Exts[0].Result.Matched || m.X.Exts[0].Result.Size() != 1 {
		t.Fatalf("extension after delete+reinsert: %v", m.X.Exts[0].Result)
	}
	if m.Version() != 0 {
		t.Fatalf("version = %d, want 0 (no effective updates)", m.Version())
	}
}

// TestApplyBatchRandomizedMixed compares batched maintenance against
// rematerialization over streams that mix deletions of matched edges,
// random insertions and ineffective updates, including bounded views.
func TestApplyBatchRandomizedMixed(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 10+rng.Intn(6), labels)
		vs := randomViewSet(rng, labels)
		m := seqMaintained(g.Clone(), vs)
		shadow := g.Clone()

		for round := 0; round < 3; round++ {
			var batch []EdgeUpdate
			for i := 0; i < 10; i++ {
				var up EdgeUpdate
				if i%3 == 0 {
					if pr, ok := someMatchedEdge(m); ok {
						up = EdgeUpdate{From: pr[0], To: pr[1], Delete: true}
					} else {
						continue
					}
				} else {
					up = EdgeUpdate{
						From:   graph.NodeID(rng.Intn(shadow.NumNodes())),
						To:     graph.NodeID(rng.Intn(shadow.NumNodes())),
						Delete: rng.Intn(3) == 0,
					}
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
					t.Fatalf("trial %d round %d: view %d diverged after mixed batch",
						trial, round, i)
				}
			}
		}
	}
}

// someMatchedEdge returns a pair currently present in some extension's
// match set (and still present as a graph edge), if any.
func someMatchedEdge(m *Maintained) ([2]graph.NodeID, bool) {
	for _, ext := range m.X.Exts {
		if !ext.Result.Matched {
			continue
		}
		for ei := range ext.Result.Edges {
			for _, pr := range ext.Result.Edges[ei].Pairs {
				if m.G.HasEdge(pr.Src, pr.Dst) {
					return [2]graph.NodeID{pr.Src, pr.Dst}, true
				}
			}
		}
	}
	return [2]graph.NodeID{}, false
}
