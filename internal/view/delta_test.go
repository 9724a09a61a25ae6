package view

// Tests for the delta-propagation pipeline: coalescing, the change
// feed, the insertion grow path (no full rematerialize when the
// affected area is a strict subset of the view), the bounded-view
// distance-aware relevance test, and adversarial update streams checked
// byte-identical against rematerialization over every Reader backend at
// several worker counts.

import (
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// TestCoalesce pins the net-per-edge semantics: last op wins in
// first-occurrence order, overwrites are counted.
func TestCoalesce(t *testing.T) {
	e := func(u, v int, del bool) EdgeUpdate {
		return EdgeUpdate{From: graph.NodeID(u), To: graph.NodeID(v), Delete: del}
	}
	net, dropped := Coalesce([]EdgeUpdate{
		e(0, 1, false), // overwritten by the delete below
		e(2, 3, false),
		e(0, 1, true),
		e(2, 3, false), // duplicate insert: dedup
		e(4, 5, true),
		e(4, 5, false), // delete then re-insert nets to insert
	})
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	want := []EdgeUpdate{e(0, 1, true), e(2, 3, false), e(4, 5, false)}
	if len(net) != len(want) {
		t.Fatalf("net = %v, want %v", net, want)
	}
	for i := range want {
		if net[i] != want[i] {
			t.Fatalf("net[%d] = %v, want %v", i, net[i], want[i])
		}
	}
	// Tiny streams pass through untouched.
	single := []EdgeUpdate{e(7, 8, false)}
	net, dropped = Coalesce(single)
	if dropped != 0 || len(net) != 1 || net[0] != single[0] {
		t.Fatalf("singleton stream altered: %v (%d dropped)", net, dropped)
	}
}

// TestInsertDeltaPropagation is the acceptance assertion of the grow
// path: a relevant single-edge insertion into a matched plain view whose
// affected area is a strict subset of the graph must refresh by delta
// propagation — never by full rematerialization — and still land on
// exactly the rematerialized extension.
func TestInsertDeltaPropagation(t *testing.T) {
	g := graph.New()
	a1 := g.AddNode("A")
	b1 := g.AddNode("B")
	a2 := g.AddNode("A")
	b2 := g.AddNode("B")
	// A far-away matched region that must stay outside the affected area.
	g.AddEdge(a1, b1)

	vs := NewSet(Define("v", patternAB()))
	m := seqMaintained(g, vs)
	if !m.X.Exts[0].Result.Matched {
		t.Fatal("view must match initially")
	}

	if !m.InsertEdge(a2, b2) {
		t.Fatal("insert failed")
	}
	if m.Stats.Recomputes != 0 {
		t.Fatalf("relevant insertion took the rematerialize path: %+v", m.Stats)
	}
	if m.Stats.DeltaProps != 1 {
		t.Fatalf("DeltaProps = %d, want 1 (stats %+v)", m.Stats.DeltaProps, m.Stats)
	}
	if m.Stats.AffectedPairs == 0 {
		t.Fatalf("AffectedPairs = 0, want > 0 after a growing insertion")
	}
	fresh := seqMaterialize(m.G, vs)
	if !m.X.Exts[0].Result.Equal(fresh.Exts[0].Result) {
		t.Fatal("delta propagation diverged from rematerialization")
	}
	if m.X.Exts[0].Result.Size() != 2 {
		t.Fatalf("size = %d, want 2", m.X.Exts[0].Result.Size())
	}
}

// TestBoundedInsertRelevance exercises the distance-aware relevance test
// that replaced the bounded-view "always rematerialize" pessimism: an
// edge farther from any condition-matching node than the bound admits
// must skip, while an edge that closes a within-bound path must refresh
// by delta propagation — with the recorded distance index updated.
func TestBoundedInsertRelevance(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	m1 := g.AddNode("M")
	m2 := g.AddNode("M")
	// Chain far from any A/B pair: z-nodes only.
	z1 := g.AddNode("Z")
	z2 := g.AddNode("Z")
	z3 := g.AddNode("Z")
	g.AddEdge(a, m1)
	g.AddEdge(m1, b) // A -> M -> B: within bound 2

	p := pattern.New("ab2")
	p.AddBoundedEdge(p.AddNode("a", "A"), p.AddNode("b", "B"), 2)
	vs := NewSet(Define("v", p))
	m := seqMaintained(g, vs)
	if !m.X.Exts[0].Result.Matched {
		t.Fatal("bounded view must match initially")
	}

	// z1->z2: no A within 1 hop behind z1, no B within 1 hop ahead of z2.
	if !m.InsertEdge(z1, z2) {
		t.Fatal("insert failed")
	}
	if m.Stats.Skips != 1 || m.Stats.Recomputes != 0 || m.Stats.DeltaProps != 0 {
		t.Fatalf("irrelevant bounded insertion: %+v", m.Stats)
	}

	// z2->z3 likewise.
	if !m.InsertEdge(z2, z3) {
		t.Fatal("insert failed")
	}
	if m.Stats.Skips != 2 {
		t.Fatalf("second irrelevant insertion: %+v", m.Stats)
	}

	// a->m2, m2->b: the second insert closes a new A->B path of length 2
	// and must propagate (m2 was irrelevant alone: no B within 1 of m2).
	m.InsertEdge(a, m2)
	if !m.InsertEdge(m2, b) {
		t.Fatal("insert failed")
	}
	if m.Stats.Recomputes != 0 {
		t.Fatalf("relevant bounded insertion rematerialized: %+v", m.Stats)
	}
	if m.Stats.DeltaProps == 0 {
		t.Fatalf("relevant bounded insertion did not propagate: %+v", m.Stats)
	}
	fresh := seqMaterialize(m.G, vs)
	if !m.X.Exts[0].Result.Equal(fresh.Exts[0].Result) {
		t.Fatal("bounded delta propagation diverged from rematerialization")
	}

	// A direct a->b edge shortens the recorded distance from 2 to 1; the
	// grow path must patch the distance index, not just membership.
	if !m.InsertEdge(a, b) {
		t.Fatal("insert failed")
	}
	fresh = seqMaterialize(m.G, vs)
	if !m.X.Exts[0].Result.Equal(fresh.Exts[0].Result) {
		t.Fatal("distance shortening diverged from rematerialization")
	}
	if d := m.X.Exts[0].Result.Edges[0].Dists; len(d) == 0 || d[0] != 1 {
		t.Fatalf("recorded distance not shortened: %v", d)
	}
}

// TestFeedCoalescesAndFlushes drives the change-feed stage: submits
// coalesce into a net batch, backlog tracks it, flush applies it in one
// propagation pass and credits the coalesced-away count.
func TestFeedCoalescesAndFlushes(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b1 := g.AddNode("B")
	b2 := g.AddNode("B")
	g.AddEdge(a, b1)
	vs := NewSet(Define("v", patternAB()))
	m := seqMaintained(g, vs)
	f := NewFeed(m)

	if n := f.Submit(EdgeUpdate{From: a, To: b2}); n != 1 {
		t.Fatalf("backlog = %d, want 1", n)
	}
	// Cancel it, then reinstate: still one net op.
	f.Submit(EdgeUpdate{From: a, To: b2, Delete: true})
	if n := f.Submit(EdgeUpdate{From: a, To: b2}); n != 1 {
		t.Fatalf("backlog after churn = %d, want 1", n)
	}
	if f.Backlog() != 1 {
		t.Fatalf("Backlog() = %d, want 1", f.Backlog())
	}

	if applied := f.Flush(); applied != 1 {
		t.Fatalf("Flush applied = %d, want 1", applied)
	}
	if f.Backlog() != 0 {
		t.Fatalf("backlog after flush = %d", f.Backlog())
	}
	if m.Stats.CoalescedAway != 2 {
		t.Fatalf("CoalescedAway = %d, want 2", m.Stats.CoalescedAway)
	}
	if m.Stats.Batches != 1 || m.Version() != 1 {
		t.Fatalf("one flush must commit one batch: %+v version=%d", m.Stats, m.Version())
	}
	fresh := seqMaterialize(m.G, vs)
	if !m.X.Exts[0].Result.Equal(fresh.Exts[0].Result) {
		t.Fatal("feed flush diverged from rematerialization")
	}
	// Flushing an empty feed is free.
	if applied := f.Flush(); applied != 0 {
		t.Fatalf("empty flush applied %d", applied)
	}
}

// TestAdversarialDeltaStreams is the satellite coverage matrix:
// insert-heavy, cancel-heavy and interleaved streams × workers {1,4},
// with maintained extensions checked byte-identical (Result.Equal spans
// sim sets, match pairs and recorded distances) against fresh
// materialization over the mutable graph and its snapshots at k = 1
// (Freeze) and k = 3 after every batch.
func TestAdversarialDeltaStreams(t *testing.T) {
	labels := []string{"A", "B", "C"}
	type stream struct {
		name string
		gen  func(rng *rand.Rand, n int, m *Maintained) []EdgeUpdate
	}
	streams := []stream{
		{"insert-heavy", func(rng *rand.Rand, n int, m *Maintained) []EdgeUpdate {
			var batch []EdgeUpdate
			for i := 0; i < 12; i++ {
				up := EdgeUpdate{
					From:   graph.NodeID(rng.Intn(n)),
					To:     graph.NodeID(rng.Intn(n)),
					Delete: rng.Intn(8) == 0,
				}
				batch = append(batch, up)
			}
			return batch
		}},
		{"cancel-heavy", func(rng *rand.Rand, n int, m *Maintained) []EdgeUpdate {
			var batch []EdgeUpdate
			for i := 0; i < 6; i++ {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				// Insert+delete churn on the same edge: most ops coalesce away.
				batch = append(batch,
					EdgeUpdate{From: u, To: v},
					EdgeUpdate{From: u, To: v, Delete: true},
					EdgeUpdate{From: u, To: v, Delete: rng.Intn(2) == 0})
			}
			return batch
		}},
		{"interleaved", func(rng *rand.Rand, n int, m *Maintained) []EdgeUpdate {
			var batch []EdgeUpdate
			for i := 0; i < 10; i++ {
				if i%3 == 0 {
					if pr, ok := someMatchedEdge(m); ok {
						batch = append(batch, EdgeUpdate{From: pr[0], To: pr[1], Delete: true})
						continue
					}
				}
				batch = append(batch, EdgeUpdate{
					From:   graph.NodeID(rng.Intn(n)),
					To:     graph.NodeID(rng.Intn(n)),
					Delete: rng.Intn(4) == 0,
				})
			}
			return batch
		}},
	}

	for _, st := range streams {
		for _, workers := range []int{1, 4} {
			t.Run(st.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(211 + workers)))
				for trial := 0; trial < 4; trial++ {
					g := randomGraph(rng, 10+rng.Intn(6), labels)
					vs := randomViewSet(rng, labels)
					m := seqMaintained(g.Clone(), vs)
					m.SetParallelism(workers)
					shadow := g.Clone()

					for round := 0; round < 4; round++ {
						batch := st.gen(rng, shadow.NumNodes(), m)
						m.ApplyBatch(batch)
						for _, up := range batch {
							if up.Delete {
								shadow.RemoveEdge(up.From, up.To)
							} else {
								shadow.AddEdge(up.From, up.To)
							}
						}
						oracles := map[string]*Extensions{
							"mutable": seqMaterialize(shadow, vs),
							"frozen":  seqMaterialize(graph.Freeze(shadow), vs),
							"sharded": seqMaterialize(graph.Shard(shadow, 3), vs),
						}
						for backend, fresh := range oracles {
							for i := range fresh.Exts {
								if !m.X.Exts[i].Result.Equal(fresh.Exts[i].Result) {
									t.Fatalf("%s/workers=%d trial %d round %d: view %d diverged vs %s oracle",
										st.name, workers, trial, round, i, backend)
								}
							}
						}
					}
					if st.name == "cancel-heavy" && m.Stats.CoalescedAway == 0 {
						t.Fatalf("cancel-heavy stream coalesced nothing: %+v", m.Stats)
					}
				}
			})
		}
	}
}
