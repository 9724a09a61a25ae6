package pattern

import (
	"math/rand"
	"sync"
	"testing"

	"graphviews/internal/graph"
)

// fig3Pattern is the Fig. 3 query: a 3-cycle (db -> ai -> se -> db) with
// a source (pm -> ai) and a sink (ai -> bio) hanging off it.
func fig3Pattern() *Pattern {
	q := New("Qs3")
	pm := q.AddNode("pm", "PM")
	ai := q.AddNode("ai", "AI")
	bio := q.AddNode("bio", "Bio")
	db := q.AddNode("db", "DB")
	se := q.AddNode("se", "SE")
	q.AddEdge(pm, ai)
	q.AddEdge(ai, bio)
	q.AddEdge(db, ai)
	q.AddEdge(ai, se)
	q.AddEdge(se, db)
	return q
}

// TestCondenseFig3 pins the Section III ranks of Fig. 3: the sink bio is
// a leaf (0), the cycle {ai, db, se} sits above it (1), pm above the
// cycle (2).
func TestCondenseFig3(t *testing.T) {
	r := fig3Pattern().Ranks()
	want := []int{2, 1, 0, 1, 1} // pm, ai, bio, db, se
	for u, w := range want {
		if r[u] != w {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

// TestAdjacencyConcurrentFirstUse hammers a freshly built (never read)
// pattern from several goroutines; with -race this pins the atomic
// publication of the lazy adjacency cache that concurrent Engine calls
// sharing one *Pattern rely on.
func TestAdjacencyConcurrentFirstUse(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		q := fig3Pattern()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := range q.Nodes {
					if len(q.OutEdges(u))+len(q.InEdges(u)) == 0 {
						t.Errorf("node %d has no incident edges in fig3", u)
					}
				}
				q.Ranks()
			}()
		}
		wg.Wait()
	}
}

// TestCondenseSingleCycle: both nodes of a 2-cycle form one leaf SCC.
func TestCondenseSingleCycle(t *testing.T) {
	q := New("cyc")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	q.AddEdge(a, b)
	q.AddEdge(b, a)
	if r := q.Ranks(); r[a] != 0 || r[b] != 0 {
		t.Fatalf("2-cycle ranks = %v, want [0 0]", r)
	}
}

// TestCondenseWaveInvariants checks the rank contract on random
// patterns: for every edge, rank(from) ≥ rank(to), with equality exactly
// when both ends share an SCC.
func TestCondenseWaveInvariants(t *testing.T) {
	labels := []string{"A", "B", "C", "D"}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		q := New("r")
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			q.AddNode("", labels[rng.Intn(len(labels))])
		}
		seen := map[[2]int]bool{}
		for i := 0; i < 2*n; i++ {
			f, to := rng.Intn(n), rng.Intn(n)
			if f == to && rng.Intn(2) == 0 {
				continue // some self-loops, not too many
			}
			if seen[[2]int{f, to}] {
				continue
			}
			seen[[2]int{f, to}] = true
			q.AddEdge(f, to)
		}
		r := q.Ranks()
		comp := graph.SCC(q.AsGraph()).CompOf
		for ei, e := range q.Edges {
			same := comp[e.From] == comp[e.To]
			switch {
			case r[e.From] < r[e.To]:
				t.Fatalf("trial %d: edge %d: rank(from)=%d < rank(to)=%d", trial, ei, r[e.From], r[e.To])
			case same != (r[e.From] == r[e.To]):
				t.Fatalf("trial %d: edge %d: same SCC=%v but ranks %d, %d", trial, ei, same, r[e.From], r[e.To])
			}
		}
	}
}
