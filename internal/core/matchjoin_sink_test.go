package core

// Differential tests for the node-match-set derivation in finish on
// patterns with a sink node fed by several in-edges (≥2 in-edges, 0
// out-edges). Simulation places no join constraint on the targets of
// distinct in-edges, so the sink's match set is the UNION of the in-edge
// targets — an intersection would wrongly drop matches witnessed through
// only one in-edge. The tests cross-check every MatchJoin engine against
// direct simulation on the paper-defined part of the answer (the edge
// match sets) and pin down the one documented divergence: a sink match
// with no incoming matched edge appears in Simulate's Sim but cannot be
// recovered from views.

import (
	"fmt"
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// sinkInstance: pattern w1 -> u <- w2 with sink u, one single-edge view
// per pattern edge, and a graph where u's matches split across the two
// in-edges (c only via w1, d only via w2) plus an isolated U node e.
func sinkInstance() (*graph.Graph, *pattern.Pattern, *view.Set, int) {
	g := graph.New()
	a := g.AddNode("W1")
	b := g.AddNode("W2")
	c := g.AddNode("U")
	d := g.AddNode("U")
	g.AddNode("U") // isolated sink match: in Simulate's Sim only
	g.AddEdge(a, c)
	g.AddEdge(b, d)

	q := pattern.New("sink")
	w1 := q.AddNode("w1", "W1")
	w2 := q.AddNode("w2", "W2")
	u := q.AddNode("u", "U")
	q.AddEdge(w1, u)
	q.AddEdge(w2, u)

	v1 := pattern.New("v1")
	v1.AddEdge(v1.AddNode("a", "W1"), v1.AddNode("b", "U"))
	v2 := pattern.New("v2")
	v2.AddEdge(v2.AddNode("a", "W2"), v2.AddNode("b", "U"))
	return g, q, view.NewSet(view.Define("", v1), view.Define("", v2)), u
}

func TestSinkUnionDerivation(t *testing.T) {
	g, q, vs, u := sinkInstance()
	l, ok, err := Contain(q, vs, Options{})
	if err != nil || !ok {
		t.Fatalf("sink query not contained: %v %v", ok, err)
	}
	x := materialize(g, vs)
	want := simulation.Simulate(g, q, simulation.Options{})

	engines := map[string]func() *simulation.Result{
		"MatchJoin": func() *simulation.Result { r, _ := seqMatchJoin(q, x, l); return r },
		"MatchJoinPooled": func() *simulation.Result {
			r, _, err := MatchJoin(q, x, l, Options{Pool: NewScratchPool()})
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	}
	for name, run := range engines {
		got := run()
		if !got.Equal(want) {
			t.Fatalf("%s: edge match sets != Simulate\ngot:  %v\nwant: %v", name, got, want)
		}
		// Union semantics: c (via w1 only) AND d (via w2 only) both match u.
		sim := got.Sim[u]
		if !containsNode(sim, 2) || !containsNode(sim, 3) {
			t.Fatalf("%s: sink match set %v must contain both 2 and 3 (union, not intersection)", name, sim)
		}
		// Documented divergence: the isolated U node (4) is in Simulate's
		// Sim but not derivable from views.
		if containsNode(sim, 4) {
			t.Fatalf("%s: sink match set %v contains the isolated node, which views cannot witness", name, sim)
		}
		if !containsNode(want.Sim[u], 4) {
			t.Fatalf("Simulate's sink Sim %v should contain the isolated node", want.Sim[u])
		}
		// Non-sink nodes must match Simulate's Sim exactly.
		for n := range q.Nodes {
			if n == u {
				continue
			}
			if !equalNodes(got.Sim[n], want.Sim[n]) {
				t.Fatalf("%s: Sim[%d] = %v, want %v", name, n, got.Sim[n], want.Sim[n])
			}
		}
	}
}

// TestSinkDerivationRandomized sweeps random star-into-sink patterns —
// 2..4 sources all pointing at one sink, single-edge views — across
// random graphs, comparing every engine's edge match sets against direct
// simulation and checking the Sim contract: union-of-witnesses at the
// sink (a subset of Simulate's unconstrained sink Sim), exact equality
// elsewhere.
func TestSinkDerivationRandomized(t *testing.T) {
	labels := []string{"A", "B", "C", "U"}
	rng := rand.New(rand.NewSource(83))
	pool := NewScratchPool()
	for trial := 0; trial < 120; trial++ {
		nSrc := 2 + rng.Intn(3)
		q := pattern.New("star")
		var defs []*view.Definition
		sink := q.AddNode("u", "U")
		for i := 0; i < nSrc; i++ {
			lab := labels[rng.Intn(3)] // sources draw from A/B/C
			s := q.AddNode("", lab)
			q.AddEdge(s, sink)
			v := pattern.New(fmt.Sprintf("v%d", i))
			v.AddEdge(v.AddNode("a", lab), v.AddNode("b", "U"))
			defs = append(defs, view.Define("", v))
		}
		vs := view.NewSet(defs...)
		l, ok, err := Contain(q, vs, Options{})
		if err != nil || !ok {
			t.Fatalf("trial %d: star not contained: %v %v", trial, ok, err)
		}
		g := randomDataGraph(rng, labels)
		x := materialize(g, vs)
		want := simulation.Simulate(g, q, simulation.Options{})

		results := make(map[string]*simulation.Result)
		results["MatchJoin"], _ = seqMatchJoin(q, x, l)
		pooled, _, err := MatchJoin(q, x, l, Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		results["MatchJoinPooled"] = pooled

		for name, got := range results {
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: edge match sets != Simulate\nq: %s\ngot:  %v\nwant: %v",
					trial, name, q, got, want)
			}
			if !got.Matched {
				continue
			}
			// Sink Sim = union of alive in-edge targets, ⊆ Simulate's.
			witnessed := map[graph.NodeID]bool{}
			for ei := range q.Edges {
				for _, pr := range got.Edges[ei].Pairs {
					witnessed[pr.Dst] = true
				}
			}
			if len(got.Sim[sink]) != len(witnessed) {
				t.Fatalf("trial %d %s: sink Sim %v != witnessed targets %v", trial, name, got.Sim[sink], witnessed)
			}
			for _, v := range got.Sim[sink] {
				if !witnessed[v] {
					t.Fatalf("trial %d %s: sink match %d not witnessed by any in-edge", trial, name, v)
				}
				if !containsNode(want.Sim[sink], v) {
					t.Fatalf("trial %d %s: sink match %d not in Simulate's Sim", trial, name, v)
				}
			}
			for n := range q.Nodes {
				if n == sink {
					continue
				}
				if !equalNodes(got.Sim[n], want.Sim[n]) {
					t.Fatalf("trial %d %s: Sim[%d] = %v, want %v", trial, name, n, got.Sim[n], want.Sim[n])
				}
			}
		}
	}
}

func containsNode(list []graph.NodeID, v graph.NodeID) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

func equalNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
