package simulation

// Randomized differential harness for the frozen CSR backend: every
// engine must produce byte-identical results on a mutable *graph.Graph
// and on graph.Freeze of the same graph (the Reader seam must be
// semantics-free).

import (
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// equalResults compares Matched, node match sets and edge match sets
// (distances included).
func equalResults(a, b *Result) bool {
	if !a.Equal(b) || len(a.Sim) != len(b.Sim) {
		return false
	}
	for u := range a.Sim {
		if len(a.Sim[u]) != len(b.Sim[u]) {
			return false
		}
		for i := range a.Sim[u] {
			if a.Sim[u][i] != b.Sim[u][i] {
				return false
			}
		}
	}
	return true
}

// TestFrozenBackendPlainEngines: Simulate, SimulateDual and
// SimulateStrong agree across backends on random plain instances.
func TestFrozenBackendPlainEngines(t *testing.T) {
	engines := map[string]func(graph.Reader, *pattern.Pattern) *Result{
		"sim":    func(g graph.Reader, p *pattern.Pattern) *Result { return Simulate(g, p, Options{}) },
		"dual":   func(g graph.Reader, p *pattern.Pattern) *Result { return SimulateDual(g, p, Options{}) },
		"strong": SimulateStrong,
		"brute":  BruteSimulate,
	}
	rng := rand.New(rand.NewSource(8011))
	for trial := 0; trial < 60; trial++ {
		g, p := randomInstance(rng, 3)
		fz := graph.Freeze(g)
		for name, eng := range engines {
			a := eng(g, p)
			b := eng(fz, p)
			if !equalResults(a, b) {
				t.Fatalf("trial %d engine %s: frozen result differs\nmutable: %v\nfrozen:  %v",
					trial, name, a, b)
			}
		}
	}
}

// TestFrozenBackendBounded: bounded simulation (including unbounded *
// edges) agrees across backends, distances included.
func TestFrozenBackendBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8021))
	for trial := 0; trial < 60; trial++ {
		g, p := randomInstance(rng, 3)
		// Randomly loosen some edges into bounded/unbounded ones.
		for i := range p.Edges {
			switch rng.Intn(3) {
			case 0:
				p.Edges[i].Bound = pattern.Bound(2 + rng.Intn(3))
			case 1:
				p.Edges[i].Bound = pattern.Unbounded
			}
		}
		fz := graph.Freeze(g)
		a := simulateBounded(g, p)
		b := simulateBounded(fz, p)
		if !equalResults(a, b) {
			t.Fatalf("trial %d: frozen bounded result differs\nmutable: %v\nfrozen:  %v", trial, a, b)
		}
	}
}

// TestFrozenBackendPredicates: attribute predicates (numeric and
// categorical) evaluate identically against the frozen attribute columns.
func TestFrozenBackendPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(8031))
	cats := []string{"Music", "Sports", "News"}
	for trial := 0; trial < 40; trial++ {
		g, p := randomInstance(rng, 3)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if rng.Intn(2) == 0 {
				g.SetAttr(v, "x", int64(rng.Intn(5)))
			}
			if rng.Intn(3) == 0 {
				g.SetAttrString(v, "cat", cats[rng.Intn(len(cats))])
			}
		}
		for u := range p.Nodes {
			if rng.Intn(2) == 0 {
				p.Nodes[u].Preds = append(p.Nodes[u].Preds,
					pattern.IntPred("x", pattern.OpGe, int64(rng.Intn(4))))
			}
			if rng.Intn(3) == 0 {
				p.Nodes[u].Preds = append(p.Nodes[u].Preds,
					pattern.StrPred("cat", pattern.OpEq, cats[rng.Intn(len(cats))]))
			}
		}
		fz := graph.Freeze(g)
		if a, b := Simulate(g, p, Options{}), Simulate(fz, p, Options{}); !equalResults(a, b) {
			t.Fatalf("trial %d: predicate evaluation differs across backends", trial)
		}
	}
}
