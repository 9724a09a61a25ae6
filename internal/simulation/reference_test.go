package simulation

// Retained reference implementations of the pre-dense-kernel engines
// (PR 3 state): []bool membership rows, per-edge []int32 support slices,
// plain append worklists — byte-for-byte the algorithms the bitset/arena
// kernels replaced. The differential tests below prove the dense engines
// produce identical Results (Sim lists, pairs and distances) on
// randomized plain, bounded, dual and predicate workloads, including
// repeated runs over one warmed ScratchPool (stale-scratch detection).

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// referenceSimulateSeeded is the pre-PR plain-simulation fixpoint.
func referenceSimulateSeeded(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID) *Result {
	n := g.NumNodes()

	inSim := make([][]bool, len(p.Nodes))
	for u := range inSim {
		if len(cands[u]) == 0 {
			return emptyResult(p)
		}
		inSim[u] = make([]bool, n)
		for _, v := range cands[u] {
			inSim[u][v] = true
		}
	}

	supp := make([][]int32, len(p.Edges))
	for ei := range p.Edges {
		supp[ei] = make([]int32, n)
	}

	type removal struct {
		u int
		v graph.NodeID
	}
	var work []removal
	remove := func(u int, v graph.NodeID) {
		inSim[u][v] = false
		work = append(work, removal{u, v})
	}

	for u := range p.Nodes {
		for _, ei := range p.OutEdges(u) {
			tgt := p.Edges[ei].To
			for _, v := range cands[u] {
				var c int32
				for _, w := range g.Out(v) {
					if inSim[tgt][w] {
						c++
					}
				}
				supp[ei][v] = c
			}
		}
	}
	for u := range p.Nodes {
		outs := p.OutEdges(u)
		for _, v := range cands[u] {
			for _, ei := range outs {
				if supp[ei][v] == 0 {
					remove(u, v)
					break
				}
			}
		}
	}

	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range p.InEdges(r.u) {
			src := p.Edges[ei].From
			for _, x := range g.In(r.v) {
				if !inSim[src][x] {
					continue
				}
				supp[ei][x]--
				if supp[ei][x] == 0 {
					remove(src, x)
				}
			}
		}
	}

	sim := boolsToSorted(inSim)
	for u := range sim {
		if len(sim[u]) == 0 {
			return emptyResult(p)
		}
	}

	res := &Result{Pattern: p, Matched: true, Sim: sim, Edges: make([]EdgeMatches, len(p.Edges))}
	for ei, e := range p.Edges {
		em := &res.Edges[ei]
		for _, v := range sim[e.From] {
			for _, w := range g.Out(v) {
				if inSim[e.To][w] {
					em.add(v, w, 1)
				}
			}
		}
		em.normalize()
	}
	return res
}

// referenceSimulateBounded is the pre-PR bounded fixpoint (sequential
// enumeration path).
func referenceSimulateBounded(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID) *Result {
	n := g.NumNodes()

	inSim := make([][]bool, len(p.Nodes))
	for u := range inSim {
		if len(cands[u]) == 0 {
			return emptyResult(p)
		}
		inSim[u] = make([]bool, n)
		for _, v := range cands[u] {
			inSim[u][v] = true
		}
	}
	simList := make([][]graph.NodeID, len(p.Nodes))
	for u := range simList {
		simList[u] = append([]graph.NodeID(nil), cands[u]...)
	}

	bfs := graph.NewBFS(n)
	backDist := make([]int32, n)

	dirty := make([]bool, len(p.Edges))
	queue := make([]int, 0, len(p.Edges))
	for ei := range p.Edges {
		dirty[ei] = true
		queue = append(queue, ei)
	}

	for len(queue) > 0 {
		ei := queue[0]
		queue = queue[1:]
		if !dirty[ei] {
			continue
		}
		dirty[ei] = false
		e := p.Edges[ei]
		k := e.Bound

		for i := range backDist {
			backDist[i] = -1
		}
		depth := -1
		if k != pattern.Unbounded {
			depth = int(k) - 1
		}
		bfs.FromMulti(g, simList[e.To], graph.Backward, depth, func(v graph.NodeID, d int) bool {
			backDist[v] = int32(d)
			return true
		})

		kept := simList[e.From][:0]
		removedAny := false
		for _, v := range simList[e.From] {
			ok := false
			for _, w := range g.Out(v) {
				if backDist[w] >= 0 {
					ok = true
					break
				}
			}
			if ok {
				kept = append(kept, v)
			} else {
				inSim[e.From][v] = false
				removedAny = true
			}
		}
		simList[e.From] = kept
		if len(kept) == 0 {
			return emptyResult(p)
		}
		if removedAny {
			for _, in := range p.InEdges(e.From) {
				if !dirty[in] {
					dirty[in] = true
					queue = append(queue, in)
				}
			}
		}
	}

	for u := range simList {
		if len(simList[u]) == 0 {
			return emptyResult(p)
		}
	}

	edges := make([]EdgeMatches, len(p.Edges))
	for ei := range p.Edges {
		e := &p.Edges[ei]
		em := &edges[ei]
		depth := -1
		if e.Bound != pattern.Unbounded {
			depth = int(e.Bound)
		}
		for _, v := range simList[e.From] {
			bfs.From(g, v, graph.Forward, depth, func(w graph.NodeID, d int) bool {
				if inSim[e.To][w] {
					em.add(v, w, int32(d))
				}
				return true
			})
		}
		em.normalize()
	}
	return &Result{Pattern: p, Matched: true, Sim: simList, Edges: edges}
}

// referenceSimulateDual is the pre-PR dual fixpoint.
func referenceSimulateDual(g graph.Reader, p *pattern.Pattern) *Result {
	n := g.NumNodes()
	cands := candidates(g, p, false)

	inSim := make([][]bool, len(p.Nodes))
	for u := range inSim {
		if len(cands[u]) == 0 {
			return emptyResult(p)
		}
		inSim[u] = make([]bool, n)
		for _, v := range cands[u] {
			inSim[u][v] = true
		}
	}

	suppFwd := make([][]int32, len(p.Edges))
	suppBwd := make([][]int32, len(p.Edges))
	for ei := range p.Edges {
		suppFwd[ei] = make([]int32, n)
		suppBwd[ei] = make([]int32, n)
	}

	type removal struct {
		u int
		v graph.NodeID
	}
	var work []removal
	remove := func(u int, v graph.NodeID) {
		if inSim[u][v] {
			inSim[u][v] = false
			work = append(work, removal{u, v})
		}
	}

	for u := range p.Nodes {
		for _, v := range cands[u] {
			for _, ei := range p.OutEdges(u) {
				tgt := p.Edges[ei].To
				var c int32
				for _, w := range g.Out(v) {
					if inSim[tgt][w] {
						c++
					}
				}
				suppFwd[ei][v] = c
			}
			for _, ei := range p.InEdges(u) {
				src := p.Edges[ei].From
				var c int32
				for _, w := range g.In(v) {
					if inSim[src][w] {
						c++
					}
				}
				suppBwd[ei][v] = c
			}
		}
	}
	for u := range p.Nodes {
		for _, v := range cands[u] {
			dead := false
			for _, ei := range p.OutEdges(u) {
				if suppFwd[ei][v] == 0 {
					dead = true
					break
				}
			}
			if !dead {
				for _, ei := range p.InEdges(u) {
					if suppBwd[ei][v] == 0 {
						dead = true
						break
					}
				}
			}
			if dead {
				remove(u, v)
			}
		}
	}

	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range p.InEdges(r.u) {
			src := p.Edges[ei].From
			for _, x := range g.In(r.v) {
				if inSim[src][x] {
					suppFwd[ei][x]--
					if suppFwd[ei][x] == 0 {
						remove(src, x)
					}
				}
			}
		}
		for _, ei := range p.OutEdges(r.u) {
			tgt := p.Edges[ei].To
			for _, x := range g.Out(r.v) {
				if inSim[tgt][x] {
					suppBwd[ei][x]--
					if suppBwd[ei][x] == 0 {
						remove(tgt, x)
					}
				}
			}
		}
	}

	sim := boolsToSorted(inSim)
	for u := range sim {
		if len(sim[u]) == 0 {
			return emptyResult(p)
		}
	}
	res := &Result{Pattern: p, Matched: true, Sim: sim, Edges: make([]EdgeMatches, len(p.Edges))}
	for ei, e := range p.Edges {
		em := &res.Edges[ei]
		for _, v := range sim[e.From] {
			for _, w := range g.Out(v) {
				if inSim[e.To][w] {
					em.add(v, w, 1)
				}
			}
		}
		em.normalize()
	}
	return res
}

// loosenBounds randomly relaxes pattern edges into bounded/unbounded
// ones.
func loosenBounds(rng *rand.Rand, p *pattern.Pattern) {
	for i := range p.Edges {
		switch rng.Intn(3) {
		case 0:
			p.Edges[i].Bound = pattern.Bound(2 + rng.Intn(3))
		case 1:
			p.Edges[i].Bound = pattern.Unbounded
		}
	}
}

// addRandomPreds decorates graph and pattern with numeric and
// categorical attributes so predicate evaluation participates.
func addRandomPreds(rng *rand.Rand, g *graph.Graph, p *pattern.Pattern) {
	cats := []string{"Music", "Sports", "News"}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if rng.Intn(2) == 0 {
			g.SetAttr(v, "x", int64(rng.Intn(5)))
		}
		if rng.Intn(3) == 0 {
			g.SetAttrString(v, "cat", cats[rng.Intn(len(cats))])
		}
	}
	for u := range p.Nodes {
		if rng.Intn(3) == 0 {
			p.Nodes[u].Preds = append(p.Nodes[u].Preds,
				pattern.IntPred("x", pattern.OpGe, int64(rng.Intn(4))))
		}
	}
}

// TestDenseKernelsMatchReferencePlain: the bitset/arena plain engine —
// fresh scratch and warmed pool alike — reproduces the retained
// reference byte for byte.
func TestDenseKernelsMatchReferencePlain(t *testing.T) {
	rng := rand.New(rand.NewSource(9001))
	pool := NewScratchPool()
	for trial := 0; trial < 120; trial++ {
		g, p := randomInstance(rng, 3)
		if trial%2 == 0 {
			addRandomPreds(rng, g, p)
		}
		want := referenceSimulateSeeded(g, p, candidates(g, p, true))
		if got := Simulate(g, p, Options{}); !equalResults(got, want) {
			t.Fatalf("trial %d: dense plain result differs\nref:   %v\ndense: %v", trial, want, got)
		}
		// Same query through the warmed pool, twice: a scratch that leaks
		// state across queries would diverge here.
		for round := 0; round < 2; round++ {
			if got := Simulate(g, p, Options{Pool: pool}); !equalResults(got, want) {
				t.Fatalf("trial %d round %d: pooled plain result differs", trial, round)
			}
		}
	}
}

// TestDenseKernelsMatchReferenceBounded: bounded fixpoint + distance
// enumeration at workers 1/2/4/8.
func TestDenseKernelsMatchReferenceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9002))
	pool := NewScratchPool()
	for trial := 0; trial < 80; trial++ {
		g, p := randomInstance(rng, 3)
		loosenBounds(rng, p)
		want := referenceSimulateBounded(g, p, candidates(g, p, false))
		for _, w := range []int{1, 2, 4, 8} {
			got := Simulate(g, p, Options{Workers: w, Pool: pool, Seeds: candidates(g, p, false)})
			if !equalResults(got, want) {
				t.Fatalf("trial %d workers %d: dense bounded result differs\nref:   %v\ndense: %v",
					trial, w, want, got)
			}
		}
	}
}

// TestDenseKernelsMatchReferenceDual: dual fixpoint, plus the strong
// engine's per-ball scratch reuse against a per-ball reference.
func TestDenseKernelsMatchReferenceDual(t *testing.T) {
	rng := rand.New(rand.NewSource(9003))
	pool := NewScratchPool()
	for trial := 0; trial < 100; trial++ {
		g, p := randomInstance(rng, 3)
		if trial%2 == 0 {
			addRandomPreds(rng, g, p)
		}
		want := referenceSimulateDual(g, p)
		if got := SimulateDual(g, p, Options{}); !equalResults(got, want) {
			t.Fatalf("trial %d: dense dual result differs\nref:   %v\ndense: %v", trial, want, got)
		}
		if got := SimulateDual(g, p, Options{Pool: pool}); !equalResults(got, want) {
			t.Fatalf("trial %d: pooled dual result differs", trial)
		}
	}
}

// TestCondKeyUnambiguous: the memoization key must distinguish every
// pair of semantically different conditions — in particular ones whose
// naive concatenation collides (regression: "a1<3" vs "a!=23" keyed
// identically before length-prefixing).
func TestCondKeyUnambiguous(t *testing.T) {
	conds := []struct {
		n       pattern.Node
		needOut bool
	}{
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.IntPred("a1", pattern.OpLt, 3)}}, false},
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.IntPred("a", pattern.OpNe, 23)}}, false},
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.IntPred("a", pattern.OpLt, 3)}}, false},
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.IntPred("a", pattern.OpLt, 3)}}, true},
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.StrPred("a", pattern.OpEq, "3")}}, false},
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.IntPred("a", pattern.OpEq, 3)}}, false},
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.IntPred("a", pattern.OpEq, 12), pattern.IntPred("abc", pattern.OpEq, 4)}}, false},
		{pattern.Node{Label: "A", Preds: []pattern.Predicate{pattern.IntPred("a", pattern.OpEq, 123), pattern.IntPred("bcde", pattern.OpEq, 4)}}, false},
		{pattern.Node{Label: "A!", Preds: nil}, false},
		{pattern.Node{Label: "A", Preds: nil}, true},
		{pattern.Node{Label: "A", Preds: nil}, false},
	}
	var sb strings.Builder
	seen := map[string]int{}
	for i := range conds {
		key := condKey(&sb, &conds[i].n, conds[i].needOut)
		if j, dup := seen[key]; dup {
			t.Fatalf("conditions %d and %d share key %q", j, i, key)
		}
		seen[key] = i
	}
}

// TestCandidateSeedsMatchPerPattern: family-memoized candidate seeding
// is exactly per-pattern seeding, for both prune modes.
func TestCandidateSeedsMatchPerPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(9004))
	for trial := 0; trial < 60; trial++ {
		g, p1 := randomInstance(rng, 3)
		_, p2 := randomInstance(rng, 3)
		if trial%2 == 0 {
			addRandomPreds(rng, g, p1)
		}
		if trial%3 == 0 {
			loosenBounds(rng, p2)
		}
		pats := []*pattern.Pattern{p1, p2, p1}
		for _, prune := range []bool{true, false} {
			for _, w := range []int{1, 4} {
				seeds := CandidateSeeds(context.Background(), g, pats, w, prune)
				for pi, p := range pats {
					want := candidates(g, p, prune && p.IsPlain())
					if len(seeds[pi]) != len(want) {
						t.Fatalf("trial %d: seed arity differs", trial)
					}
					for u := range want {
						if len(seeds[pi][u]) != len(want[u]) {
							t.Fatalf("trial %d pat %d node %d: %v vs %v", trial, pi, u, want[u], seeds[pi][u])
						}
						for i := range want[u] {
							if seeds[pi][u][i] != want[u][i] {
								t.Fatalf("trial %d pat %d node %d: %v vs %v", trial, pi, u, want[u], seeds[pi][u])
							}
						}
					}
				}
			}
		}
	}
}
