package core

import (
	"context"
	"math/rand"
	"testing"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

func TestPatternDistancesPlain(t *testing.T) {
	// a -> b -> c, a -> c: plain weights (all 1).
	q := pattern.New("q")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddEdge(a, b)
	q.AddEdge(b, c)
	q.AddEdge(a, c)
	wd, reach := pattern.Distances(q)
	if wd[a][b] != 1 || wd[b][c] != 1 || wd[a][c] != 1 {
		t.Fatalf("direct distances wrong: %v", wd)
	}
	if wd[c][a] < pattern.InfWeight {
		t.Fatalf("c cannot reach a")
	}
	if !reach[a][c] || reach[c][a] {
		t.Fatalf("reach wrong")
	}
	// Diagonal: no cycle => unreachable from self.
	if wd[a][a] < pattern.InfWeight || reach[a][a] {
		t.Fatalf("acyclic diagonal must be unreachable")
	}
}

func TestPatternDistancesWeighted(t *testing.T) {
	// a -(3)-> b -(2)-> c and a -(7)-> c: shortest a->c is 5.
	q := pattern.New("q")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddBoundedEdge(a, b, 3)
	q.AddBoundedEdge(b, c, 2)
	q.AddBoundedEdge(a, c, 7)
	wd, _ := pattern.Distances(q)
	if wd[a][c] != 5 {
		t.Fatalf("wdist(a,c) = %d, want 5", wd[a][c])
	}
}

func TestPatternDistancesUnboundedEdge(t *testing.T) {
	// a -(*)-> b -(2)-> c: a reaches c but with infinite weight.
	q := pattern.New("q")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddBoundedEdge(a, b, pattern.Unbounded)
	q.AddBoundedEdge(b, c, 2)
	wd, reach := pattern.Distances(q)
	if wd[a][c] < pattern.InfWeight {
		t.Fatalf("a->c through * must have infinite weight, got %d", wd[a][c])
	}
	if !reach[a][c] {
		t.Fatalf("a must still reach c")
	}
	if wd[b][c] != 2 {
		t.Fatalf("wdist(b,c) = %d", wd[b][c])
	}
}

func TestPatternDistancesCycle(t *testing.T) {
	// a -(2)-> b -(3)-> a: diagonal = cycle weight 5.
	q := pattern.New("q")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	q.AddBoundedEdge(a, b, 2)
	q.AddBoundedEdge(b, a, 3)
	wd, reach := pattern.Distances(q)
	if wd[a][a] != 5 || wd[b][b] != 5 {
		t.Fatalf("cycle diagonal = %d/%d, want 5/5", wd[a][a], wd[b][b])
	}
	if !reach[a][a] || !reach[b][b] {
		t.Fatalf("cycle reach wrong")
	}
}

func TestViewMatchPairs(t *testing.T) {
	// Fig. 4's V6 over Qs: pairs per view edge must be the expected ones.
	q := fig4Qs()
	v6 := pattern.New("V6")
	a := v6.AddNode("a", "A")
	b := v6.AddNode("b", "B")
	c := v6.AddNode("c", "C")
	d := v6.AddNode("d", "D")
	v6.AddEdge(a, b)
	v6.AddEdge(a, c)
	v6.AddEdge(c, d)
	vm := ComputeViewMatch(q, view.Define("", v6))
	// View edge 0 (a->b) maps to query pair (A,B) = nodes (0,1).
	if len(vm.PairsPerEdge[0]) != 1 || vm.PairsPerEdge[0][0] != [2]int{0, 1} {
		t.Fatalf("pairs for view edge 0: %v", vm.PairsPerEdge[0])
	}
	if len(vm.PairsPerEdge[2]) != 1 || vm.PairsPerEdge[2][0] != [2]int{2, 3} {
		t.Fatalf("pairs for view edge 2: %v", vm.PairsPerEdge[2])
	}
	if vm.CoveredCount() != 3 {
		t.Fatalf("CoveredCount = %d", vm.CoveredCount())
	}
}

func TestViewMatchEmptyWhenViewNodeUnmatched(t *testing.T) {
	q := fig4Qs()
	v := pattern.New("v")
	v.AddEdge(v.AddNode("z", "Z"), v.AddNode("b", "B"))
	vm := ComputeViewMatch(q, view.Define("", v))
	if vm.CoveredCount() != 0 {
		t.Fatalf("view with unmatched node must have empty view match")
	}
}

// bruteMinimumSize finds the true minimum containing subset by exhaustive
// search (small card(V) only).
func bruteMinimumSize(q *pattern.Pattern, vs *view.Set) int {
	vms, _ := ComputeViewMatches(context.Background(), q, vs)
	n := vs.Card()
	best := -1
	for mask := 1; mask < 1<<n; mask++ {
		covered := make([]bool, len(q.Edges))
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for qi, c := range vms[i].Covered {
				if c {
					covered[qi] = true
				}
			}
		}
		all := true
		for _, c := range covered {
			if !c {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		size := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size++
			}
		}
		if best < 0 || size < best {
			best = size
		}
	}
	return best
}

// TestMinimumNearOptimal: the greedy result is within the ln(|Ep|)+1
// set-cover bound of the brute-force optimum on random instances, and
// never larger than minimal.
func TestMinimumNearOptimal(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(73))
	tested := 0
	for trial := 0; trial < 200 && tested < 60; trial++ {
		vs := randomViews(rng, labels, false)
		if vs.Card() > 8 {
			continue
		}
		q := glueContainedQuery(rng, vs, rng.Intn(3))
		if q == nil {
			continue
		}
		mnm, _, ok, err := Minimum(q, vs)
		if err != nil || !ok {
			t.Fatalf("Minimum: %v %v", ok, err)
		}
		opt := bruteMinimumSize(q, vs)
		if opt < 0 {
			t.Fatalf("brute force found no cover but Minimum did")
		}
		// ln(|Ep|)+1 bound, generously rounded up.
		bound := opt * (2 + len(q.Edges)/2)
		if len(mnm) > bound {
			t.Fatalf("trial %d: greedy %d far from optimum %d", trial, len(mnm), opt)
		}
		mnl, _, _, _ := Minimal(q, vs)
		if len(mnm) > len(mnl) {
			t.Fatalf("trial %d: minimum (%d) larger than minimal (%d)", trial, len(mnm), len(mnl))
		}
		tested++
	}
	if tested < 30 {
		t.Fatalf("only %d usable trials", tested)
	}
}

// TestExample5LambdaShape: λ built from the full Fig. 4 view set maps
// each edge to every covering view edge.
func TestExample5LambdaShape(t *testing.T) {
	q := fig4Qs()
	vs := fig4Views()
	l, ok, err := Contain(q, vs, Options{})
	if err != nil || !ok {
		t.Fatalf("Contain: %v %v", ok, err)
	}
	// Edge 3 = (C,D) is covered by V1, V4 and V6 (indices 0, 3, 5).
	var views []int
	for _, ref := range l.PerEdge[3] {
		views = append(views, ref.View)
	}
	want := map[int]bool{0: true, 3: true, 5: true}
	if len(views) != 3 {
		t.Fatalf("λ(C,D) views = %v, want {0,3,5}", views)
	}
	for _, v := range views {
		if !want[v] {
			t.Fatalf("λ(C,D) views = %v, want {0,3,5}", views)
		}
	}
}
