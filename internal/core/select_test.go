package core

import (
	"math/rand"
	"testing"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// TestSelectViewsGreedy pins the greedy cover itself: the view covering
// the most outstanding edges is taken first, a view covering nothing is
// never chosen, and an uncoverable workload still gets the best partial
// selection.
func TestSelectViewsGreedy(t *testing.T) {
	// star builds a view whose root label has one out-edge per target.
	star := func(root string, targets ...string) *view.Definition {
		p := pattern.New("v" + root)
		r := p.AddNode("r", root)
		for _, l := range targets {
			p.AddEdge(r, p.AddNode("", l))
		}
		return view.Define("", p)
	}
	vA, vB, vC := star("A", "B", "C"), star("B", "C"), star("C", "D")

	q := pattern.New("q")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddEdge(a, b)
	q.AddEdge(a, c)
	q.AddEdge(b, c)

	chosen, ok, err := SelectViews([]*pattern.Pattern{q}, view.NewSet(vA, vB, vC))
	if err != nil || !ok {
		t.Fatalf("coverable workload reported as uncoverable: %v %v", ok, err)
	}
	// Edges from A (2) and from B (1): views A and B suffice; C never
	// covers anything.
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 1 {
		t.Fatalf("chosen = %v, want [0 1]", chosen)
	}

	// Make edge (b,c) uncoverable by dropping view B.
	chosen, ok, err = SelectViews([]*pattern.Pattern{q}, view.NewSet(vA, vC))
	if err != nil {
		t.Fatalf("SelectViews: %v", err)
	}
	if ok {
		t.Fatalf("uncoverable workload reported as coverable")
	}
	if len(chosen) != 1 || chosen[0] != 0 {
		t.Fatalf("partial selection = %v, want [0]", chosen)
	}
}

// TestSelectViewsCoversWorkload: the chosen subset contains every
// workload query; dropping to fewer views than chosen loses some query.
func TestSelectViewsCoversWorkload(t *testing.T) {
	vs := fig4Views()
	q1 := fig4Qs()
	// A second query: just the A->B, A->C prong.
	q2 := pattern.New("q2")
	a := q2.AddNode("a", "A")
	q2.AddEdge(a, q2.AddNode("b", "B"))
	q2.AddEdge(a, q2.AddNode("c", "C"))

	chosen, ok, err := SelectViews([]*pattern.Pattern{q1, q2}, vs)
	if err != nil || !ok {
		t.Fatalf("SelectViews: %v %v", ok, err)
	}
	sub := vs.Subset(chosen)
	for _, q := range []*pattern.Pattern{q1, q2} {
		if _, okC, _ := Contain(q, sub, Options{}); !okC {
			t.Fatalf("chosen views %v do not contain %s", chosen, q.Name)
		}
	}
	// The Fig. 4 instance is coverable with 2 views (V5, V6); the greedy
	// two-level cover must not need more than the per-query minimum sum.
	if len(chosen) > 3 {
		t.Fatalf("selection too large: %v", chosen)
	}
}

func TestSelectViewsImpossible(t *testing.T) {
	vs := fig4Views()
	q := fig4Qs()
	z := q.AddNode("z", "Z")
	q.AddEdge(q.NodeIndex("e"), z) // E -> Z: no view mentions Z
	chosen, ok, err := SelectViews([]*pattern.Pattern{q}, vs)
	if err != nil {
		t.Fatalf("SelectViews: %v", err)
	}
	if ok {
		t.Fatalf("workload cannot be coverable")
	}
	// It still covers what it can.
	if len(chosen) == 0 {
		t.Fatalf("partial selection should not be empty")
	}
}

// TestSelectViewsRandomWorkload: glued queries are always coverable, and
// the selection stays no larger than the union of per-query minimums.
func TestSelectViewsRandomWorkload(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		vs := randomViews(rng, labels, false)
		var workload []*pattern.Pattern
		unionOfMin := map[int]bool{}
		for i := 0; i < 3; i++ {
			q := glueContainedQuery(rng, vs, rng.Intn(2))
			if q == nil {
				continue
			}
			workload = append(workload, q)
			mnm, _, ok, _ := Minimum(q, vs)
			if !ok {
				t.Fatalf("glued query not contained")
			}
			for _, v := range mnm {
				unionOfMin[v] = true
			}
		}
		if len(workload) == 0 {
			continue
		}
		chosen, ok, err := SelectViews(workload, vs)
		if err != nil || !ok {
			t.Fatalf("trial %d: SelectViews: %v %v", trial, ok, err)
		}
		if len(chosen) > len(unionOfMin) {
			t.Fatalf("trial %d: selection %v larger than union of minimums %v",
				trial, chosen, unionOfMin)
		}
		sub := vs.Subset(chosen)
		for _, q := range workload {
			if _, okC, _ := Contain(q, sub, Options{}); !okC {
				t.Fatalf("trial %d: workload query lost coverage", trial)
			}
		}
	}
}
