package core

import (
	"testing"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// fig4Qs builds the Fig. 4 query: edges (A,B),(A,C),(B,D),(C,D),(B,E).
// Edge indices: 0:(A,B) 1:(A,C) 2:(B,D) 3:(C,D) 4:(B,E).
func fig4Qs() *pattern.Pattern {
	p := pattern.New("Qs")
	a := p.AddNode("a", "A")
	b := p.AddNode("b", "B")
	c := p.AddNode("c", "C")
	d := p.AddNode("d", "D")
	e := p.AddNode("e", "E")
	p.AddEdge(a, b)
	p.AddEdge(a, c)
	p.AddEdge(b, d)
	p.AddEdge(c, d)
	p.AddEdge(b, e)
	return p
}

// fig4Views builds V1..V7 of Fig. 4 (indices 0..6).
func fig4Views() *view.Set {
	v1 := pattern.New("V1") // C -> D
	v1.AddEdge(v1.AddNode("c", "C"), v1.AddNode("d", "D"))

	v2 := pattern.New("V2") // B -> E
	v2.AddEdge(v2.AddNode("b", "B"), v2.AddNode("e", "E"))

	v3 := pattern.New("V3") // A -> B, A -> C
	a3 := v3.AddNode("a", "A")
	v3.AddEdge(a3, v3.AddNode("b", "B"))
	v3.AddEdge(a3, v3.AddNode("c", "C"))

	v4 := pattern.New("V4") // B -> D, C -> D
	d4 := -1
	b4 := v4.AddNode("b", "B")
	c4 := v4.AddNode("c", "C")
	d4 = v4.AddNode("d", "D")
	v4.AddEdge(b4, d4)
	v4.AddEdge(c4, d4)

	v5 := pattern.New("V5") // B -> D, B -> E
	b5 := v5.AddNode("b", "B")
	v5.AddEdge(b5, v5.AddNode("d", "D"))
	v5.AddEdge(b5, v5.AddNode("e", "E"))

	v6 := pattern.New("V6") // A -> B, A -> C, C -> D
	a6 := v6.AddNode("a", "A")
	b6 := v6.AddNode("b", "B")
	c6 := v6.AddNode("c", "C")
	d6 := v6.AddNode("d", "D")
	v6.AddEdge(a6, b6)
	v6.AddEdge(a6, c6)
	v6.AddEdge(c6, d6)

	v7 := pattern.New("V7") // A -> B, A -> C, B -> D
	a7 := v7.AddNode("a", "A")
	b7 := v7.AddNode("b", "B")
	c7 := v7.AddNode("c", "C")
	d7 := v7.AddNode("d", "D")
	v7.AddEdge(a7, b7)
	v7.AddEdge(a7, c7)
	v7.AddEdge(b7, d7)

	return view.NewSet(
		view.Define("", v1), view.Define("", v2), view.Define("", v3),
		view.Define("", v4), view.Define("", v5), view.Define("", v6),
		view.Define("", v7),
	)
}

// TestExample5ViewMatches pins the M^Qs_Vi table of Example 5.
func TestExample5ViewMatches(t *testing.T) {
	q := fig4Qs()
	vs := fig4Views()
	want := [][]int{
		{3},       // V1: {(C,D)}
		{4},       // V2: {(B,E)}
		{0, 1},    // V3: {(A,B),(A,C)}
		{2, 3},    // V4: {(B,D),(C,D)}
		{2, 4},    // V5: {(B,D),(B,E)}
		{0, 1, 3}, // V6: {(A,B),(A,C),(C,D)}
		{0, 1, 2}, // V7: {(A,B),(A,C),(B,D)}
	}
	for i, d := range vs.Defs {
		vm := ComputeViewMatch(q, d)
		var got []int
		for qi, c := range vm.Covered {
			if c {
				got = append(got, qi)
			}
		}
		if len(got) != len(want[i]) {
			t.Fatalf("M^Qs_V%d = %v, want %v", i+1, got, want[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("M^Qs_V%d = %v, want %v", i+1, got, want[i])
			}
		}
	}
}

// TestExample5Contain: Qs ⊑ {V1..V7} and ⊑ {V1..V4}, but not ⊑ {V1,V2}.
func TestExample5Contain(t *testing.T) {
	q := fig4Qs()
	vs := fig4Views()
	l, ok, err := Contain(q, vs, Options{})
	if err != nil || !ok {
		t.Fatalf("Contain = %v, %v", ok, err)
	}
	// λ must cover every query edge.
	for qi, refs := range l.PerEdge {
		if len(refs) == 0 {
			t.Fatalf("λ(%d) empty", qi)
		}
	}
	_, ok, err = Contain(q, vs.Subset([]int{0, 1}), Options{})
	if err != nil || ok {
		t.Fatalf("{V1,V2} should not contain Qs: %v %v", ok, err)
	}
}

// TestExample6Minimal: minimal returns {V2,V3,V4} after eliminating V1.
func TestExample6Minimal(t *testing.T) {
	q := fig4Qs()
	vs := fig4Views()
	got, l, ok, err := Minimal(q, vs)
	if err != nil || !ok {
		t.Fatalf("Minimal failed: %v %v", ok, err)
	}
	want := []int{1, 2, 3} // V2, V3, V4 (0-based)
	if len(got) != len(want) {
		t.Fatalf("Minimal = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Minimal = %v, want %v", got, want)
		}
	}
	// λ restricted to the subset covers everything.
	for qi, refs := range l.PerEdge {
		if len(refs) == 0 {
			t.Fatalf("λ(%d) empty after Minimal", qi)
		}
		for _, r := range refs {
			if r.View != 1 && r.View != 2 && r.View != 3 {
				t.Fatalf("λ references unchosen view %d", r.View)
			}
		}
	}
}

// TestExample7Minimum: greedy picks V6 (α=0.6) then V5 (α=0.4).
func TestExample7Minimum(t *testing.T) {
	q := fig4Qs()
	vs := fig4Views()
	got, _, ok, err := Minimum(q, vs)
	if err != nil || !ok {
		t.Fatalf("Minimum failed: %v %v", ok, err)
	}
	want := []int{4, 5} // V5, V6 (0-based, sorted)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Minimum = %v, want %v", got, want)
	}
}

// TestMinimalIsMinimal: property — removing any chosen view breaks
// containment.
func TestMinimalIsMinimal(t *testing.T) {
	q := fig4Qs()
	vs := fig4Views()
	chosen, _, ok, _ := Minimal(q, vs)
	if !ok {
		t.Fatalf("not contained")
	}
	for drop := range chosen {
		var rest []int
		for i, v := range chosen {
			if i != drop {
				rest = append(rest, v)
			}
		}
		_, ok, err := Contain(q, vs.Subset(rest), Options{})
		if err != nil {
			t.Fatalf("Contain: %v", err)
		}
		if ok {
			t.Fatalf("dropping view %d keeps containment: subset not minimal", chosen[drop])
		}
	}
}

// TestMinimumNotLargerThanMinimal on the Fig. 4 instance (2 < 3).
func TestMinimumNotLargerThanMinimal(t *testing.T) {
	q := fig4Qs()
	vs := fig4Views()
	mnl, _, _, _ := Minimal(q, vs)
	mnm, _, _, _ := Minimum(q, vs)
	if len(mnm) > len(mnl) {
		t.Fatalf("minimum (%d) larger than minimal (%d)", len(mnm), len(mnl))
	}
}

// TestQueryContainment: the single-view special case (Corollary 4).
func TestQueryContainment(t *testing.T) {
	// Q1: A->B. Q2: A->B, A->C. Q1's edge is covered by Q2's (A,B) when
	// Q2 simulates into Q1?? No: view match of Q2 over Q1 needs every Q2
	// node to match in Q1; C has no match, so Q1 ⋢ Q2.
	q1 := pattern.New("q1")
	q1.AddEdge(q1.AddNode("a", "A"), q1.AddNode("b", "B"))
	q2 := pattern.New("q2")
	a := q2.AddNode("a", "A")
	q2.AddEdge(a, q2.AddNode("b", "B"))
	q2.AddEdge(a, q2.AddNode("c", "C"))

	ok, err := QueryContained(q1, q2)
	if err != nil {
		t.Fatalf("QueryContained: %v", err)
	}
	if ok {
		t.Fatalf("q1 should not be contained in q2 (C unmatched)")
	}
	// q2 ⊑ q1? q1 covers only (A,B); q2 also has (A,C): not contained.
	ok, _ = QueryContained(q2, q1)
	if ok {
		t.Fatalf("q2 should not be contained in q1")
	}
	// Identical patterns contain each other.
	ok, _ = QueryContained(q1, q1.Clone())
	if !ok {
		t.Fatalf("q1 ⊑ q1 must hold")
	}
}

// TestContainRejectsEdgelessPattern: single-node queries are rejected
// explicitly (DESIGN.md §2).
func TestContainRejectsEdgelessPattern(t *testing.T) {
	q := pattern.New("single")
	q.AddNode("a", "A")
	vs := fig4Views()
	if _, _, err := Contain(q, vs, Options{}); err == nil {
		t.Fatalf("edge-less pattern should be rejected")
	}
}

// TestContainPredicates: node conditions must be equivalent, not merely
// implied (DESIGN.md §2.7).
func TestContainPredicates(t *testing.T) {
	q := pattern.New("q")
	u := q.AddNode("u", "user")
	v := q.AddNode("v", "video", pattern.IntPred("rate", pattern.OpGe, 4))
	q.AddEdge(u, v)

	// Same condition, written differently: rate > 3 ≡ rate >= 4.
	vEq := pattern.New("veq")
	ue := vEq.AddNode("u", "user")
	ve := vEq.AddNode("v", "video", pattern.IntPred("rate", pattern.OpGt, 3))
	vEq.AddEdge(ue, ve)

	// Strictly weaker condition: rate >= 3.
	vWeak := pattern.New("vweak")
	uw := vWeak.AddNode("u", "user")
	vw := vWeak.AddNode("v", "video", pattern.IntPred("rate", pattern.OpGe, 3))
	vWeak.AddEdge(uw, vw)

	if _, ok, _ := Contain(q, view.NewSet(view.Define("", vEq)), Options{}); !ok {
		t.Fatalf("equivalent predicates should contain")
	}
	if _, ok, _ := Contain(q, view.NewSet(view.Define("", vWeak)), Options{}); ok {
		t.Fatalf("weaker view predicate must not count as containment")
	}
}

// fig6Qb reconstructs the Fig. 6 bounded query (weights per DESIGN.md §3):
// same shape as Fig. 4 with fe(A,B)=2, fe(A,C)=3, fe(B,D)=3, fe(C,D)=3,
// fe(B,E)=1.
func fig6Qb() *pattern.Pattern {
	p := fig4Qs()
	p.Name = "Qb"
	bounds := []pattern.Bound{2, 3, 3, 3, 1}
	for i := range p.Edges {
		p.Edges[i].Bound = bounds[i]
	}
	return p
}

// TestExample9BoundedViewMatches: V3 = {A→B≤3, B→E≤1} covers (A,B) and
// (B,E); V7 with its C→D bound 2 < fe(C,D)=3 yields no cover for (C,D).
func TestExample9BoundedViewMatches(t *testing.T) {
	q := fig6Qb()

	v3 := pattern.New("V3")
	a := v3.AddNode("a", "A")
	b := v3.AddNode("b", "B")
	e := v3.AddNode("e", "E")
	v3.AddBoundedEdge(a, b, 3)
	v3.AddBoundedEdge(b, e, 1)
	vm3 := ComputeViewMatch(q, view.Define("", v3))
	var got []int
	for qi, c := range vm3.Covered {
		if c {
			got = append(got, qi)
		}
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("M^Qb_V3 covers %v, want [0 4] ((A,B),(B,E))", got)
	}

	v7 := pattern.New("V7")
	a7 := v7.AddNode("a", "A")
	b7 := v7.AddNode("b", "B")
	c7 := v7.AddNode("c", "C")
	d7 := v7.AddNode("d", "D")
	v7.AddBoundedEdge(a7, b7, 3)
	v7.AddBoundedEdge(a7, c7, 3)
	v7.AddBoundedEdge(c7, d7, 2) // too tight for fe(C,D)=3
	vm7 := ComputeViewMatch(q, view.Define("", v7))
	if vm7.Covered[3] {
		t.Fatalf("V7 must not cover (C,D): view bound 2 < query bound 3")
	}
}

// TestBoundedCoveringRules exercises the Leq covering rule including *.
func TestBoundedCoveringRules(t *testing.T) {
	mk := func(qb, vb pattern.Bound) bool {
		q := pattern.New("q")
		q.AddBoundedEdge(q.AddNode("a", "A"), q.AddNode("b", "B"), qb)
		v := pattern.New("v")
		v.AddBoundedEdge(v.AddNode("a", "A"), v.AddNode("b", "B"), vb)
		_, ok, err := Contain(q, view.NewSet(view.Define("", v)), Options{})
		if err != nil {
			t.Fatalf("BContain: %v", err)
		}
		return ok
	}
	cases := []struct {
		qb, vb pattern.Bound
		want   bool
	}{
		{1, 1, true},
		{2, 3, true},
		{3, 2, false},
		{2, pattern.Unbounded, true},
		{pattern.Unbounded, pattern.Unbounded, true},
		{pattern.Unbounded, 5, false},
	}
	for _, c := range cases {
		if got := mk(c.qb, c.vb); got != c.want {
			t.Errorf("query bound %s vs view bound %s: contain = %v, want %v", c.qb, c.vb, got, c.want)
		}
	}
}

// TestBMinimalBMinimum runs Minimal and Minimum (the paper's Bminimal and
// Bminimum on bounded input) on the Fig. 6 instance with a
// generously-bounded view family.
func TestBMinimalBMinimum(t *testing.T) {
	q := fig6Qb()
	// Reuse Fig. 4's views with all bounds raised to 3 so they cover the
	// weighted query edges except (A,B) needs ≤3 ✓ and (B,E) needs ≤3 ✓.
	base := fig4Views()
	var defs []*view.Definition
	for _, d := range base.Defs {
		defs = append(defs, view.Define(d.Name, d.Pattern.WithBounds(3)))
	}
	vs := view.NewSet(defs...)

	idx, _, ok, err := Minimal(q, vs)
	if err != nil || !ok {
		t.Fatalf("BMinimal: %v %v", ok, err)
	}
	if len(idx) == 0 {
		t.Fatalf("BMinimal chose nothing")
	}
	mnm, _, ok, err := Minimum(q, vs)
	if err != nil || !ok {
		t.Fatalf("BMinimum: %v %v", ok, err)
	}
	if len(mnm) > len(idx) {
		t.Fatalf("minimum %v larger than minimal %v", mnm, idx)
	}
}
