package generator

// View definition sets for each dataset, mirroring Section VII's setup:
// 12 views per real-life-like dataset (Fig. 7 shows the YouTube ones) and
// 22 views over the synthetic alphabet. The views double as the building
// blocks of the query workloads (GlueQuery), exactly as the paper's
// queries are answerable from its views.
//
// View conditions are deliberately selective so that materialized
// extensions stay a small fraction of |G| (the paper reports 14.4% for
// Amazon, 12% for Citation and 4% for YouTube) — that is the regime in
// which answering from views pays off. The synthetic set contains
// sub-pattern/super-pattern families (as in Fig. 4, where V1 ⊂ V4 ⊂ V6),
// ordered small-to-large, so minimal and minimum containment genuinely
// differ (Exp-3, Fig. 8(h)).

import (
	"fmt"
	"math/rand"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// ytCond is the reusable pool of node conditions appearing in the Fig. 7
// views: categories combined with rate/visits/age/length thresholds.
// (Rates are stored ×10: R>="4" in the paper reads rate>=40 here.)
func ytCond(name string) (string, []pattern.Predicate) {
	switch name {
	case "music":
		return "video", []pattern.Predicate{pattern.StrPred("category", pattern.OpEq, "Music")}
	case "musicTop":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "Music"),
			pattern.IntPred("rate", pattern.OpGe, 40),
		}
	case "sports":
		return "video", []pattern.Predicate{pattern.StrPred("category", pattern.OpEq, "Sports")}
	case "sportsHot":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "Sports"),
			pattern.IntPred("visits", pattern.OpGe, 10000),
		}
	case "comedy":
		return "video", []pattern.Predicate{pattern.StrPred("category", pattern.OpEq, "Comedy")}
	case "news":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "News"),
			pattern.IntPred("age", pattern.OpLe, 500),
		}
	case "ent":
		return "video", []pattern.Predicate{pattern.StrPred("category", pattern.OpEq, "Ent.")}
	case "entViral":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "Ent."),
			pattern.IntPred("visits", pattern.OpGe, 10000),
		}
	case "filmLong":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "Film"),
			pattern.IntPred("length", pattern.OpGe, 200),
		}
	case "comedyShort":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "Comedy"),
			pattern.IntPred("length", pattern.OpLe, 600),
		}
	case "gamingTop":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "Gaming"),
			pattern.IntPred("rate", pattern.OpGe, 35),
		}
	case "peopleFresh":
		return "video", []pattern.Predicate{
			pattern.StrPred("category", pattern.OpEq, "People"),
			pattern.IntPred("age", pattern.OpLe, 700),
		}
	default:
		panic("generator: unknown youtube condition " + name)
	}
}

// vb is a small DSL for building a view from condition names and edges.
func vb(name string, conds []string, edges [][2]int, condOf func(string) (string, []pattern.Predicate)) *view.Definition {
	p := pattern.New(name)
	for i, c := range conds {
		label, preds := condOf(c)
		p.AddNode(fmt.Sprintf("%s%d", c, i), label, preds...)
	}
	for _, e := range edges {
		p.AddEdge(e[0], e[1])
	}
	if err := p.Validate(); err != nil {
		panic("generator: bad view " + name + ": " + err.Error())
	}
	return view.Define(name, p)
}

// YouTubeViews returns the 12 recommendation-network views (Fig. 7
// style): small DAGs and cycles over category/rate/visits/age/length
// conditions. Every condition is category-anchored, keeping |V(G)| a few
// percent of |G| as in the paper.
func YouTubeViews() *view.Set {
	c := ytCond
	return view.NewSet(
		vb("P1", []string{"musicTop", "music"}, [][2]int{{0, 1}}, c),
		vb("P2", []string{"sportsHot", "sports"}, [][2]int{{0, 1}}, c),
		vb("P3", []string{"news", "entViral"}, [][2]int{{0, 1}}, c),
		vb("P4", []string{"comedy", "comedyShort"}, [][2]int{{0, 1}}, c),
		vb("P5", []string{"musicTop", "music", "music"}, [][2]int{{0, 1}, {1, 2}, {2, 0}}, c),
		vb("P6", []string{"ent", "entViral"}, [][2]int{{0, 1}, {1, 0}}, c),
		vb("P7", []string{"ent", "filmLong"}, [][2]int{{0, 1}}, c),
		vb("P8", []string{"sports", "sports", "sportsHot"}, [][2]int{{0, 1}, {1, 2}}, c),
		vb("P9", []string{"gamingTop", "gamingTop"}, [][2]int{{0, 1}}, c),
		vb("P10", []string{"comedy", "comedyShort", "comedy"}, [][2]int{{0, 1}, {1, 2}, {2, 0}}, c),
		vb("P11", []string{"peopleFresh", "music"}, [][2]int{{0, 1}}, c),
		vb("P12", []string{"entViral", "ent", "filmLong"}, [][2]int{{0, 1}, {0, 2}}, c),
	)
}

func amzCond(name string) (string, []pattern.Predicate) {
	switch name {
	case "popBook":
		return "Book", []pattern.Predicate{pattern.IntPred("salesrank", pattern.OpLe, 200000)}
	case "bestseller":
		return "Book", []pattern.Predicate{pattern.IntPred("salesrank", pattern.OpLe, 50000)}
	case "nicheBook":
		return "Book", []pattern.Predicate{pattern.IntPred("salesrank", pattern.OpGe, 800000)}
	case "popMusic":
		return "Music", []pattern.Predicate{pattern.IntPred("salesrank", pattern.OpLe, 300000)}
	case "popDVD":
		return "DVD", []pattern.Predicate{pattern.IntPred("salesrank", pattern.OpLe, 300000)}
	case "video":
		return "Video", nil
	case "toy":
		return "Toy", nil
	case "game":
		return "Game", nil
	default:
		panic("generator: unknown amazon condition " + name)
	}
}

// AmazonViews returns 12 frequent co-purchase patterns (the paper
// generated its Amazon views as frequent patterns following [27]). The
// salesrank thresholds keep extensions around a tenth of |G|, like the
// paper's 14.4%.
func AmazonViews() *view.Set {
	c := amzCond
	return view.NewSet(
		vb("A1", []string{"bestseller", "popBook"}, [][2]int{{0, 1}}, c),
		vb("A2", []string{"popBook", "popMusic"}, [][2]int{{0, 1}}, c),
		vb("A3", []string{"popMusic", "popBook"}, [][2]int{{0, 1}}, c),
		vb("A4", []string{"popBook", "popDVD"}, [][2]int{{0, 1}}, c),
		vb("A5", []string{"popDVD", "video"}, [][2]int{{0, 1}}, c),
		vb("A6", []string{"bestseller", "bestseller"}, [][2]int{{0, 1}}, c),
		vb("A7", []string{"popBook", "popBook", "popBook"}, [][2]int{{0, 1}, {1, 2}}, c),
		vb("A8", []string{"popMusic", "popMusic"}, [][2]int{{0, 1}, {1, 0}}, c),
		vb("A9", []string{"bestseller", "popMusic", "popDVD"}, [][2]int{{0, 1}, {0, 2}}, c),
		vb("A10", []string{"popDVD", "popDVD"}, [][2]int{{0, 1}}, c),
		vb("A11", []string{"nicheBook", "popBook"}, [][2]int{{0, 1}}, c),
		vb("A12", []string{"toy", "game"}, [][2]int{{0, 1}}, c),
	)
}

func citCond(name string) (string, []pattern.Predicate) {
	switch name {
	case "db", "ai", "se", "bio", "ml", "net", "th":
		return map[string]string{
			"db": "DB", "ai": "AI", "se": "SE", "bio": "Bio",
			"ml": "ML", "net": "Net", "th": "Th",
		}[name], nil
	case "dbRecent":
		return "DB", []pattern.Predicate{pattern.IntPred("year", pattern.OpGe, 2000)}
	case "aiRecent":
		return "AI", []pattern.Predicate{pattern.IntPred("year", pattern.OpGe, 2000)}
	case "mlClassic":
		return "ML", []pattern.Predicate{pattern.IntPred("year", pattern.OpLe, 1995)}
	default:
		panic("generator: unknown citation condition " + name)
	}
}

// CitationViews returns 12 views over the citation stand-in ("papers and
// authors in computer science"); all acyclic, as citations are.
func CitationViews() *view.Set {
	c := citCond
	return view.NewSet(
		vb("C1", []string{"dbRecent", "db"}, [][2]int{{0, 1}}, c),
		vb("C2", []string{"db", "ai"}, [][2]int{{0, 1}}, c),
		vb("C3", []string{"aiRecent", "ml"}, [][2]int{{0, 1}}, c),
		vb("C4", []string{"ml", "ai"}, [][2]int{{0, 1}}, c),
		vb("C5", []string{"se", "db"}, [][2]int{{0, 1}}, c),
		vb("C6", []string{"db", "mlClassic"}, [][2]int{{0, 1}}, c),
		vb("C7", []string{"dbRecent", "db", "th"}, [][2]int{{0, 1}, {1, 2}}, c),
		vb("C8", []string{"aiRecent", "ml", "th"}, [][2]int{{0, 1}, {1, 2}}, c),
		vb("C9", []string{"bio", "aiRecent"}, [][2]int{{0, 1}}, c),
		vb("C10", []string{"net", "net"}, [][2]int{{0, 1}}, c),
		vb("C11", []string{"db", "th"}, [][2]int{{0, 1}}, c),
		vb("C12", []string{"aiRecent", "db", "ml"}, [][2]int{{0, 1}, {0, 2}}, c),
	)
}

// SyntheticViews returns the 22 view definitions over the synthetic
// alphabet of k labels (Section VII uses |Σ| = 10, 22 views). The set is
// deterministic in the seed and structured like Fig. 4: the views are
// connected sub-patterns — 6 single-edge, 8 two-edge, 8 larger — of a few
// shared "universe" patterns, ordered small to large. Because every
// universe edge is covered at several granularities, queries glued from
// these views can be contained by many different subsets, which is what
// separates minimum containment from minimal containment (Fig. 8(h)).
func SyntheticViews(k int, seed int64) *view.Set {
	rng := rand.New(rand.NewSource(seed))

	// Universe patterns: the shapes all views are carved from. Two
	// universes with several edges each keep the carved views densely
	// overlapping, so most universe edges are covered by views of several
	// granularities (the Fig. 4 situation).
	universes := make([]*pattern.Pattern, 2)
	for ui := range universes {
		u := pattern.New(fmt.Sprintf("U%d", ui))
		nv := 6 + rng.Intn(2)
		for j := 0; j < nv; j++ {
			u.AddNode("", syntheticLabel(rng.Intn(k)))
		}
		for j := 1; j < nv; j++ {
			t := rng.Intn(j)
			if rng.Intn(2) == 0 {
				u.AddEdge(t, j)
			} else {
				u.AddEdge(j, t)
			}
		}
		for len(u.Edges) < nv+3 {
			a, b := rng.Intn(nv), rng.Intn(nv)
			if a != b && !hasEdge(u, a, b) {
				u.AddEdge(a, b)
			}
		}
		// Half the universes get a directed 2-cycle, for cyclic views.
		if ui%2 == 0 {
			a, b := rng.Intn(nv), rng.Intn(nv)
			if a != b && !hasEdge(u, a, b) && !hasEdge(u, b, a) {
				u.AddEdge(a, b)
				u.AddEdge(b, a)
			}
		}
		universes[ui] = u
	}

	// subPattern carves a connected sub-pattern with nE edges out of a
	// universe: grow an edge set from a random seed edge along shared
	// endpoints, then keep exactly the incident nodes.
	subPattern := func(u *pattern.Pattern, name string, nE int) *pattern.Pattern {
		chosen := map[int]bool{rng.Intn(len(u.Edges)): true}
		for len(chosen) < nE {
			// Candidate edges sharing a node with the chosen set.
			var cands []int
			inNodes := map[int]bool{}
			for ei := range chosen {
				inNodes[u.Edges[ei].From] = true
				inNodes[u.Edges[ei].To] = true
			}
			for ei, e := range u.Edges {
				if !chosen[ei] && (inNodes[e.From] || inNodes[e.To]) {
					cands = append(cands, ei)
				}
			}
			if len(cands) == 0 {
				break
			}
			chosen[cands[rng.Intn(len(cands))]] = true
		}
		p := pattern.New(name)
		nodeMap := map[int]int{}
		mapNode := func(ui int) int {
			if v, ok := nodeMap[ui]; ok {
				return v
			}
			v := p.AddNode("", u.Nodes[ui].Label)
			nodeMap[ui] = v
			return v
		}
		// Number the nodes in ascending edge order: ranging over the map
		// would make the pattern differ from run to run for one seed.
		for ei, e := range u.Edges {
			if chosen[ei] {
				p.AddEdge(mapNode(e.From), mapNode(e.To))
			}
		}
		return p
	}

	defs := make([]*view.Definition, 0, 22)
	add := func(nE int) {
		u := universes[rng.Intn(len(universes))]
		p := subPattern(u, fmt.Sprintf("S%d", len(defs)+1), nE)
		defs = append(defs, view.Define("", p))
	}
	for i := 0; i < 6; i++ { // singles
		add(1)
	}
	for i := 0; i < 8; i++ { // mediums
		add(2)
	}
	for i := 0; i < 8; i++ { // larges
		add(3 + rng.Intn(2))
	}
	return view.NewSet(defs...)
}

func hasEdge(p *pattern.Pattern, a, b int) bool {
	for _, e := range p.Edges {
		if e.From == a && e.To == b {
			return true
		}
	}
	return false
}

// BoundedSet returns a copy of vs with every edge bound of every view set
// to b; used to derive the bounded-experiment view sets (Exp-4).
func BoundedSet(vs *view.Set, b pattern.Bound) *view.Set {
	defs := make([]*view.Definition, vs.Card())
	for i, d := range vs.Defs {
		defs[i] = view.Define(d.Name, d.Pattern.WithBounds(b))
	}
	return view.NewSet(defs...)
}
