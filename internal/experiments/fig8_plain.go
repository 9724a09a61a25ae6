package experiments

// Exp-1 and Exp-2: graph pattern matching using views (Fig. 8(a)–(f)).
// Match is direct evaluation [16,21]; MatchJoin_mnl answers with a
// minimal view subset; MatchJoin_min with the greedy minimum subset;
// MatchJoin_nopt is the unranked ablation of Exp-2.

import (
	"fmt"
	"math/rand"

	"graphviews/internal/core"
	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// sizeSpec is a query size (|Vp|, |Ep|).
type sizeSpec struct{ nv, ne int }

func (s sizeSpec) label() string { return fmt.Sprintf("(%d,%d)", s.nv, s.ne) }

// matchSeries names the three lines of a Match-vs-MatchJoin figure; the
// paper prefixes the algorithms for bounded patterns with B.
func matchSeries(bounded bool) []Series {
	b := ""
	if bounded {
		b = "B"
	}
	return []Series{{Name: b + "Match"}, {Name: b + "MatchJoin_mnl"}, {Name: b + "MatchJoin_min"}}
}

// measurePoint adds one x-axis point to a Match / MatchJoin_mnl /
// MatchJoin_min figure: over cfg.queries() glued queries of the given
// size it times direct evaluation against answering from the extensions
// with a minimal and with the greedy minimum view subset (containment
// analysis included, as in the paper), and appends the three averages to
// the figure's series. Bounded workloads take the same path — the
// engines dispatch on the bounds. With cfg.Verify both view-based
// answers are held to direct evaluation.
func (cfg Config) measurePoint(fig *Figure, rng *rand.Rand, g graph.Reader, vs *view.Set, x *view.Extensions, sz sizeSpec) {
	var t [3]float64
	selections := []func(*pattern.Pattern, *view.Set) ([]int, *core.Lambda, bool, error){core.Minimal, core.Minimum}
	for qi := 0; qi < cfg.queries(); qi++ {
		q := generator.GlueQuery(rng, vs, sz.nv, sz.ne)
		var direct *simulation.Result
		t[0] += timeIt(func() { direct = simulation.Simulate(g, q, simulation.Options{}) })
		for i, sel := range selections {
			var ans *simulation.Result
			t[i+1] += timeIt(func() {
				_, l, ok, err := sel(q, vs)
				if err != nil || !ok {
					panic(fmt.Sprintf("experiments: glued query not contained: %v", err))
				}
				ans, _, _ = core.MatchJoin(q, x, l, core.Options{})
			})
			if cfg.Verify && !ans.Equal(direct) {
				panic("experiments: view-based answer diverged from direct evaluation in Fig" + fig.ID)
			}
		}
	}
	for i := range t {
		fig.Series[i].Values = append(fig.Series[i].Values, t[i]/float64(cfg.queries()))
	}
}

// runVaryQs measures Match / MatchJoin_mnl / MatchJoin_min while the
// query size grows over one dataset (the shared engine of Fig. 8(a)-(c)).
func runVaryQs(cfg Config, id, title string, g graph.Reader, vs *view.Set, sizes []sizeSpec, bounds pattern.Bound) *Figure {
	if bounds > 1 {
		vs = generator.BoundedSet(vs, bounds)
	}
	x := cfg.materialize(g, vs)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	fig := &Figure{
		ID:    id,
		Title: title,
		XAxis: "|Qs|=(|Vp|,|Ep|)", YAxis: "seconds",
		Series: matchSeries(bounds > 1),
	}
	if bounds > 1 {
		fig.XAxis = fmt.Sprintf("|Qb|=(|Vp|,|Ep|,%d)", bounds)
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("|G|=(%d,%d), card(V)=%d, |V(G)|=%d pairs (%.1f%% of |G|)",
			g.NumNodes(), g.NumEdges(), vs.Card(), x.TotalEdges(), 100*x.FractionOf(g)))

	for _, sz := range sizes {
		lbl := sz.label()
		if bounds > 1 {
			lbl = fmt.Sprintf("(%d,%d,%d)", sz.nv, sz.ne, bounds)
		}
		fig.XLabels = append(fig.XLabels, lbl)
		cfg.measurePoint(fig, rng, g, vs, x, sz)
	}
	return fig
}

// plainSizes are the query sizes of Fig. 8(a) (Amazon).
var amazonSizes = []sizeSpec{{4, 4}, {4, 6}, {4, 8}, {6, 6}, {6, 9}, {6, 12}, {8, 8}, {8, 12}, {8, 16}}

// citationSizes are used by Fig. 8(b), (c), (j).
var citationSizes = []sizeSpec{{4, 8}, {5, 10}, {6, 12}, {7, 14}, {8, 16}}

// Fig8a: varying |Qs| on the Amazon stand-in.
func Fig8a(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.AmazonLike(548_000/f, 1_780_000/f, cfg.Seed)
	return runVaryQs(cfg, "8a", "Varying |Qs| (Amazon)", cfg.input(g), generator.AmazonViews(), amazonSizes, 1)
}

// Fig8b: varying |Qs| on the Citation stand-in.
func Fig8b(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.CitationLike(1_400_000/f, 3_000_000/f, cfg.Seed)
	return runVaryQs(cfg, "8b", "Varying |Qs| (Citation)", cfg.input(g), generator.CitationViews(), citationSizes, 1)
}

// Fig8c: varying |Qs| on the YouTube stand-in.
func Fig8c(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.YouTubeLike(1_600_000/f, 4_500_000/f, cfg.Seed)
	return runVaryQs(cfg, "8c", "Varying |Qs| (Youtube)", cfg.input(g), generator.YouTubeViews(), citationSizes, 1)
}

// syntheticSweep returns the |V| sweep of Fig. 8(d),(e),(l): 0.3M–1M at
// paper scale, divided by the scale factor otherwise.
func syntheticSweep(s Scale) []int {
	f := s.factor()
	var out []int
	for v := 300_000; v <= 1_000_000; v += 100_000 {
		out = append(out, v/f)
	}
	return out
}

// runVaryG measures a fixed (4,6) query while the synthetic graph grows
// (the shared engine of Fig. 8(d) and (l)).
func runVaryG(cfg Config, id, title string, vs *view.Set, bounded bool, seed int64) *Figure {
	fig := &Figure{ID: id, Title: title, XAxis: "|V| (|E|=2|V|)", YAxis: "seconds", Series: matchSeries(bounded)}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range syntheticSweep(cfg.Scale) {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", n))
		g := cfg.input(generator.Uniform(n, 2*n, 10, cfg.Seed+int64(n)))
		cfg.measurePoint(fig, rng, g, vs, cfg.materialize(g, vs), sizeSpec{4, 6})
	}
	return fig
}

// Fig8d: varying |G| on synthetic graphs, fixed query (4,6).
func Fig8d(cfg Config) *Figure {
	return runVaryG(cfg, "8d", "Varying |G| (synthetic)", generator.SyntheticViews(10, cfg.Seed), false, cfg.Seed+2)
}

// Fig8e: varying |G| and |Qs| together — MatchJoin_min for Q1..Q4 of
// sizes (4,8)..(7,14).
func Fig8e(cfg Config) *Figure {
	vs := generator.SyntheticViews(10, cfg.Seed)
	specs := []sizeSpec{{4, 8}, {5, 10}, {6, 12}, {7, 14}}
	fig := &Figure{
		ID: "8e", Title: "Varying |G| & |Qs| (synthetic)",
		XAxis: "|V| (|E|=2|V|)", YAxis: "seconds",
	}
	for i := range specs {
		fig.Series = append(fig.Series, Series{Name: fmt.Sprintf("MatchJoin_min [Q%d %s]", i+1, specs[i].label())})
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	queries := make([]*pattern.Pattern, len(specs))
	for i, s := range specs {
		queries[i] = generator.GlueQuery(rng, vs, s.nv, s.ne)
	}
	for _, n := range syntheticSweep(cfg.Scale) {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", n))
		g := cfg.input(generator.Uniform(n, 2*n, 10, cfg.Seed+int64(n)))
		x := cfg.materialize(g, vs)
		for i, q := range queries {
			t := timeIt(func() {
				_, l, ok, _ := core.Minimum(q, vs)
				if !ok {
					panic("experiments: glued query not contained")
				}
				core.MatchJoin(q, x, l, core.Options{})
			})
			fig.Series[i].Values = append(fig.Series[i].Values, t)
		}
	}
	return fig
}

// Fig8f: the Exp-2 ablation — the Fig. 2 fixpoint without any visiting
// strategy (MatchJoin_nopt) against the rank-ordered bottom-up strategy
// of Section III (MatchJoin_opt), over densifying graphs |E| = |V|^α,
// α ∈ [1, 1.25]. Both are scan-based so the measured gap isolates the
// revisit savings, which grow with density as the paper reports.
func Fig8f(cfg Config) *Figure {
	vs := generator.SyntheticViews(10, cfg.Seed)
	n := 200_000 / cfg.Scale.factor()
	fig := &Figure{
		ID: "8f", Title: "Varying α (synthetic densification)",
		XAxis: fmt.Sprintf("α (|V|=%d)", n), YAxis: "seconds",
		Series: []Series{{Name: "MatchJoin_nopt"}, {Name: "MatchJoin_opt"}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	nQueries := cfg.queries() * 2 // points are cheap; average harder
	for _, alpha := range []float64{1.0, 1.05, 1.10, 1.15, 1.20, 1.25} {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%.2f", alpha))
		g := cfg.input(generator.Densified(n, alpha, 10, cfg.Seed+int64(alpha*100)))
		x := cfg.materialize(g, vs)
		var tNopt, tOpt float64
		var scansNopt, scansOpt int
		for qi := 0; qi < nQueries; qi++ {
			q := generator.GlueQuery(rng, vs, 5, 8)
			_, l, ok, _ := core.Minimum(q, vs)
			if !ok {
				panic("experiments: glued query not contained")
			}
			var a, b *simulation.Result
			var sa, sb core.Stats
			tNopt += timeIt(func() { a, sa = matchJoinNaive(q, x, l) })
			tOpt += timeIt(func() { b, sb = matchJoinRanked(q, x, l) })
			scansNopt += sa.EdgeScans
			scansOpt += sb.EdgeScans
			if cfg.Verify {
				want, _, _ := core.MatchJoin(q, x, l, core.Options{})
				if !a.Equal(want) || !b.Equal(want) {
					panic("experiments: scan-based MatchJoin disagrees with core.MatchJoin")
				}
			}
		}
		nq := float64(nQueries)
		fig.Series[0].Values = append(fig.Series[0].Values, tNopt/nq)
		fig.Series[1].Values = append(fig.Series[1].Values, tOpt/nq)
		fig.Notes = append(fig.Notes, fmt.Sprintf("α=%.2f: match-set scans nopt=%d opt=%d",
			alpha, scansNopt, scansOpt))
	}
	return fig
}
