package experiments

// Exp-4: bounded pattern queries using views (Fig. 8(i)–(l)).

import (
	"fmt"
	"math/rand"

	"graphviews/internal/generator"
	"graphviews/internal/pattern"
)

// Fig8i: varying |Qb| on the Amazon stand-in, fe(e)=2.
func Fig8i(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.AmazonLike(548_000/f, 1_780_000/f, cfg.Seed)
	return runVaryQs(cfg, "8i", "Varying |Qb| (Amazon, fe=2)", cfg.input(g), generator.AmazonViews(), amazonSizes, 2)
}

// Fig8j: varying |Qb| on the Citation stand-in, fe(e)=3.
func Fig8j(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.CitationLike(1_400_000/f, 3_000_000/f, cfg.Seed)
	return runVaryQs(cfg, "8j", "Varying |Qb| (Citation, fe=3)", cfg.input(g), generator.CitationViews(), citationSizes, 3)
}

// Fig8k: varying fe(e) from 2 to 6 on the YouTube stand-in, query (4,8).
func Fig8k(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := cfg.input(generator.YouTubeLike(1_600_000/f, 4_500_000/f, cfg.Seed))
	baseViews := generator.YouTubeViews()
	fig := &Figure{
		ID: "8k", Title: "Varying fe(e) (Youtube, |Qb|=(4,8))",
		XAxis: "fe(e)", YAxis: "seconds",
		Series: matchSeries(true),
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for _, fe := range []pattern.Bound{2, 3, 4, 5, 6} {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", fe))
		vs := generator.BoundedSet(baseViews, fe)
		x := cfg.materialize(g, vs)
		cfg.measurePoint(fig, rng, g, vs, x, sizeSpec{4, 8})
	}
	return fig
}

// Fig8l: varying |G| on synthetic graphs with bounded queries, fe(e)=3,
// query (4,6).
func Fig8l(cfg Config) *Figure {
	return runVaryG(cfg, "8l", "Varying |G| (synthetic, bounded fe=3)",
		generator.BoundedSet(generator.SyntheticViews(10, cfg.Seed), 3), true, cfg.Seed+8)
}
