package graphviews

// Synthetic dataset and workload generators, re-exported from the
// generator substrate so downstream users (and the runnable examples) can
// reproduce the paper's evaluation workloads through the public API.

import (
	"math/rand"

	"graphviews/internal/generator"
)

// GenerateUniform builds the paper's synthetic random graph: n nodes over
// k uniform labels, m random edges.
func GenerateUniform(n, m, k int, seed int64) *Graph {
	return generator.Uniform(n, m, k, seed)
}

// GenerateDensified builds a synthetic graph with |E| = |V|^alpha
// (densification law).
func GenerateDensified(n int, alpha float64, k int, seed int64) *Graph {
	return generator.Densified(n, alpha, k, seed)
}

// GenerateAmazonLike builds a product co-purchasing network in the schema
// of the paper's Amazon snapshot.
func GenerateAmazonLike(n, m int, seed int64) *Graph {
	return generator.AmazonLike(n, m, seed)
}

// GenerateCitationLike builds an acyclic citation network in the schema
// of the paper's Citation snapshot.
func GenerateCitationLike(n, m int, seed int64) *Graph {
	return generator.CitationLike(n, m, seed)
}

// GenerateYouTubeLike builds a related-video network in the schema of the
// paper's YouTube snapshot (category/age/rate/length/visits attributes).
func GenerateYouTubeLike(n, m int, seed int64) *Graph {
	return generator.YouTubeLike(n, m, seed)
}

// YouTubeViews returns the 12 Fig. 7-style recommendation views.
func YouTubeViews() *ViewSet { return generator.YouTubeViews() }

// AmazonViews returns 12 frequent co-purchase pattern views.
func AmazonViews() *ViewSet { return generator.AmazonViews() }

// CitationViews returns 12 citation pattern views.
func CitationViews() *ViewSet { return generator.CitationViews() }

// SyntheticViews returns the 22 synthetic views over k labels.
func SyntheticViews(k int, seed int64) *ViewSet { return generator.SyntheticViews(k, seed) }

// BoundedViews copies a view set with every edge bound set to b.
func BoundedViews(vs *ViewSet, b Bound) *ViewSet { return generator.BoundedSet(vs, b) }

// GlueQuery composes view fragments into a query that is contained in vs
// by construction — the workload generator of the paper's evaluation.
func GlueQuery(rng *rand.Rand, vs *ViewSet, minNodes, minEdges int) *Pattern {
	return generator.GlueQuery(rng, vs, minNodes, minEdges)
}

// RandomPattern builds a random connected DAG or cyclic pattern over k
// synthetic labels (the Exp-3 workloads).
func RandomPattern(rng *rand.Rand, nv, ne, k int, cyclic bool) *Pattern {
	return generator.RandomPattern(rng, nv, ne, k, cyclic)
}

// NecklaceQuery builds a k-bead "necklace" query — k directed cycles
// chained by bridge edges of the given bound — plus a view set containing
// it by construction. Its pattern condenses into many SCCs, which makes
// it the multi-SCC stress workload of the MatchJoin fixpoint.
func NecklaceQuery(rng *rand.Rand, k int, bridgeBound Bound) (*Pattern, *ViewSet) {
	return generator.Necklace(rng, k, bridgeBound)
}

// NecklaceGraph builds a random data graph over a necklace query's
// labels: n nodes, m random edges.
func NecklaceGraph(rng *rand.Rand, q *Pattern, n, m int) *Graph {
	return generator.NecklaceGraph(rng, q, n, m)
}
