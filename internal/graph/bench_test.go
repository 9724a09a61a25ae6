package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// publishBenchGraph is a 50k/200k graph attributed like the YouTube
// generator's (one categorical and four integer attributes per node),
// which is what makes the node columns the expensive part of a
// from-scratch snapshot.
func publishBenchGraph() *Graph {
	const n, m = 50_000, 200_000
	rng := rand.New(rand.NewSource(1))
	labels := []string{"music", "sports", "news", "film", "games", "howto", "pets", "travel"}
	g := NewWithCapacity(n)
	for i := 0; i < n; i++ {
		v := g.AddNode(labels[rng.Intn(len(labels))])
		g.SetAttrString(v, "category", labels[rng.Intn(len(labels))])
		g.SetAttr(v, "age", 1+rng.Int63n(1500))
		g.SetAttr(v, "rate", 10+rng.Int63n(41))
		g.SetAttr(v, "length", 10+rng.Int63n(3600))
		g.SetAttr(v, "visits", rng.Int63n(100_000))
	}
	for g.NumEdges() < m {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return g
}

var publishSink Reader

// BenchmarkPublishDirtyFraction is the publish-ns-vs-dirty-fraction
// series: the cost of the snapshot build a publish does under the write
// lock, as a function of the share of nodes whose adjacency changed
// since the previous publish. Every iteration toggles one fixed set of
// edges between evenly spaced node pairs (outside the timer), so exactly
// dirty·|V| nodes spread over every shard are dirty and the graph keeps
// its size. dirty=0 is a
// publish with nothing to do; dirty=1 is past the tracking threshold and
// re-reads all adjacency but still shares the node columns. The
// from-scratch cost to compare against is BenchmarkPublishFromScratch.
func BenchmarkPublishDirtyFraction(b *testing.B) {
	g := publishBenchGraph()
	n := g.NumNodes()
	backends := []struct {
		name string
		snap func() Reader
	}{
		{"shards=1", func() Reader { return Shard(g, 1) }},
		{"shards=8", func() Reader { return Shard(g, 8) }},
	}
	for _, be := range backends {
		for _, frac := range []float64{0, 0.001, 0.01, 0.1, 1} {
			b.Run(fmt.Sprintf("%s/dirty=%g", be.name, frac), func(b *testing.B) {
				pairs := int(frac * float64(n) / 2)
				stride := 1
				if pairs > 0 {
					stride = n / (2 * pairs)
				}
				be.snap()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := 0; j < pairs; j++ {
						u := NodeID(2*j*stride + j%stride) // the offset walks the shards
						v := u + 1
						if !g.AddEdge(u, v) {
							g.RemoveEdge(u, v)
						}
					}
					b.StartTimer()
					publishSink = be.snap()
				}
			})
		}
	}
}

// BenchmarkPublishFromScratch is the same build with nothing to start
// from — what every publish cost before snapshots were remembered.
func BenchmarkPublishFromScratch(b *testing.B) {
	g := publishBenchGraph()
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				publishSink, _ = shardOf(g, k, nil, nil)
			}
		})
	}
}
