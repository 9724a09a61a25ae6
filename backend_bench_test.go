package graphviews_test

// Graph-backend benchmarks, over the axis mutable | shards=k.
// BenchmarkSimFrozen isolates the simulation engines — whose candidate
// seeding is the NodesWithLabel hot path that the single-shard snapshot
// serves from a prebuilt, mutex-free label partition — and
// BenchmarkAnswerFrozen measures the full materialize+answer pipeline
// over the worker sweep, where every worker shares one immutable CSR
// snapshot. BenchmarkAnswerSharded sweeps the same pipeline over shard
// counts at a fixed 4-worker pool, and BenchmarkShardSplit measures the
// O(|V|+|E|) splitter itself. Snapshots are pre-built, so the build is
// amortized across iterations. Run via `make bench-backends`.

import (
	"fmt"
	"math/rand"
	"testing"

	gv "graphviews"
)

// benchBackend is one point of the backend axis.
type benchBackend struct {
	name string
	r    gv.GraphReader
}

// benchBackends returns the mutable graph (when mutable is set) and its
// pre-built snapshot at each shard count in ks.
func benchBackends(g *gv.Graph, mutable bool, ks ...int) []benchBackend {
	var out []benchBackend
	if mutable {
		out = append(out, benchBackend{"mutable", g})
	}
	for _, k := range ks {
		out = append(out, benchBackend{fmt.Sprintf("shards=%d", k), gv.Shard(g, k)})
	}
	return out
}

// BenchmarkSimFrozen A/Bs direct simulation across backends: plain
// queries (label-index seeding + refinement fixpoint) and bounded
// queries (adds the BFS-heavy distance enumeration).
func BenchmarkSimFrozen(b *testing.B) {
	g, vs, _, q, _ := microWorkload()
	bvs := gv.BoundedViews(vs, 2)
	rng := rand.New(rand.NewSource(11))
	bq := gv.GlueQuery(rng, bvs, 4, 6)

	for _, be := range benchBackends(g, true, 1) {
		b.Run("plain/backend="+be.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gv.Match(be.r, q)
			}
		})
		b.Run("bounded/backend="+be.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gv.Match(be.r, bq)
			}
		})
	}
}

// benchAnswer runs the materialize+answer pipeline over r on eng.
func benchAnswer(b *testing.B, eng *gv.Engine, r gv.GraphReader, vs *gv.ViewSet, q *gv.Pattern) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := eng.Materialize(r, vs)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := eng.Answer(q, x, gv.UseAll); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerFrozen sweeps the materialize+answer pipeline over
// worker counts on both inputs: handing the Engine the mutable graph
// (it builds the snapshot once per Materialize call) versus a pre-built
// single-shard snapshot.
func BenchmarkAnswerFrozen(b *testing.B) {
	g, vs, _, q, _ := microWorkload()
	for _, be := range benchBackends(g, true, 1) {
		for _, w := range workerSweep {
			b.Run(fmt.Sprintf("backend=%s/workers=%d", be.name, w), func(b *testing.B) {
				benchAnswer(b, gv.NewEngine(gv.WithParallelism(w)), be.r, vs, q)
			})
		}
	}
}

// BenchmarkAnswerSharded sweeps the materialize+answer pipeline over
// shard counts at a fixed 4-worker pool: above one shard candidate
// seeding fans out per shard, everything downstream runs on the sharded
// Reader unchanged.
func BenchmarkAnswerSharded(b *testing.B) {
	g, vs, _, q, _ := microWorkload()
	for _, be := range benchBackends(g, false, 1, 2, 4, 8) {
		b.Run(be.name+"/workers=4", func(b *testing.B) {
			benchAnswer(b, gv.NewEngine(gv.WithParallelism(4)), be.r, vs, q)
		})
	}
}

// BenchmarkShardSplit measures Shard itself — the O(|V|+|E|) cost an
// engine pays per call when it builds the snapshot rather than being
// handed a pre-built *Sharded.
func BenchmarkShardSplit(b *testing.B) {
	g, _, _, _, _ := microWorkload()
	fz := gv.Freeze(g)
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gv.Shard(fz, k)
			}
		})
	}
}
