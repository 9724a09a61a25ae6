package graphviews_test

// Acceptance harness for the immutable backend: on the generator
// workloads, materialization and answering over graph.Shard must be
// byte-identical — results, view choices and Stats — to the mutable
// backend across the full workers {1,2,4,8} × shards {1,2,3,8} matrix
// (shards=1 is the Freeze snapshot), whether the engine builds the
// snapshot itself (WithShards) or is handed a pre-built *Sharded. Run
// with -race: at k=1 every worker reads the one prebuilt label
// partition with no lock; above it the shard-parallel candidate seeding
// scans per-shard label partitions concurrently, and the merge-on-read
// NodesWithLabel cache is hit from many workers.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	gv "graphviews"
)

var (
	shardedWorkerSweep = []int{1, 2, 4, 8}
	shardedShardSweep  = []int{1, 2, 3, 8}
)

// glueQueries draws n deterministic queries glued from the workload's
// views.
func glueQueries(seed int64, vs *gv.ViewSet, n int) []*gv.Pattern {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]*gv.Pattern, n)
	for i := range queries {
		queries[i] = gv.GlueQuery(rng, vs, 4, 6)
	}
	return queries
}

// requireEquivalent materializes vs over in with eng and fails unless the
// extensions, and the answers, view choices and Stats of every query,
// equal those of ref, the sequential mutable-backend reference. tag
// names the point of the matrix in failure messages.
func requireEquivalent(t *testing.T, tag string, eng *gv.Engine, in gv.GraphReader,
	vs *gv.ViewSet, ref *gv.Extensions, queries []*gv.Pattern) {
	t.Helper()
	x, err := eng.Materialize(in, vs)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for i := range ref.Exts {
		if !x.Exts[i].Result.Equal(ref.Exts[i].Result) {
			t.Fatalf("%s view %q: extension differs", tag, vs.Defs[i].Name)
		}
	}
	for qi, q := range queries {
		refRes, refUsed, refErr := gv.Answer(q, ref, gv.UseAll)
		res, used, stats, err := eng.Answer(q, x, gv.UseAll)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%s query %d: err %v vs %v", tag, qi, refErr, err)
		}
		if refErr != nil {
			continue
		}
		if !res.Equal(refRes) {
			t.Fatalf("%s query %d: answer differs", tag, qi)
		}
		if len(used) != len(refUsed) {
			t.Fatalf("%s query %d: view choice differs", tag, qi)
		}
		// Stats must also be identical across backends at the same
		// worker count: MatchJoin sees only the extensions, so any
		// divergence means the extensions differ.
		_, _, refStats, err := eng.Answer(q, ref, gv.UseAll)
		if err != nil {
			t.Fatalf("%s query %d: %v", tag, qi, err)
		}
		if stats != refStats {
			t.Fatalf("%s query %d: stats %+v vs %+v", tag, qi, stats, refStats)
		}
	}
}

// TestShardedEquivalenceAcrossWorkersAndShards is the differential
// harness of the sharded backend: extensions, answers and stats from any
// point of the workers × shards matrix must equal the sequential
// mutable-backend reference.
func TestShardedEquivalenceAcrossWorkersAndShards(t *testing.T) {
	for name, wl := range engineWorkloads() {
		t.Run(name, func(t *testing.T) {
			ref := gv.Materialize(wl.g, wl.vs) // mutable, sequential reference
			fz := gv.Freeze(wl.g)
			queries := glueQueries(137, wl.vs, 3)
			for _, w := range shardedWorkerSweep {
				for _, k := range shardedShardSweep {
					eng := gv.NewEngine(gv.WithParallelism(w), gv.WithShards(k))
					// Two input routes: the engine splitting the snapshot
					// itself, and a pre-partitioned backend used as-is.
					requireEquivalent(t, fmt.Sprintf("w=%d k=%d mutable", w, k), eng, wl.g, wl.vs, ref, queries)
					requireEquivalent(t, fmt.Sprintf("w=%d k=%d presharded", w, k), eng, gv.Shard(fz, k), wl.vs, ref, queries)
				}
			}
		})
	}
}

// TestFrozenEquivalenceAcrossWorkers: a Freeze snapshot handed to an
// engine left at its default shard count is evaluated as given, on the
// k=1 fast path, and must equal the mutable reference at every worker
// count.
func TestFrozenEquivalenceAcrossWorkers(t *testing.T) {
	for name, wl := range engineWorkloads() {
		t.Run(name, func(t *testing.T) {
			ref := gv.Materialize(wl.g, wl.vs)
			fz := gv.Freeze(wl.g)
			queries := glueQueries(71, wl.vs, 4)
			for _, w := range shardedWorkerSweep {
				requireEquivalent(t, fmt.Sprintf("w=%d frozen", w), gv.NewEngine(gv.WithParallelism(w)), fz, wl.vs, ref, queries)
			}
		})
	}
}

// readerMismatch names the first Reader method on which got answers
// differently from want, or returns "": the serialization (labels,
// attributes, categorical values, edge enumeration), sizes, adjacency
// and degrees in both directions, HasEdge on every edge, Attr on every
// key, and every label partition (out-of-range ids included).
func readerMismatch(want, got gv.GraphReader) string {
	var wb, gb bytes.Buffer
	if err := gv.WriteGraph(&wb, want); err != nil {
		return err.Error()
	}
	if err := gv.WriteGraph(&gb, got); err != nil {
		return err.Error()
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		return "serialization"
	}
	if got.Size() != want.Size() || got.NumEdges() != want.NumEdges() {
		return "sizes"
	}
	for v := gv.NodeID(0); int(v) < want.NumNodes(); v++ {
		if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) ||
			got.OutDegree(v) != want.OutDegree(v) || got.InDegree(v) != want.InDegree(v) {
			return fmt.Sprintf("node %d: adjacency", v)
		}
		for _, w := range want.Out(v) {
			if !got.HasEdge(v, w) {
				return fmt.Sprintf("HasEdge(%d,%d)", v, w)
			}
		}
		for key, val := range want.Attrs(v) {
			if gval, ok := got.Attr(v, key); !ok || gval != val || got.IsCategorical(key) != want.IsCategorical(key) {
				return fmt.Sprintf("node %d: Attr(%q)", v, key)
			}
		}
	}
	for l := gv.LabelID(-1); int(l) <= want.Interner().Len(); l++ {
		if !slices.Equal(got.NodesWithLabel(l), want.NodesWithLabel(l)) {
			return fmt.Sprintf("label %d: partition", l)
		}
	}
	return ""
}

// TestShardReaderIdentity: on the generator workloads, every Reader
// method of Shard(g, k) answers as the mutable graph does, re-sharding
// to one shard reproduces Freeze(g) field for field, and re-sharding at
// the same k is a no-op — through the public API, mirroring the
// internal round-trip tests.
func TestShardReaderIdentity(t *testing.T) {
	for name, wl := range engineWorkloads() {
		t.Run(name, func(t *testing.T) {
			want := gv.Freeze(wl.g)
			for _, k := range []int{1, 2, 3, 7} {
				sh := gv.Shard(wl.g, k)
				if d := readerMismatch(wl.g, sh); d != "" {
					t.Fatalf("k=%d: %s differs from the mutable graph", k, d)
				}
				if got := gv.Freeze(sh); !reflect.DeepEqual(want, got) {
					t.Fatalf("k=%d: Shard(Shard(g, k), 1) != Freeze(g)", k)
				}
				if gv.Shard(sh, k) != sh {
					t.Fatalf("k=%d: re-sharding at the same k must be a no-op", k)
				}
			}
		})
	}
}

// TestShardedDirectEvaluation: the direct Match entry points must agree
// across all three backends (the sharded one exercises merge-on-read
// NodesWithLabel through the sequential seeding path).
func TestShardedDirectEvaluation(t *testing.T) {
	wl := engineWorkloads()["youtube"]
	sh := gv.Shard(wl.g, 3)
	rng := rand.New(rand.NewSource(21))
	for qi := 0; qi < 4; qi++ {
		q := gv.GlueQuery(rng, wl.vs, 3, 5)
		want := gv.Match(wl.g, q)
		if got := gv.Match(sh, q); !got.Equal(want) {
			t.Fatalf("query %d: Match over sharded differs from mutable", qi)
		}
		wantDual := gv.MatchDual(wl.g, q)
		if got := gv.MatchDual(sh, q); !got.Equal(wantDual) {
			t.Fatalf("query %d: MatchDual over sharded differs from mutable", qi)
		}
	}
}

// TestFreezeThawPublicRoundTrip: the snapshot serializes identically to
// its source and thaws back to an equivalent mutable graph.
func TestFreezeThawPublicRoundTrip(t *testing.T) {
	g := gv.GenerateYouTubeLike(800, 2_400, 9)
	fz := gv.Freeze(g)
	thawed := fz.Thaw()

	var a, b, c bytes.Buffer
	if err := gv.WriteGraph(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := gv.WriteGraph(&b, fz); err != nil {
		t.Fatal(err)
	}
	if err := gv.WriteGraph(&c, thawed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatalf("Freeze/Thaw serialization round trip diverged")
	}

	// The thawed graph must answer like the original.
	vs := gv.YouTubeViews()
	x1 := gv.Materialize(g, vs)
	x2 := gv.Materialize(thawed, vs)
	for i := range x1.Exts {
		if !x1.Exts[i].Result.Equal(x2.Exts[i].Result) {
			t.Fatalf("view %q: thawed graph materializes differently", vs.Defs[i].Name)
		}
	}
}
