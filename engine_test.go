package graphviews_test

// Tests for the concurrent Engine: parallel materialization and
// answering must produce results identical to the sequential entry
// points on generator workloads, cancellation must be honored, and the
// whole path must be race-clean (run with -race).

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	gv "graphviews"
)

// engineWorkloads returns the generator workloads the equality tests run
// over: each is a graph plus a view set, covering plain and bounded
// views across the three dataset schemas.
func engineWorkloads() map[string]struct {
	g  *gv.Graph
	vs *gv.ViewSet
} {
	yt := gv.GenerateYouTubeLike(4_000, 11_000, 11)
	return map[string]struct {
		g  *gv.Graph
		vs *gv.ViewSet
	}{
		"youtube":         {yt, gv.YouTubeViews()},
		"youtube-bounded": {yt, gv.BoundedViews(gv.YouTubeViews(), 2)},
		"amazon":          {gv.GenerateAmazonLike(1_500, 4_500, 12), gv.AmazonViews()},
		"citation":        {gv.GenerateCitationLike(3_500, 7_500, 13), gv.CitationViews()},
	}
}

func TestEngineMaterializeMatchesSequential(t *testing.T) {
	for name, wl := range engineWorkloads() {
		t.Run(name, func(t *testing.T) {
			seq := gv.Materialize(wl.g, wl.vs)
			eng := gv.NewEngine(gv.WithParallelism(8))
			parx, err := eng.Materialize(wl.g, wl.vs)
			if err != nil {
				t.Fatal(err)
			}
			if len(parx.Exts) != len(seq.Exts) {
				t.Fatalf("extension count: %d != %d", len(parx.Exts), len(seq.Exts))
			}
			for i := range seq.Exts {
				if !parx.Exts[i].Result.Equal(seq.Exts[i].Result) {
					t.Fatalf("view %q: parallel extension differs from sequential",
						wl.vs.Defs[i].Name)
				}
			}
			// The distance index built from identical extensions must agree.
			seqIdx := gv.BuildDistIndex(seq)
			parIdx, err := eng.BuildDistIndex(parx)
			if err != nil {
				t.Fatal(err)
			}
			if seqIdx.Len() != parIdx.Len() {
				t.Fatalf("dist index size: %d != %d", parIdx.Len(), seqIdx.Len())
			}
		})
	}
}

func TestEngineAnswerMatchesSequential(t *testing.T) {
	for name, wl := range engineWorkloads() {
		t.Run(name, func(t *testing.T) {
			x := gv.Materialize(wl.g, wl.vs)
			eng := gv.NewEngine(gv.WithParallelism(8))
			rng := rand.New(rand.NewSource(99))
			for qi := 0; qi < 5; qi++ {
				q := gv.GlueQuery(rng, wl.vs, 4, 6)
				for _, s := range []gv.Strategy{gv.UseAll, gv.UseMinimal, gv.UseMinimum} {
					seqRes, seqIdx, seqErr := gv.Answer(q, x, s)
					parRes, parIdx, _, parErr := eng.Answer(q, x, s)
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("query %d strategy %v: err %v vs %v", qi, s, seqErr, parErr)
					}
					if seqErr != nil {
						continue
					}
					if !seqRes.Equal(parRes) {
						t.Fatalf("query %d strategy %v: parallel result differs", qi, s)
					}
					if len(seqIdx) != len(parIdx) {
						t.Fatalf("query %d strategy %v: view choice differs", qi, s)
					}
					for i := range seqIdx {
						if seqIdx[i] != parIdx[i] {
							t.Fatalf("query %d strategy %v: view choice differs", qi, s)
						}
					}
				}
			}
		})
	}
}

func TestEngineMatchJoinMatchesSequential(t *testing.T) {
	wl := engineWorkloads()["youtube-bounded"]
	x := gv.Materialize(wl.g, wl.vs)
	eng := gv.NewEngine(gv.WithParallelism(8))
	rng := rand.New(rand.NewSource(5))
	for qi := 0; qi < 5; qi++ {
		q := gv.GlueQuery(rng, wl.vs, 4, 7)
		l, ok, err := gv.Contains(q, wl.vs)
		if err != nil || !ok {
			t.Fatalf("glued query not contained: %v %v", ok, err)
		}
		seqRes, seqSt := gv.MatchJoin(q, x, l)
		parRes, parSt, err := eng.MatchJoin(q, x, l)
		if err != nil {
			t.Fatal(err)
		}
		if !seqRes.Equal(parRes) {
			t.Fatalf("query %d: parallel MatchJoin result differs", qi)
		}
		if seqSt.InitialPairs != parSt.InitialPairs || seqSt.PairKills != parSt.PairKills {
			t.Fatalf("query %d: stats differ: %+v vs %+v", qi, seqSt, parSt)
		}
	}
}

func TestEngineCancellation(t *testing.T) {
	wl := engineWorkloads()["youtube"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every engine call must refuse to work
	eng := gv.NewEngine(gv.WithParallelism(4), gv.WithContext(ctx))

	if _, err := eng.Materialize(wl.g, wl.vs); !errors.Is(err, context.Canceled) {
		t.Fatalf("Materialize under cancelled ctx: err = %v", err)
	}
	x := gv.Materialize(wl.g, wl.vs)
	if _, err := eng.BuildDistIndex(x); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildDistIndex under cancelled ctx: err = %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	q := gv.GlueQuery(rng, wl.vs, 4, 6)
	if _, _, err := eng.Contains(q, wl.vs); !errors.Is(err, context.Canceled) {
		t.Fatalf("Contains under cancelled ctx: err = %v", err)
	}
	if _, _, _, err := eng.Answer(q, x, gv.UseAll); !errors.Is(err, context.Canceled) {
		t.Fatalf("Answer under cancelled ctx: err = %v", err)
	}
	if _, err := eng.Maintain(wl.g, wl.vs); !errors.Is(err, context.Canceled) {
		t.Fatalf("Maintain under cancelled ctx: err = %v", err)
	}
}

// TestEngineConcurrentAnswer hammers one Engine and one Extensions from
// many goroutines; under -race this verifies the read-only sharing of
// graphs, extensions and λ.
func TestEngineConcurrentAnswer(t *testing.T) {
	wl := engineWorkloads()["youtube"]
	x := gv.Materialize(wl.g, wl.vs)
	eng := gv.NewEngine(gv.WithParallelism(4))

	rng := rand.New(rand.NewSource(17))
	queries := make([]*gv.Pattern, 6)
	for i := range queries {
		queries[i] = gv.GlueQuery(rng, wl.vs, 4, 6)
	}
	want := make([]*gv.Result, len(queries))
	for i, q := range queries {
		want[i], _, _ = gv.Answer(q, x, gv.UseAll)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				res, _, _, err := eng.Answer(q, x, gv.UseAll)
				if err != nil {
					t.Errorf("concurrent Answer: %v", err)
					return
				}
				if !res.Equal(want[i]) {
					t.Errorf("concurrent Answer: query %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMaintainedParallelMatchesFresh applies a mixed update stream to
// engine-maintained extensions and checks them against a from-scratch
// materialization.
func TestMaintainedParallelMatchesFresh(t *testing.T) {
	g := gv.GenerateYouTubeLike(1_200, 3_400, 21)
	vs := gv.YouTubeViews()
	eng := gv.NewEngine(gv.WithParallelism(4))
	m, err := eng.Maintain(g, vs)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(22))
	n := g.NumNodes()
	for i := 0; i < 40; i++ {
		u := gv.NodeID(rng.Intn(n))
		v := gv.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			m.DeleteEdge(u, v)
		} else {
			m.InsertEdge(u, v)
		}
	}
	fresh := gv.Materialize(m.G, vs)
	for i := range fresh.Exts {
		if !m.X.Exts[i].Result.Equal(fresh.Exts[i].Result) {
			t.Fatalf("view %q: maintained extension diverged from fresh materialization",
				vs.Defs[i].Name)
		}
	}
}

// TestEngineMatchJoinSCCDeterminism: on cyclic (multi-SCC necklace), DAG
// (glued YouTube) and bounded workloads, Engine.MatchJoin — pooled
// scratch, request context — must return results and stats
// byte-identical to the package-level gv.MatchJoin whatever the
// engine's parallelism (1, 2, 4, 8), which MatchJoin ignores. Run with
// -race.
func TestEngineMatchJoinSCCDeterminism(t *testing.T) {
	type workload struct {
		g  *gv.Graph
		q  *gv.Pattern
		vs *gv.ViewSet
	}
	rng := rand.New(rand.NewSource(311))
	workloads := map[string]workload{}

	// Cyclic: 4-bead necklace, plain bridges.
	q1, vs1 := gv.NecklaceQuery(rng, 4, 1)
	workloads["cyclic"] = workload{gv.NecklaceGraph(rng, q1, 300, 1800), q1, vs1}

	// Bounded: 3-bead necklace with bound-2 bridges.
	q2, vs2 := gv.NecklaceQuery(rng, 3, 2)
	workloads["bounded"] = workload{gv.NecklaceGraph(rng, q2, 200, 1200), q2, vs2}

	// DAG: glued queries over the YouTube views (reject cyclic glue-ups).
	ytVS := gv.YouTubeViews()
	var dagQ *gv.Pattern
	for i := 0; i < 50; i++ {
		c := gv.GlueQuery(rng, ytVS, 4, 6)
		if c.IsDAG() {
			dagQ = c
			break
		}
	}
	if dagQ == nil {
		t.Fatal("no DAG glue query found")
	}
	workloads["dag"] = workload{gv.GenerateYouTubeLike(3_000, 8_500, 17), dagQ, ytVS}

	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			l, ok, err := gv.Contains(wl.q, wl.vs)
			if err != nil || !ok {
				t.Fatalf("workload query not contained: %v %v", ok, err)
			}
			x := gv.Materialize(wl.g, wl.vs)
			seqRes, seqSt := gv.MatchJoin(wl.q, x, l)
			for _, w := range []int{1, 2, 4, 8} {
				eng := gv.NewEngine(gv.WithParallelism(w))
				res, st, err := eng.MatchJoin(wl.q, x, l)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !res.Equal(seqRes) {
					t.Fatalf("workers=%d: edge match sets differ from sequential MatchJoin", w)
				}
				if len(res.Sim) != len(seqRes.Sim) {
					t.Fatalf("workers=%d: Sim arity differs", w)
				}
				for u := range res.Sim {
					if len(res.Sim[u]) != len(seqRes.Sim[u]) {
						t.Fatalf("workers=%d: Sim[%d] differs", w, u)
					}
					for j := range res.Sim[u] {
						if res.Sim[u][j] != seqRes.Sim[u][j] {
							t.Fatalf("workers=%d: Sim[%d] differs", w, u)
						}
					}
				}
				if st != seqSt {
					t.Fatalf("workers=%d: stats %+v != sequential %+v", w, st, seqSt)
				}
			}
		})
	}
}

func TestEngineDefaults(t *testing.T) {
	if got := gv.NewEngine().Parallelism(); got < 1 {
		t.Fatalf("default parallelism = %d, want >= 1", got)
	}
	if got := gv.NewEngine(gv.WithParallelism(-3)).Parallelism(); got < 1 {
		t.Fatalf("WithParallelism(-3) resolved to %d, want GOMAXPROCS >= 1", got)
	}
	if got := gv.NewEngine(gv.WithParallelism(6)).Parallelism(); got != 6 {
		t.Fatalf("WithParallelism(6) = %d", got)
	}
}
