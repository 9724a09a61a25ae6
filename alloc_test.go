package graphviews_test

// Allocation regression bounds for the steady-state (pooled) answer
// pipeline. The PR 4 scratch arenas make repeated Engine calls on a
// warmed pool allocate only the Result and a bounded amount of phase
// bookkeeping — the pre-PR engines allocated O(|V|·|Q|) working state
// (membership rows, support maps, CSR indexes) per call, thousands of
// objects per query. These tests pin the steady state so a regression
// that reintroduces per-call working-state allocation fails loudly.
//
// The bounds are deliberately loose (≥2× headroom over measured values,
// which are documented in OPERATIONS.md §Benchmarks; `make bench`
// prints the matching `-benchmem` numbers) — they exist to catch
// order-of-magnitude regressions, not to freeze exact counts. Skipped
// under -race: the race runtime changes allocation behavior.

import (
	"math/rand"
	"runtime"
	"testing"

	gv "graphviews"
)

// allocWorkload builds a mid-sized frozen instance with a warmed engine:
// pool steady state is reached by running each phase a few times first.
func allocWorkload(t *testing.T) (*gv.Engine, *gv.Frozen, *gv.ViewSet, *gv.Pattern, *gv.Extensions) {
	t.Helper()
	g := gv.GenerateYouTubeLike(8_000, 22_000, 3)
	vs := gv.YouTubeViews()
	fz := gv.Freeze(g)
	rng := rand.New(rand.NewSource(11))
	q := gv.GlueQuery(rng, vs, 5, 7)
	eng := gv.NewEngine(gv.WithParallelism(1))
	var x *gv.Extensions
	for i := 0; i < 3; i++ {
		var err error
		x, err = eng.Materialize(fz, vs)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := eng.Answer(q, x, gv.UseAll); err != nil {
			t.Fatal(err)
		}
	}
	return eng, fz, vs, q, x
}

// TestSteadyStateAnswerAllocs bounds allocations of Engine.Answer on a
// warmed scratch pool (measured ~294 allocs/op: containment working
// state plus the Result; the pre-PR engine sat around 4.4k for MatchJoin
// alone).
func TestSteadyStateAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	eng, _, _, q, x := allocWorkload(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := eng.Answer(q, x, gv.UseAll); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.Answer steady state: %.1f allocs/op", allocs)
	const bound = 600
	if allocs > bound {
		t.Fatalf("Engine.Answer steady state allocates %.1f objects/op, bound %d", allocs, bound)
	}
}

// TestSteadyStateMaterializeAllocs bounds allocations of
// Engine.Materialize on a warmed pool (the Result extensions dominate;
// fixpoint working state comes from the arenas).
func TestSteadyStateMaterializeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	eng, fz, vs, _, _ := allocWorkload(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Materialize(fz, vs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.Materialize steady state: %.1f allocs/op", allocs)
	const bound = 800
	if allocs > bound {
		t.Fatalf("Engine.Materialize steady state allocates %.1f objects/op, bound %d", allocs, bound)
	}
}

// TestSteadyStateMatchJoinAllocs bounds the MatchJoin phase alone — the
// paper's core operator and the tightest loop of the serving story.
func TestSteadyStateMatchJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	eng, _, vs, q, x := allocWorkload(t)
	l, ok, err := eng.Contains(q, vs)
	if err != nil || !ok {
		t.Fatalf("workload query not contained: %v %v", ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := eng.MatchJoin(q, x, l); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := eng.MatchJoin(q, x, l); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.MatchJoin steady state: %.1f allocs/op", allocs)
	const bound = 150
	if allocs > bound {
		t.Fatalf("Engine.MatchJoin steady state allocates %.1f objects/op, bound %d", allocs, bound)
	}
}

// TestSmallDeltaSnapshotAllocs pins what a publish builds after a small
// edge delta: the two adjacency arrays and the two offset arrays of the
// new CSR, plus a handful of small bookkeeping objects (the snapshot
// struct, the dirty list, the memo). The label partition and the
// attribute columns are shared with the previous snapshot, so both the
// object count and the bytes stay at the size of the adjacency alone; a
// from-scratch Freeze rebuilds those columns too, several times the
// bytes.
func TestSmallDeltaSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	g := gv.GenerateYouTubeLike(8_000, 22_000, 3)
	gv.Freeze(g)
	var sink *gv.Frozen
	publish := func() {
		if !g.AddEdge(17, 4242) {
			g.RemoveEdge(17, 4242)
		}
		sink = gv.Freeze(g)
	}
	publish()
	allocs := testing.AllocsPerRun(20, publish)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	publish()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	// 4-byte entries: two offset arrays of |V|+1, two adjacency arrays of |E|.
	csr := uint64(4 * (2*(sink.NumNodes()+1) + 2*sink.NumEdges()))
	t.Logf("small-delta Freeze: %.1f allocs/op, %d B/op (CSR arrays %d B)", allocs, bytes, csr)
	if allocs > 16 {
		t.Fatalf("small-delta Freeze allocates %.1f objects/op, bound 16", allocs)
	}
	if bytes > csr+csr/4 {
		t.Fatalf("small-delta Freeze allocates %d B, more than the CSR arrays (%d B) plus slack: node columns rebuilt?", bytes, csr)
	}
}
