package graphviews_test

// Allocation regression bound for the serving /query hot path: a
// long-lived engine hands each request a context-scoped handle
// (Engine.WithRequest) and answers from the published extensions — the
// exact call sequence internal/serve runs per request against the
// current snapshot. The request handle must stay a shallow struct copy
// (no pool rebuilds, no scratch re-warming), so its steady state should
// cost only a few objects over the plain Answer bound pinned in
// alloc_test.go. Same policy as the other bounds: ≥2× headroom over
// measured values, skipped under -race.

import (
	"context"
	"runtime"
	"testing"

	gv "graphviews"
)

// TestSteadyStateServeQueryAllocs bounds allocations of the
// per-request serving path WithRequest(ctx) → Answer on a warmed pool
// (measured ~294 allocs/op — the containment working state and the
// Result dominate; the request handle adds only the engine copy, so
// the measurement matches plain Answer's within one object). It runs at
// parallelism 1 and at the gvserve default, parallelism 0 = GOMAXPROCS
// (pinned to at least 2), under the same bound: a query runs on its
// request's goroutine whatever the engine's worker pool.
func TestSteadyStateServeQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	eng1, _, _, q, x := allocWorkload(t)
	eng0 := gv.NewEngine(gv.WithParallelism(0))
	for _, c := range []struct {
		name string
		eng  *gv.Engine
	}{{"parallelism=1", eng1}, {"parallelism=0", eng0}} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			// Warm the request path itself once.
			if _, _, _, err := c.eng.WithRequest(ctx).Answer(q, x, gv.UseAll); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				req := c.eng.WithRequest(ctx)
				if _, _, _, err := req.Answer(q, x, gv.UseAll); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("WithRequest+Answer steady state (workers %d): %.1f allocs/op", c.eng.Parallelism(), allocs)
			const bound = 620
			if allocs > bound {
				t.Fatalf("serve /query steady state allocates %.1f objects/op, bound %d", allocs, bound)
			}
		})
	}
}
