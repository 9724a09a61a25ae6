// Package par is the concurrency substrate of the engine: a minimal
// work-stealing ForEach used to fan embarrassingly parallel phases —
// per-view materialization, per-shard candidate seeding, bounded
// distance enumeration, per-view maintenance — over a bounded worker
// pool, with cooperative context cancellation. Query answering
// (containment and MatchJoin) does not use it.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// OptionWorkers resolves the Workers field of the engine packages'
// Options structs, whose zero value must mean one worker (sequential):
// 0 gives 1, anything else is resolved by Workers. It is the one place
// that distinction is made.
func OptionWorkers(n int) int {
	if n == 0 {
		return 1
	}
	return Workers(n)
}

// ForEach runs fn(i) for every i in [0, n), distributing iterations over
// up to workers goroutines (workers <= 0 means GOMAXPROCS; the pool never
// exceeds n). Iterations are handed out through a shared atomic counter,
// so uneven per-item cost balances automatically.
//
// A nil ctx means context.Background(). When ctx is cancelled, no new
// iterations start and ForEach returns ctx.Err(); iterations already in
// flight run to completion, so the caller's partial state stays
// well-formed. A panic in fn is re-raised on the calling goroutine after
// the pool drains.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		// Report a cancellation that landed during the final iteration,
		// exactly like the pooled branch below: callers discard partial
		// state whenever ForEach returns non-nil, and a worker function
		// that itself observes ctx (nested ForEach) may have stopped
		// early, so completing the loop does not mean the work is whole.
		return ctx.Err()
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
