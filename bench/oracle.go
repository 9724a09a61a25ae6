package main

import (
	"runtime"
	"sync"
	"time"

	gv "graphviews"
)

// answer is what the harness checks of a /query response.
type answer struct {
	Matched bool
	Size    int
}

// expected evaluates every query directly over g with gv.Match — the
// paper's baseline, and the benchmark's oracle: it shares no code with
// the view-based path the server answers from. The second result is the
// wall time of each evaluation; it is only meaningful with workers == 1.
func expected(g gv.GraphReader, qs []*gv.Pattern, workers int) ([]answer, []time.Duration) {
	fr := gv.Freeze(g)
	out := make([]answer, len(qs))
	took := make([]time.Duration, len(qs))
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := time.Now()
				r := gv.Match(fr, qs[i])
				took[i] = time.Since(t)
				out[i] = answer{Matched: r.Matched, Size: r.Size()}
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, took
}
