// Command gvbench regenerates the paper's evaluation figures
// (Fig. 8(a)–(l), Section VII) over the synthetic dataset stand-ins.
//
//	gvbench                         # all figures at small scale
//	gvbench -fig 8a,8f -scale tiny  # selected figures
//	gvbench -scale paper            # the paper's graph sizes (slow!)
//	gvbench -workers -1             # materialize views on all cores
//	gvbench -shards 1               # run on the frozen CSR snapshot
//	gvbench -shards 4               # run on 4 hash-partitioned CSR shards
//	gvbench -csv -out results/      # machine-readable output
//	gvbench -cpuprofile cpu.pb.gz   # attach pprof evidence to perf PRs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"graphviews/internal/experiments"
)

func main() { os.Exit(run()) }

// run carries the whole CLI body so that error returns — unlike
// os.Exit — unwind the deferred profile writers (StopCPUProfile, the
// heap snapshot) and leave valid pprof files behind.
func run() int {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure ids (8a..8l) or 'all'")
		scale   = flag.String("scale", "small", "tiny | small | medium | paper")
		seed    = flag.Int64("seed", 1, "workload seed")
		verify  = flag.Bool("verify", false, "cross-check every view answer against direct evaluation")
		queries = flag.Int("queries", 3, "queries averaged per data point")
		workers = flag.Int("workers", 1, "view-materialization parallelism (0 or 1 = sequential, -1 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0, "evaluate against an immutable CSR snapshot of k hash partitions (graph.Shard; 1 = graph.Freeze); 0 = the mutable graph")
		csv     = flag.Bool("csv", false, "also emit CSV")
		outDir  = flag.String("out", "", "directory for CSV files (implies -csv)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile (after the figure runs) to this file")
	)
	flag.Parse()

	// Profile files are created up front so flag typos fail before any
	// work runs; the deferred writers never os.Exit, which would skip
	// the LIFO-pending StopCPUProfile and leave a truncated profile.
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gvbench: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gvbench: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gvbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gvbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvbench: %v\n", err)
		return 2
	}
	cfg := experiments.Config{Scale: sc, Seed: *seed, Verify: *verify, QueriesPerPoint: *queries, Workers: *workers, Shards: *shards}

	ids := experiments.All
	if *figs != "all" {
		ids = strings.Split(*figs, ",")
	}
	if *outDir != "" {
		*csv = true
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "gvbench: %v\n", err)
			return 1
		}
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		fig, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gvbench: %v\n", err)
			return 1
		}
		fmt.Println(fig.Table())
		fmt.Printf("(figure %s regenerated in %.1fs at scale %s)\n\n", id, time.Since(start).Seconds(), *scale)
		if *csv {
			out := fig.CSV()
			if *outDir != "" {
				path := filepath.Join(*outDir, "fig"+id+".csv")
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "gvbench: %v\n", err)
					return 1
				}
			} else {
				fmt.Println(out)
			}
		}
	}
	return 0
}
