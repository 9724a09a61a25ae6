// Command gvserve is the snapshot-swap query service: it loads (or
// generates) a data graph, materializes a view set over it, and serves
// view-based query answering over HTTP. All reads run against one
// shared immutable snapshot reached through an atomic pointer; writes
// accumulate in incrementally maintained views and become visible when
// a new snapshot is published (POST /publish, -publish-every, or
// -publish-after).
//
//	gvserve -graph g.graph -views v.patterns -addr :8080
//	gvserve -dataset youtube -nodes 20000 -edges 80000
//
// See OPERATIONS.md for the full runbook: every flag, endpoint, metric
// and failure mode.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	gv "graphviews"
	"graphviews/internal/serve"
	"graphviews/internal/store"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gvserve: "+format+"\n", args...)
	os.Exit(1)
}

// loadViews resolves the -views or -dataset flags into a validated view
// set. It never touches the data graph: a restart from a checkpoint
// needs only this.
func loadViews(graphPath, viewsPath, dataset string, labels int, seed int64) *gv.ViewSet {
	if graphPath != "" {
		if viewsPath == "" {
			fail("-views is required with -graph")
		}
		src, err := os.ReadFile(viewsPath)
		if err != nil {
			fail("%v", err)
		}
		ps, err := gv.ParsePatterns(string(src))
		if err != nil {
			fail("%s: %v", viewsPath, err)
		}
		defs := make([]*gv.ViewDefinition, len(ps))
		for i, p := range ps {
			defs[i] = gv.Define("", p)
		}
		return gv.NewViewSet(defs...)
	}
	switch dataset {
	case "youtube":
		return gv.YouTubeViews()
	case "amazon":
		return gv.AmazonViews()
	case "citation":
		return gv.CitationViews()
	case "uniform":
		return gv.SyntheticViews(labels, seed)
	default:
		fail("need -graph/-views or -dataset youtube|amazon|citation|uniform (got %q)", dataset)
		return nil
	}
}

// loadGraph resolves the -graph or -dataset flags (already vetted by
// loadViews) into a mutable graph.
func loadGraph(graphPath, dataset string, nodes, edges, labels int, seed int64) *gv.Graph {
	if graphPath != "" {
		f, err := os.Open(graphPath)
		if err != nil {
			fail("%v", err)
		}
		g, err := gv.ReadGraph(f)
		// A Close error on a read path can mask a truncated read (e.g. a
		// network filesystem flushing late); fold it into the load error.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail("%s: %v", graphPath, err)
		}
		return g
	}
	switch dataset {
	case "youtube":
		return gv.GenerateYouTubeLike(nodes, edges, seed)
	case "amazon":
		return gv.GenerateAmazonLike(nodes, edges, seed)
	case "citation":
		return gv.GenerateCitationLike(nodes, edges, seed)
	default:
		return gv.GenerateUniform(nodes, edges, labels, seed)
	}
}

func main() {
	var (
		graphPath    = flag.String("graph", "", "data graph file (text format; requires -views)")
		viewsPath    = flag.String("views", "", "pattern DSL file with view definitions")
		dataset      = flag.String("dataset", "", "generate a workload instead of loading: youtube|amazon|citation|uniform")
		nodes        = flag.Int("nodes", 20000, "generated graph nodes (-dataset)")
		edges        = flag.Int("edges", 80000, "generated graph edges (-dataset)")
		labels       = flag.Int("labels", 16, "label count for -dataset uniform")
		seed         = flag.Int64("seed", 1, "generator seed (-dataset)")
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker pool bound for view materialization and maintenance (<=0 = GOMAXPROCS); queries run one thread each")
		shards       = flag.Int("shards", 1, "snapshot shard count (>=2 fixed, <=0 auto heuristic, 1 unsharded)")
		maxInFlight  = flag.Int("max-inflight", 64, "admission control: max concurrent requests (<=0 unbounded)")
		timeout      = flag.Duration("timeout", 5*time.Second, "per-request deadline (<=0 none)")
		publishEvery = flag.Duration("publish-every", 0, "republish the snapshot on this period when updates are pending (<=0 off)")
		publishAfter = flag.Int("publish-after", 0, "publish once this many updates accumulated (<=0 off)")
		dataDir      = flag.String("data-dir", "", "durable store directory (checkpoint snapshot + write-ahead log); empty = ephemeral, updates lost on restart")
		walSync      = flag.String("wal-sync", "always", "WAL durability for acknowledged updates: always (fsync per record), none, or a group-commit interval like 50ms")
		persistExts  = flag.Bool("persist-exts", true, "persist materialized view extensions in checkpoints so a clean-tail restart skips rematerialization")
		walBacklog   = flag.Int64("wal-backlog", 256<<20, "WAL high-water mark in bytes: past it /healthz degrades to 503 wal_backlog (checkpoints are failing); <=0 unlimited")
		quiet        = flag.Bool("quiet", false, "disable the per-request access log")
	)
	flag.Parse()

	vs := loadViews(*graphPath, *viewsPath, *dataset, *labels, *seed)

	logger := log.New(os.Stderr, "gvserve: ", log.LstdFlags|log.Lmicroseconds)
	accessLog := logger
	if *quiet {
		accessLog = nil
	}

	// Durable store: open the data directory, and when a checkpoint from
	// a previous run exists, serve that graph instead of the one the
	// workload flags name — which is then never parsed or generated (the
	// flags still define the view set, which must stay the same across
	// restarts of one data directory). Thaw hands the checkpoint's node
	// columns to the graph, so the first publish shares them.
	var g *gv.Graph
	var st *store.Store
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*walSync)
		if err != nil {
			fail("%v", err)
		}
		st, err = store.Open(*dataDir, store.Options{Sync: policy})
		if err != nil {
			fail("%v", err)
		}
		defer st.Close()
		if base := st.Base(); base != nil {
			g = base.Thaw()
			logger.Printf("loaded checkpoint from %s: |V|=%d |E|=%d at write clock %d, %d WAL record(s) to replay",
				*dataDir, g.NumNodes(), g.NumEdges(), st.BaseVersion(), len(st.Tail()))
		} else {
			logger.Printf("fresh data directory %s (wal-sync %s)", *dataDir, policy)
		}
	}
	if g == nil {
		g = loadGraph(*graphPath, *dataset, *nodes, *edges, *labels, *seed)
	}
	logger.Printf("materializing %d views over |V|=%d |E|=%d", vs.Card(), g.NumNodes(), g.NumEdges())
	start := time.Now()
	srv, err := serve.NewServer(g, vs, serve.Config{
		Workers:           *workers,
		Shards:            *shards,
		MaxInFlight:       *maxInFlight,
		RequestTimeout:    *timeout,
		PublishEvery:      *publishEvery,
		PublishAfter:      *publishAfter,
		Store:             st,
		PersistExtensions: *persistExts,
		WALBacklogBytes:   *walBacklog,
		Logger:            accessLog,
	})
	if err != nil {
		fail("%v", err)
	}
	defer srv.Close()
	snap := srv.Current()
	logger.Printf("epoch %d ready in %s: %d views, %d cached pairs (%.2f%% of |G|)",
		snap.Epoch, time.Since(start).Round(time.Millisecond),
		snap.Exts.Set.Card(), snap.Exts.TotalEdges(), 100*snap.Exts.FractionOf(snap.Graph))

	// Crash recovery: replay the WAL tail into the maintained views while
	// /healthz reports not-ready and queries shed with 503 + Retry-After.
	// Serving starts below in the meantime so probes can watch progress.
	if srv.Recovering() {
		logger.Printf("recovering: replaying %d WAL record(s)", len(st.Tail()))
		go func() {
			t := time.Now()
			records, updates := srv.Recover()
			logger.Printf("recovery complete in %s: %d record(s), %d update(s) replayed; epoch %d",
				time.Since(t).Round(time.Millisecond), records, updates, srv.Current().Epoch)
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		logger.Printf("serving on %s", *addr)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Printf("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
}
