// Command gvload is the closed-loop load driver for gvserve: it fires
// pattern queries at a target QPS, measures end-to-end latency, and
// reports the percentile curve (p50/p90/p95/p99/max) plus achieved
// throughput, error and shed counts as JSON.
//
//	gvload -self -dataset youtube -qps 200 -duration 10s -json BENCH_PR6.json
//	gvload -addr http://host:8080 -dataset youtube -qps 500
//
// -self starts an in-process gvserve (same dataset flags) on a loopback
// port, so a single hermetic command produces the latency curve; with
// -write-every it also exercises snapshot publishes while the read load
// runs. -json merges the percentiles into a BENCH_*.json trajectory
// file in the cmd/benchjson format (names like
// ServeQuery/dataset=youtube/qps=200/p50, ns_per_op = latency), so the
// serving curve rides the same diff tooling as the micro benchmarks.
//
// -write-mix turns the driver into a mixed read/write workload: that
// fraction of arrivals become POST /update batches (-write-batch edges
// each) instead of queries. Read and write latencies are reported
// separately, and the per-batch view-maintenance cost is scraped from
// the server's gvserve_maintenance_* metrics before and after the run:
//
//	gvload -self -dataset youtube -qps 200 -write-mix 0.05 -json BENCH_PR8.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	gv "graphviews"
	"graphviews/internal/serve"
	"graphviews/internal/store"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gvload: "+format+"\n", args...)
	os.Exit(1)
}

// workload is the generated dataset: a graph (only used with -self) and
// the view set whose fragments the query mix glues together.
func workload(dataset string, nodes, edges, labels int, seed int64) (*gv.Graph, *gv.ViewSet) {
	switch dataset {
	case "youtube":
		return gv.GenerateYouTubeLike(nodes, edges, seed), gv.YouTubeViews()
	case "amazon":
		return gv.GenerateAmazonLike(nodes, edges, seed), gv.AmazonViews()
	case "citation":
		return gv.GenerateCitationLike(nodes, edges, seed), gv.CitationViews()
	case "uniform":
		return gv.GenerateUniform(nodes, edges, labels, seed), gv.SyntheticViews(labels, seed)
	default:
		fail("unknown -dataset %q (want youtube|amazon|citation|uniform)", dataset)
		return nil, nil
	}
}

// result is the JSON report of one run. The headline percentiles are
// read latencies; writes get their own block so a mixed run cannot
// smear update cost into the read curve.
type result struct {
	Dataset     string  `json:"dataset"`
	TargetQPS   int     `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	Duration    string  `json:"duration"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	Shed        int     `json:"shed"`
	Missed      int     `json:"missed_arrivals"`
	Publishes   int     `json:"publishes"`
	P50Us       float64 `json:"p50_us"`
	P90Us       float64 `json:"p90_us"`
	P95Us       float64 `json:"p95_us"`
	P99Us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`
	MeanUs      float64 `json:"mean_us"`

	// Mixed-workload block (present only with -write-mix > 0).
	WriteMix        float64 `json:"write_mix,omitempty"`
	Writes          int     `json:"writes,omitempty"`
	WriteP50Us      float64 `json:"write_p50_us,omitempty"`
	WriteP95Us      float64 `json:"write_p95_us,omitempty"`
	WriteP99Us      float64 `json:"write_p99_us,omitempty"`
	WriteMeanUs     float64 `json:"write_mean_us,omitempty"`
	MaintBatches    int64   `json:"maint_batches,omitempty"`
	MaintNsPerBatch float64 `json:"maint_ns_per_batch,omitempty"`
}

func main() {
	var (
		addr         = flag.String("addr", "", "gvserve base URL (e.g. http://127.0.0.1:8080); empty requires -self")
		self         = flag.Bool("self", false, "start an in-process gvserve on a loopback port and drive it")
		dataset      = flag.String("dataset", "youtube", "workload dataset: youtube|amazon|citation|uniform")
		nodes        = flag.Int("nodes", 20000, "generated graph nodes")
		edges        = flag.Int("edges", 80000, "generated graph edges")
		labels       = flag.Int("labels", 16, "label count for -dataset uniform")
		seed         = flag.Int64("seed", 1, "generator seed (graph, views and query mix)")
		qps          = flag.Int("qps", 200, "target arrival rate")
		duration     = flag.Duration("duration", 10*time.Second, "measurement window")
		concurrency  = flag.Int("concurrency", 32, "closed-loop worker count")
		queries      = flag.Int("queries", 8, "distinct glued queries in the mix")
		strategy     = flag.String("strategy", "minimal", "view-selection strategy: all|minimal|minimum")
		writeEvery   = flag.Duration("write-every", 0, "-self only: toggle edges and publish a new snapshot on this period (<=0 off)")
		writeMix     = flag.Float64("write-mix", 0, "fraction of arrivals issued as POST /update write batches (0 <= mix < 1; 0.05 = 95/5 read/write)")
		writeBatch   = flag.Int("write-batch", 4, "edge updates per write request (-write-mix); node ids drawn from [0,-nodes)")
		flushAfter   = flag.Int("flush-after", 0, "-self only: buffer updates in the coalescing feed until this many deltas pend (<=0 immediate)")
		publishAfter = flag.Int("publish-after", 0, "-self only: publish once this many deltas pend (<=0 off)")
		workers      = flag.Int("workers", 0, "-self only: engine worker bound")
		shards       = flag.Int("shards", 1, "-self only: snapshot shard count")
		maxInFlight  = flag.Int("max-inflight", 256, "-self only: admission bound")
		dataDir      = flag.String("data-dir", "", "-self only: durable store directory (WAL + checkpoints); empty = ephemeral")
		walSync      = flag.String("wal-sync", "always", "-self only: WAL sync policy with -data-dir: always, none, or an interval like 50ms")
		useMmap      = flag.Bool("mmap", false, "-self only: memory-map checkpoint part files at load (zero-copy; unix only)")
		persistExts  = flag.Bool("persist-exts", true, "-self only: persist view extensions in checkpoints so restarts skip rematerialization")
		walBacklog   = flag.Int64("wal-backlog", 256<<20, "-self only: WAL high-water mark in bytes before /healthz degrades; <=0 unlimited")
		jsonOut      = flag.String("json", "", "merge percentiles into this BENCH_*.json trajectory file")
		name         = flag.String("name", "ServeQuery", "benchmark name prefix for -json entries")
	)
	flag.Parse()
	if *writeMix < 0 || *writeMix >= 1 {
		fail("-write-mix %v out of range [0,1)", *writeMix)
	}

	g, vs := workload(*dataset, *nodes, *edges, *labels, *seed)

	base := *addr
	var srv *serve.Server
	var publishes0 int64
	if *self {
		// Durable self-serving: writes go through the WAL exactly as a
		// real gvserve would, so -write-mix runs measure the append cost.
		var st *store.Store
		if *dataDir != "" {
			policy, err := store.ParseSyncPolicy(*walSync)
			if err != nil {
				fail("%v", err)
			}
			st, err = store.Open(*dataDir, store.Options{Sync: policy, Mmap: *useMmap})
			if err != nil {
				fail("%v", err)
			}
			defer st.Close()
		}
		var err error
		srv, err = serve.NewServer(g, vs, serve.Config{
			Workers:           *workers,
			Shards:            *shards,
			MaxInFlight:       *maxInFlight,
			PublishEvery:      *writeEvery, // publisher runs only when updates pend
			PublishAfter:      *publishAfter,
			FlushAfter:        *flushAfter,
			Store:             st,
			PersistExtensions: *persistExts,
			WALBacklogBytes:   *walBacklog,
		})
		if err != nil {
			fail("%v", err)
		}
		defer srv.Close()
		srv.Recover() // replay any WAL tail from a previous -data-dir run
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("%v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() {
			if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "gvload: http server: %v\n", err)
			}
		}()
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "gvload: self-serving %s on %s (%d views, %d pairs)\n",
			*dataset, base, vs.Card(), srv.Current().Exts.TotalEdges())
	}
	if base == "" {
		fail("need -addr or -self")
	}
	base = strings.TrimRight(base, "/")

	// Pre-render the query mix: glued queries are contained in the views
	// by construction, so every request exercises the full
	// contain→MatchJoin answer path rather than the not-contained exit.
	rng := rand.New(rand.NewSource(*seed))
	bodies := make([][]byte, *queries)
	for i := range bodies {
		bodies[i] = []byte(gv.GlueQuery(rng, vs, 3, 3).String())
	}
	queryURL := base + "/query?strategy=" + *strategy

	client := &http.Client{Timeout: 30 * time.Second}
	// Warm the path (pools, TCP) before the measurement window.
	for i := 0; i < 2; i++ {
		doQuery(client, queryURL, bodies[i%len(bodies)])
	}

	// Optional write/publish churn while the read load runs: toggle a
	// few random edges and publish, all through the HTTP surface.
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	if *writeEvery > 0 && *self {
		publishes0 = readPublishes(client, base)
		go func() {
			t := time.NewTicker(*writeEvery)
			defer t.Stop()
			wrng := rand.New(rand.NewSource(*seed + 1))
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					var sb strings.Builder
					for i := 0; i < 4; i++ {
						op := "add"
						if wrng.Intn(2) == 0 {
							op = "del"
						}
						fmt.Fprintf(&sb, "%s %d %d\n", op, wrng.Intn(*nodes), wrng.Intn(*nodes))
					}
					req, err := http.NewRequest(http.MethodPost, base+"/update?publish=1", strings.NewReader(sb.String()))
					if err != nil {
						continue // malformed base URL; queries will report it
					}
					if resp, err := client.Do(req); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}

	// Closed-loop arrival pacing: a pacer emits one token per 1/qps
	// tick into a bounded backlog (one second deep); workers consume
	// tokens and issue one request each. When the server cannot keep
	// up, the backlog fills and further arrivals are counted as missed
	// instead of queueing unboundedly — achieved QPS then honestly
	// reports the sustainable rate.
	arrivals := make(chan struct{}, *qps)
	missed := 0
	go func() {
		interval := time.Second / time.Duration(*qps)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				close(arrivals)
				return
			case <-t.C:
				select {
				case arrivals <- struct{}{}:
				default:
					missed++
				}
			}
		}
	}()

	// Maintenance-cost baseline for the mixed workload: scrape the
	// cumulative propagation counters before and after the window; the
	// delta is exactly what this run's writes cost the view layer.
	updateURL := base + "/update"
	var maintNs0, maintBatches0 int64
	if *writeMix > 0 {
		maintNs0 = readMetric(client, base, "gvserve_maintenance_ns_total")
		maintBatches0 = readMetric(client, base, "gvserve_maintenance_batches_total")
	}

	type sample struct {
		ns    int64
		code  int
		write bool
	}
	perWorker := make([][]sample, *concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker rng: the write/read coin and write bodies must
			// not share the (unlocked) top-level rng across goroutines.
			wrng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			i := w
			for range arrivals {
				if *writeMix > 0 && wrng.Float64() < *writeMix {
					body := writeBody(wrng, *writeBatch, *nodes)
					t0 := time.Now()
					code := doQuery(client, updateURL, body)
					perWorker[w] = append(perWorker[w], sample{int64(time.Since(t0)), code, true})
					continue
				}
				body := bodies[i%len(bodies)]
				i++
				t0 := time.Now()
				code := doQuery(client, queryURL, body)
				perWorker[w] = append(perWorker[w], sample{int64(time.Since(t0)), code, false})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats, wlats []float64
	res := result{
		Dataset:   *dataset,
		TargetQPS: *qps,
		Duration:  elapsed.Round(time.Millisecond).String(),
		Missed:    missed,
	}
	var sumNs, wSumNs int64
	for _, samples := range perWorker {
		for _, s := range samples {
			res.Requests++
			switch {
			case s.code == http.StatusTooManyRequests:
				res.Shed++
			case s.code != http.StatusOK:
				res.Errors++
			case s.write:
				res.Writes++
				wlats = append(wlats, float64(s.ns))
				wSumNs += s.ns
			default:
				lats = append(lats, float64(s.ns))
				sumNs += s.ns
			}
		}
	}
	if len(lats) == 0 {
		fail("no successful requests (errors=%d shed=%d)", res.Errors, res.Shed)
	}
	sort.Float64s(lats)
	sort.Float64s(wlats)
	pctOf := func(ls []float64, q float64) float64 {
		i := int(math.Ceil(q*float64(len(ls)))) - 1
		if i < 0 {
			i = 0
		}
		return ls[i] / 1e3 // ns → µs
	}
	pct := func(q float64) float64 { return pctOf(lats, q) }
	res.AchievedQPS = float64(len(lats)+len(wlats)) / elapsed.Seconds()
	res.P50Us, res.P90Us, res.P95Us = pct(0.50), pct(0.90), pct(0.95)
	res.P99Us, res.MaxUs = pct(0.99), lats[len(lats)-1]/1e3
	res.MeanUs = float64(sumNs) / float64(len(lats)) / 1e3
	if *writeMix > 0 {
		res.WriteMix = *writeMix
		if len(wlats) > 0 {
			res.WriteP50Us = pctOf(wlats, 0.50)
			res.WriteP95Us = pctOf(wlats, 0.95)
			res.WriteP99Us = pctOf(wlats, 0.99)
			res.WriteMeanUs = float64(wSumNs) / float64(len(wlats)) / 1e3
		}
		res.MaintBatches = readMetric(client, base, "gvserve_maintenance_batches_total") - maintBatches0
		if res.MaintBatches > 0 {
			maintNs := readMetric(client, base, "gvserve_maintenance_ns_total") - maintNs0
			res.MaintNsPerBatch = float64(maintNs) / float64(res.MaintBatches)
		}
	}
	if srv != nil && *writeEvery > 0 {
		res.Publishes = int(readPublishes(client, base) - publishes0)
	}

	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(out))

	if *jsonOut != "" {
		prefix := fmt.Sprintf("Benchmark%s/dataset=%s/qps=%d", *name, *dataset, *qps)
		if *writeMix > 0 {
			// Mixed runs get their own series keyed by mix, so read-only
			// names stay comparable across trajectory files; mode=delta
			// is the key BENCH_PR8.json recorded delta propagation under.
			prefix = fmt.Sprintf("%s/mix=%d/mode=delta", prefix, int(math.Round(*writeMix*100)))
		}
		entries := map[string]benchEntry{
			prefix + "/p50":  {Iterations: int64(len(lats)), NsPerOp: res.P50Us * 1e3},
			prefix + "/p90":  {Iterations: int64(len(lats)), NsPerOp: res.P90Us * 1e3},
			prefix + "/p95":  {Iterations: int64(len(lats)), NsPerOp: res.P95Us * 1e3},
			prefix + "/p99":  {Iterations: int64(len(lats)), NsPerOp: res.P99Us * 1e3},
			prefix + "/mean": {Iterations: int64(len(lats)), NsPerOp: res.MeanUs * 1e3},
		}
		if *writeMix > 0 && len(wlats) > 0 {
			entries[prefix+"/write_p50"] = benchEntry{Iterations: int64(len(wlats)), NsPerOp: res.WriteP50Us * 1e3}
			entries[prefix+"/write_p99"] = benchEntry{Iterations: int64(len(wlats)), NsPerOp: res.WriteP99Us * 1e3}
		}
		if res.MaintBatches > 0 {
			entries[prefix+"/maint_ns_per_batch"] = benchEntry{Iterations: res.MaintBatches, NsPerOp: res.MaintNsPerBatch}
		}
		if err := mergeTrajectory(*jsonOut, entries); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "gvload: merged %d entries into %s\n", len(entries), *jsonOut)
	}
}

// writeBody renders one /update batch: n random add/del lines over the
// node id range (del of a missing edge is a legal no-op, so a blind mix
// keeps the graph size roughly stationary).
func writeBody(rng *rand.Rand, n, nodes int) []byte {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		op := "add"
		if rng.Intn(2) == 0 {
			op = "del"
		}
		fmt.Fprintf(&sb, "%s %d %d\n", op, rng.Intn(nodes), rng.Intn(nodes))
	}
	return []byte(sb.String())
}

// doQuery posts one pattern body and returns the HTTP status (0 on
// transport error).
func doQuery(client *http.Client, url string, body []byte) int {
	resp, err := client.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// readPublishes scrapes gvserve_publish_total from /metrics.
func readPublishes(client *http.Client, base string) int64 {
	return readMetric(client, base, "gvserve_publish_total")
}

// readMetric scrapes one unlabeled integer series from /metrics (0 when
// unreachable or absent).
func readMetric(client *http.Client, base, metric string) int64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, metric+" %d", &v); err == nil {
			return v
		}
	}
	return 0
}

// benchEntry mirrors cmd/benchjson's per-benchmark record so the merged
// file stays readable by `benchjson -diff`.
type benchEntry struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// mergeTrajectory folds entries into a BENCH_*.json file (creating it
// when absent), preserving existing benchmarks and the _meta block and
// keeping the deterministic sorted layout of cmd/benchjson.
func mergeTrajectory(path string, entries map[string]benchEntry) error {
	meta := map[string]string{"goarch": runtime.GOARCH, "goos": runtime.GOOS}
	benches := map[string]benchEntry{}
	if buf, err := os.ReadFile(path); err == nil {
		var doc struct {
			Meta       map[string]string     `json:"_meta"`
			Benchmarks map[string]benchEntry `json:"benchmarks"`
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if doc.Meta != nil {
			meta = doc.Meta
		}
		if doc.Benchmarks != nil {
			benches = doc.Benchmarks
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for k, v := range entries {
		benches[k] = v
	}

	var b strings.Builder
	b.WriteString("{\n  \"_meta\": ")
	mb, err := json.Marshal(meta) // encoding/json sorts map keys
	if err != nil {
		return err
	}
	b.Write(mb)
	b.WriteString(",\n  \"benchmarks\": {\n")
	names := make([]string, 0, len(benches))
	for n := range benches {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		eb, err := json.Marshal(benches[n])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "    %q: %s", n, eb)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  }\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
