package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	gv "graphviews"
	"graphviews/internal/serve"
	"graphviews/internal/store"
	"graphviews/internal/view"
)

// span is one timed call into a layer. Parent is the index of the span
// whose work this one accounts for (-1 for a root); the spans of one
// request share Req.
//
// The program has no spans of its own yet, so the harness times the
// program's entry point (a root span: an HTTP handler, ApplyUpdates,
// Publish) and then makes the same calls into the layers below itself,
// on a mirror of the program's state, recording each as a child. A child
// therefore follows its parent in time instead of nesting in it; self
// time is defined on lengths, so it does not care.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the spans kept in memory and written out; further
// spans still count toward every metric.
const maxSpans = 400000

// tracer keeps spans and per-name durations in memory until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	reqs    int
	// durs holds every span's duration by name, kept or dropped.
	durs map[string][]float64
	// counts holds the work counters recorded next to the spans.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: make(map[string][]float64), counts: make(map[string]float64)}
}

// newReq opens a request and returns its identifier.
func (t *tracer) newReq() int { t.reqs++; return t.reqs }

// timed runs fn as a span called name under parent and returns the
// span's index (or -1 once maxSpans is reached).
func (t *tracer) timed(name string, parent, req int, fn func()) int {
	start := time.Since(t.t0).Nanoseconds()
	fn()
	end := time.Since(t.t0).Nanoseconds()
	t.durs[name] = append(t.durs[name], float64(end-start))
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, start, end, parent, req})
	return len(t.spans) - 1
}

// coveredNs is the total length of the union of the children's
// intervals.
func coveredNs(children []span) int64 {
	iv := append([]span(nil), children...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, end int64
	for i, c := range iv {
		if i == 0 || c.Start > end {
			total += c.dur()
			end = c.End
		} else if c.End > end {
			total += c.End - end
			end = c.End
		}
	}
	return total
}

// selfNs is a span's duration minus the part its children cover, never
// below zero.
func selfNs(parent span, children []span) int64 {
	return max(parent.dur()-coveredNs(children), 0)
}

// selfTimes computes, for every kept root span called name, its self
// time in ns.
func (t *tracer) selfTimes(name string) []float64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(selfNs(s, kids[i])))
		}
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int    `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// tracedCrashCycles is the number of crash cycles the traced replay of a
// durable workload runs; each restarts both the program and the mirror.
const tracedCrashCycles = 2

// TraceResult is the outcome of one traced run.
type TraceResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Metrics   []Metric `json:"metrics"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Layers is the per-layer roll-up the report prints.
	Layers []LayerRow `json:"layers"`
	// Coverage is, per root span name, the share of its total time that
	// its child spans account for.
	Coverage map[string]float64 `json:"coverage"`
}

// LayerRow summarizes one span name.
type LayerRow struct {
	Layer  string  `json:"layer"`
	Span   string  `json:"span"`
	Calls  int     `json:"calls"`
	BusyMs float64 `json:"busy_ms"`
	P50Us  float64 `json:"p50_us"`
}

// traced is the state of one traced replay: the program (a serve.Server
// driven through its public entry points) and the harness's mirror of
// it, on which the layer calls are repeated.
type traced struct {
	w   Workload
	in  *Inputs
	t   *tracer
	res *TraceResult
	dir string

	eng *gv.Engine // the harness's engine, configured like the server's

	srv      *serve.Server
	srvStore *store.Store
	handler  http.Handler

	// The mirror: graph, maintained views and store kept in lockstep with
	// the program's, and the state as of the last publish.
	g      *gv.Graph
	vs     *gv.ViewSet
	maint  *gv.Maintained
	feed   *gv.Feed
	st     *store.Store
	exts   *gv.Extensions
	frozen gv.GraphReader
	base   view.MaintStats // mirror counters when the replay began
}

func (x *traced) fail(format string, args ...any) {
	x.res.Failed++
	if len(x.res.Problems) < 8 {
		x.res.Problems = append(x.res.Problems, fmt.Sprintf(format, args...))
	}
}

// runTraced replays w's schedule in this process, one op at a time, and
// returns the per-layer metrics. The number of ops depends only on
// seconds, so for a fixed seed every count repeats exactly. dir must
// exist and be empty; the caller removes it.
func runTraced(w Workload, seed int64, seconds float64, dir string) (*TraceResult, *tracer, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := in.writeFiles(dir); err != nil {
		return nil, nil, err
	}
	x := &traced{
		w: w, in: in, t: newTracer(), dir: dir,
		res: &TraceResult{Workload: w.Name, Seed: seed},
		eng: gv.NewEngine(gv.WithParallelism(0), gv.WithShards(w.Shards)),
	}
	defer x.close()
	if err := x.boot(); err != nil {
		return nil, nil, err
	}

	scheds := [numClients]*schedule{}
	for i := range scheds {
		scheds[i] = newSchedule(in, i)
	}
	ops := max(int(float64(w.TracedOps)*seconds), 8)

	// Handler-only pass: the same requests with nothing between them, to
	// show what interleaving the layer calls costs the handler.
	var bare []float64
	for i := 0; i < max(ops/4, 4); i++ {
		q := scheds[i%numClients].next([]opKind{opQuery}).Query
		t := time.Now()
		rec := x.serveQuery(q)
		bare = append(bare, float64(time.Since(t).Nanoseconds()))
		if rec.Code != http.StatusOK {
			x.fail("%s: status %d", in.Queries[q].Name, rec.Code)
		}
	}
	x.res.Attempted += len(bare)

	for i := 0; i < ops; i++ {
		x.op(scheds[i%numClients].next(w.Mix))
	}
	if w.readOnly() {
		// The write tail of the untraced run, so that the write-side
		// layers are measured on this workload's data too.
		updates, publishes := w.tailSize(seconds)
		for i := 0; i < updates/4; i++ {
			x.op(op{Kind: opUpdate, Batch: scheds[0].batch()})
		}
		for i := 0; i < publishes/4; i++ {
			x.op(op{Kind: opPublish, Batch: scheds[0].batch()})
		}
	}
	x.publish(-1, x.t.newReq())
	if w.Durable {
		for c := 0; c < tracedCrashCycles; c++ {
			for i := 0; i < crashBatches; i++ {
				x.op(op{Kind: opUpdate, Batch: scheds[i%numClients].batch()})
			}
			if err := x.crash(); err != nil {
				return nil, nil, err
			}
		}
	}
	x.finalCheck()
	x.metrics(bare)
	return x.res, x.t, nil
}

// boot loads the files, starts the program and builds the mirror.
func (x *traced) boot() error {
	var g *gv.Graph
	var err error
	x.t.timed("store.workload_reload", -1, 0, func() { g, x.vs, err = loadFiles(x.in.GraphFile, x.in.ViewsFile) })
	if err != nil {
		return err
	}
	if err := x.startProgram(g); err != nil {
		return err
	}
	if x.w.Durable {
		if x.st, err = store.Open(filepath.Join(x.dir, "data-mirror"), store.Options{}); err != nil {
			return err
		}
	}

	x.g = x.in.Graph.Clone()
	x.t.timed("view.materialize", -1, 0, func() { x.maint, err = x.eng.Maintain(x.g, x.vs) })
	if err != nil {
		return err
	}
	x.feed = gv.NewFeed(x.maint)
	x.t.counts["view.ext_pairs"] = float64(x.maint.X.TotalEdges())
	x.publish(-1, 0)
	x.base = x.maint.Stats
	return nil
}

// startProgram does what cmd/gvserve does after reading its files: open
// the data directory, prefer its checkpoint over g, build the server and
// replay the WAL tail.
func (x *traced) startProgram(g *gv.Graph) error {
	if x.w.Durable {
		st, err := store.Open(filepath.Join(x.dir, "data-program"), store.Options{})
		if err != nil {
			return err
		}
		x.srvStore = st
		if base := st.Base(); base != nil {
			g = thaw(base)
		}
	}
	cfg := serve.Config{Workers: 0, Shards: x.w.Shards, MaxInFlight: 64, RequestTimeout: 5 * time.Second,
		Store: x.srvStore, PersistExtensions: x.w.Durable}
	srv, err := serve.NewServer(g, x.vs, cfg)
	if err != nil {
		return err
	}
	srv.Recover()
	x.srv, x.handler = srv, srv.Handler()
	return nil
}

func (x *traced) close() {
	if x.srv != nil {
		x.srv.Close()
	}
	for _, st := range []*store.Store{x.srvStore, x.st} {
		if st != nil {
			st.Close()
		}
	}
}

// serveQuery sends query q through the program's HTTP handler.
func (x *traced) serveQuery(q int) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query?"+x.w.QueryParams, bytes.NewReader(x.in.Bodies[q]))
	x.handler.ServeHTTP(rec, req)
	return rec
}

// op replays one scheduled op: the program's entry point as a root span,
// then the layer calls beneath it on the mirror.
func (x *traced) op(o op) {
	x.res.Attempted++
	req := x.t.newReq()
	if o.Kind == opQuery {
		x.query(o.Query, req)
		return
	}
	var applied int
	var err error
	root := x.t.timed("serve.update_handler", -1, req, func() { applied, _, err = x.srv.ApplyUpdates(o.Batch) })
	if err != nil {
		x.fail("ApplyUpdates: %v", err)
		return
	}
	if x.st != nil {
		x.t.timed("store.wal_append", root, req, func() { err = x.st.Append(o.Batch) })
		if err != nil {
			x.fail("mirror WAL append: %v", err)
		}
	}
	x.t.timed("view.coalesce", root, req, func() { view.Coalesce(o.Batch) })
	var mirrored int
	x.t.timed("view.apply_batch", root, req, func() {
		x.feed.Submit(o.Batch...)
		mirrored = x.feed.Flush()
	})
	if mirrored != applied {
		x.fail("update: the program applied %d edge updates, the mirror %d", applied, mirrored)
	}
	x.in.applyToModel([][]gv.EdgeUpdate{o.Batch})
	x.t.counts["updates_acked"] += float64(len(o.Batch))
	if o.Kind == opPublish {
		x.publish(-1, req)
	}
}

// query replays one /query and checks the program's answer against the
// mirror's MatchJoin over the same published state.
func (x *traced) query(q, req int) {
	var rec *httptest.ResponseRecorder
	root := x.t.timed("serve.query_handler", -1, req, func() { rec = x.serveQuery(q) })
	got, ok := parseAnswer(rec.Body.Bytes())
	if rec.Code != http.StatusOK || !ok {
		x.fail("%s: status %d: %.120s", x.in.Queries[q].Name, rec.Code, rec.Body.Bytes())
		return
	}
	x.t.counts["response_bytes"] += float64(rec.Body.Len())
	x.t.counts["responses"]++

	var (
		p   *gv.Pattern
		l   *gv.Lambda
		res *gv.Result
		st  gv.Stats
		err error
		ok2 bool
	)
	x.t.timed("pattern.parse", root, req, func() { p, err = gv.ParsePattern(string(x.in.Bodies[q])) })
	if err != nil {
		x.fail("parse %s: %v", x.in.Queries[q].Name, err)
		return
	}
	x.t.timed("core.select", root, req, func() { _, l, ok2, err = gv.MinimalViews(p, x.exts.Set) })
	if err != nil || !ok2 {
		x.fail("%s: not contained in the views (%v)", p.Name, err)
		return
	}
	x.t.timed("core.matchjoin", root, req, func() { res, st, err = x.eng.MatchJoin(p, x.exts, l) })
	if err != nil {
		x.fail("MatchJoin %s: %v", p.Name, err)
		return
	}
	x.t.counts["core.initial_pairs"] += float64(st.InitialPairs)
	x.t.counts["core.pair_kills"] += float64(st.PairKills)
	x.t.counts["core.edge_scans"] += float64(st.EdgeScans)
	x.t.counts["core.result_pairs"] += float64(res.Size())
	if mine := (answer{res.Matched, res.Size()}); got != mine {
		x.fail("%s: the program answered %+v, the mirror's MatchJoin %+v", p.Name, got, mine)
	}
}

// publish replays one publish: the program's Publish as a root span —
// unless the caller passes the root these steps belong to, as crash does
// — then extension snapshot, freeze or shard, and checkpoint on the
// mirror.
func (x *traced) publish(parent, req int) {
	root := parent
	if parent < 0 && x.srv != nil {
		root = x.t.timed("serve.publish", -1, req, func() { x.srv.Publish() })
	}
	x.t.timed("view.snapshot_exts", root, req, func() { x.exts = x.maint.SnapshotExtensions() })
	name := "graph.freeze"
	if x.w.Shards > 1 {
		name = "graph.shard"
	}
	var err error
	x.t.timed(name, root, req, func() { x.frozen, err = x.eng.Snapshot(x.g) })
	if err != nil {
		x.fail("mirror snapshot: %v", err)
	}
	if x.st != nil {
		x.t.timed("store.checkpoint", root, req, func() { err = x.st.Checkpoint(x.frozen, x.exts, x.maint.Version()) })
		if err != nil {
			x.fail("mirror checkpoint: %v", err)
		}
	}
	x.t.counts["serve.publishes"]++
}

// crash drops the program and the mirror without publishing and brings
// both back from their data directories, as a restart after kill -9
// does: the program through store.Open, NewServer and Recover as one
// root span, the mirror step by step.
func (x *traced) crash() error {
	x.res.Attempted++
	req := x.t.newReq()
	x.foldStoreStats()
	x.foldMaintStats()
	x.close()
	x.srv, x.srvStore, x.st = nil, nil, nil

	var err error
	root := x.t.timed("serve.recover", -1, req, func() {
		var g *gv.Graph
		if g, _, err = loadFiles(x.in.GraphFile, x.in.ViewsFile); err == nil {
			err = x.startProgram(g)
		}
	})
	if err != nil {
		return fmt.Errorf("restart the program: %w", err)
	}

	x.t.timed("store.workload_reload", root, req, func() { _, _, err = loadFiles(x.in.GraphFile, x.in.ViewsFile) })
	if err != nil {
		return err
	}
	x.t.timed("store.open", root, req, func() { x.st, err = store.Open(filepath.Join(x.dir, "data-mirror"), store.Options{}) })
	if err != nil {
		return fmt.Errorf("reopen the mirror store: %w", err)
	}
	if x.st.Base() == nil {
		return fmt.Errorf("the mirror store holds no checkpoint after a publish")
	}
	x.t.timed("graph.thaw", root, req, func() { x.g = thaw(x.st.Base()) })
	var restored *gv.Extensions
	var ok bool
	x.t.timed("store.exts_restore", root, req, func() { restored, ok = x.st.BaseExtensions(x.vs) })
	if !ok {
		return fmt.Errorf("the mirror checkpoint's extensions do not match the view set")
	}
	x.maint = x.eng.MaintainFrom(x.g, restored)
	x.feed = gv.NewFeed(x.maint)
	x.base = view.MaintStats{} // a restored Maintained counts from zero
	tail := x.st.Tail()
	x.t.timed("store.replay", root, req, func() {
		for _, b := range tail {
			x.feed.Submit(b...)
			x.feed.Flush()
		}
	})
	x.t.counts["store.tail_records"] += float64(len(tail))
	x.foldMaintStats()
	x.publish(root, req)
	if got, want := x.g.NumEdges(), x.in.Graph.NumEdges(); got != want {
		x.fail("after the restart the mirror holds %d edges, the model %d", got, want)
	}
	if got, want := x.srv.Current().Graph.NumEdges(), x.in.Graph.NumEdges(); got != want {
		x.fail("after the restart the program serves %d edges, the model %d", got, want)
	}
	return nil
}

// foldStoreStats adds the mirror store's WAL and checkpoint counters to
// the run's counts; they start from zero again when the store reopens.
func (x *traced) foldStoreStats() {
	if x.st == nil {
		return
	}
	x.t.counts["store.wal_bytes"] += float64(x.st.WALStats().AppendedBytes.Load())
	x.t.counts["store.wal_fsyncs"] += float64(x.st.WALStats().Fsyncs.Load())
	cs := x.st.CheckpointStats()
	x.t.counts["store.checkpoint_bytes"] += float64(cs.BytesWritten.Load())
	x.t.counts["store.shards_written"] += float64(cs.ShardsWritten.Load())
	x.t.counts["store.shards_skipped"] += float64(cs.ShardsSkipped.Load())
}

// foldMaintStats adds what the mirror's maintenance did since the last
// fold to the run's counts.
func (x *traced) foldMaintStats() {
	s, b := x.maint.Stats, x.base
	x.t.counts["view.delta_props"] += float64(s.DeltaProps - b.DeltaProps)
	x.t.counts["view.recomputes"] += float64(s.Recomputes - b.Recomputes)
	x.t.counts["view.skips"] += float64(s.Skips - b.Skips)
	x.t.counts["view.coalesced_away"] += float64(s.CoalescedAway - b.CoalescedAway)
	x.t.counts["view.affected_pairs"] += float64(s.AffectedPairs - b.AffectedPairs)
	x.t.counts["view.batches"] += float64(s.Batches - b.Batches)
	x.t.counts["view.propagate_ns"] += float64(s.PropagateNs - b.PropagateNs)
	x.base = s
}

// finalCheck compares the program's answer to every distinct query with
// direct simulation over the model, one query at a time so that the
// simulation times are usable, and checks that program, mirror and
// model agree on the graph.
func (x *traced) finalCheck() {
	want, took := expected(x.in.Graph, x.in.Queries, 1)
	for q := range x.in.Queries {
		x.res.Attempted++
		x.t.durs["simulation.direct_match"] = append(x.t.durs["simulation.direct_match"], float64(took[q].Nanoseconds()))
		rec := x.serveQuery(q)
		got, ok := parseAnswer(rec.Body.Bytes())
		if rec.Code != http.StatusOK || !ok || got != want[q] {
			x.fail("%s: the program answered %+v (status %d), direct simulation %+v", x.in.Queries[q].Name, got, rec.Code, want[q])
		}
	}
	if p, m, model := x.srv.Current().Graph.NumEdges(), x.g.NumEdges(), x.in.Graph.NumEdges(); p != model || m != model {
		x.fail("edge counts differ: program %d, mirror %d, model %d", p, m, model)
	}
}

// p50 returns the median duration of the spans called name, in unit
// ("ms" or "us"); 0 when the span never ran.
func (t *tracer) p50(name, unit string) Metric {
	m := Metric{Name: name + "_" + unit, Unit: unit, N: len(t.durs[name])}
	if m.N > 0 {
		m.Value = median(t.durs[name]) / map[string]float64{"ms": 1e6, "us": 1e3}[unit]
	}
	return m
}

// count returns a recorded counter as a metric.
func (t *tracer) count(name, unit string) Metric {
	return Metric{Name: name, Value: t.counts[name], Unit: unit}
}

// quotient returns num/den as a metric, 0 when den is 0.
func quotient(name, unit string, num, den float64) Metric {
	m := Metric{Name: name, Unit: unit}
	if den != 0 {
		m.Value = num / den
	}
	return m
}

// metrics derives the per-layer metrics from spans and counts, in the
// order BENCHMARK.json lists them.
func (x *traced) metrics(bare []float64) {
	t := x.t
	x.foldStoreStats()
	x.foldMaintStats()
	c := t.counts
	selfMs := func(name, root string) Metric {
		m := Metric{Name: name, Unit: "ms"}
		if s := t.selfTimes(root); len(s) > 0 {
			m.Value, m.N = median(s)/1e6, len(s)
		}
		return m
	}
	direct, mj := t.p50("simulation.direct_match", "ms"), t.p50("core.matchjoin", "ms")
	speedup := quotient("core.speedup_vs_direct", "ratio", direct.Value, mj.Value)
	speedup.Note = fmt.Sprintf("direct %.3f ms over MatchJoin %.3f ms, medians", direct.Value, mj.Value)
	overhead := quotient("trace.overhead_share", "ratio", t.p50("serve.query_handler", "ms").Value*1e6-median(bare), median(bare))
	overhead.Note = fmt.Sprintf("handler p50 %.1f us between layer calls, %.1f us back to back", t.p50("serve.query_handler", "us").Value, median(bare)/1e3)

	x.res.Metrics = []Metric{
		t.p50("serve.query_handler", "ms"), selfMs("serve.query_self_ms", "serve.query_handler"),
		quotient("serve.response_bytes", "B", c["response_bytes"], c["responses"]),
		t.p50("serve.update_handler", "ms"), selfMs("serve.update_self_ms", "serve.update_handler"),
		t.p50("serve.publish", "ms"), t.p50("serve.recover", "ms"),
		t.p50("pattern.parse", "us"), t.p50("core.select", "us"), t.p50("core.matchjoin", "ms"),
		t.count("core.initial_pairs", "count"), t.count("core.pair_kills", "count"),
		t.count("core.edge_scans", "count"), t.count("core.result_pairs", "count"),
		quotient("core.survivor_ratio", "ratio", c["core.result_pairs"], c["core.initial_pairs"]),
		direct, speedup,
		t.p50("view.materialize", "ms"), t.count("view.ext_pairs", "count"),
		t.p50("view.coalesce", "us"), t.p50("view.apply_batch", "ms"),
		quotient("view.propagate_ns_per_batch", "ns", c["view.propagate_ns"], c["view.batches"]),
		t.count("view.delta_props", "count"), t.count("view.recomputes", "count"), t.count("view.skips", "count"),
		t.count("view.coalesced_away", "count"), t.count("view.affected_pairs", "count"),
		quotient("view.relevant_share", "ratio", c["view.delta_props"]+c["view.recomputes"], c["view.delta_props"]+c["view.recomputes"]+c["view.skips"]),
		t.p50("view.snapshot_exts", "us"),
		t.p50("graph.freeze", "ms"), t.p50("graph.shard", "ms"), t.p50("graph.thaw", "ms"),
		t.p50("store.wal_append", "us"), t.count("store.wal_fsyncs", "count"), t.count("store.wal_bytes", "B"),
		t.p50("store.checkpoint", "ms"), t.count("store.checkpoint_bytes", "B"),
		t.count("store.shards_written", "count"), t.count("store.shards_skipped", "count"),
		quotient("store.dirty_shard_share", "ratio", c["store.shards_written"], c["store.shards_written"]+c["store.shards_skipped"]),
		quotient("store.disk_bytes_per_update", "B", c["store.wal_bytes"]+c["store.checkpoint_bytes"], c["updates_acked"]),
		t.p50("store.open", "ms"), t.p50("store.exts_restore", "ms"), t.p50("store.replay", "ms"),
		t.count("store.tail_records", "count"), t.p50("store.workload_reload", "ms"),
		t.count("serve.publishes", "count"),
		overhead,
	}

	// Roll-up and coverage.
	names := make([]string, 0, len(t.durs))
	for n := range t.durs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var busy float64
		for _, d := range t.durs[n] {
			busy += d
		}
		layer, _, _ := strings.Cut(n, ".")
		x.res.Layers = append(x.res.Layers, LayerRow{layer, n, len(t.durs[n]), busy / 1e6, median(t.durs[n]) / 1e3})
	}
	x.res.Coverage = make(map[string]float64)
	rootBusy, kidBusy := make(map[string]float64), make(map[string]float64)
	for _, s := range t.spans {
		if s.Parent < 0 {
			rootBusy[s.Name] += float64(s.dur())
		} else {
			kidBusy[t.spans[s.Parent].Name] += float64(s.dur())
		}
	}
	for n, b := range rootBusy {
		if kidBusy[n] > 0 {
			x.res.Coverage[n] = kidBusy[n] / b
		}
	}
}
