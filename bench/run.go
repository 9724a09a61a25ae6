package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	gv "graphviews"
)

// setupCycles is how many times a run starts the server from scratch;
// setup_s is the median. Ephemeral workloads also take recovery_s from
// these cycles: without a data directory, recovering from kill -9 is
// starting over.
const setupCycles = 5

// sample is one completed client operation of a measured phase.
type sample struct {
	kind opKind
	ns   int64
}

// Result is the outcome of one untraced run of one workload.
type Result struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Metrics  []Metric `json:"metrics"`
	// Attempted counts every operation sent, measured or checking;
	// Failed those that returned non-200, timed out or failed the oracle.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Problems holds the first few failure descriptions.
	Problems []string `json:"problems,omitempty"`
	// ClientCPUShare is the harness's own CPU time during the measured
	// window as a share of all cores: how much of the sandbox the load
	// generator took from the server.
	ClientCPUShare float64 `json:"client_cpu_share"`
	// MaintNsPerBatch is gvserve_maintenance_ns_total over
	// gvserve_maintenance_batches_total across the measured phases, the
	// cross-check of the traced view.propagate_ns_per_batch.
	MaintNsPerBatch float64 `json:"maint_ns_per_batch"`
	// LockWaitShare is the share of /update samples slower than three
	// times their median (serve.lock_wait_share).
	LockWaitShare float64 `json:"lock_wait_share"`
	// DiskBytesPerUpdate is WAL plus checkpoint bytes per acknowledged
	// edge update across the measured phases (durable workloads).
	DiskBytesPerUpdate float64 `json:"disk_bytes_per_update"`
}

// runner carries one run's state through its phases.
type runner struct {
	w       Workload
	in      *Inputs
	l       launcher
	dataDir string
	srv     running
	scheds  [numClients]*schedule
	clients [numClients]*http.Client
	res     *Result
	mu      sync.Mutex // guards res.Attempted, res.Failed, res.Problems, and in.Graph while clients run
	// lapStart is when the current phase began (see lap).
	lapStart time.Time
}

// fail records a failed operation.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Failed++
	if len(r.res.Problems) < 8 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// lap prints how long the phase that just ended took; the total of a run
// is what the driver's time limit applies to.
func (r *runner) lap(phase string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "bench: %s %s: %.2fs\n", r.w.Name, phase, now.Sub(r.lapStart).Seconds())
	r.lapStart = now
}

func (r *runner) attempt() {
	r.mu.Lock()
	r.res.Attempted++
	r.mu.Unlock()
}

// runUntraced runs workload w end to end against a server started by l
// and returns its end-to-end metrics. dir must exist and be empty; the
// caller removes it.
func runUntraced(w Workload, seed int64, seconds float64, l launcher, dir string) (*Result, error) {
	begin := time.Now()
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	if err := in.writeFiles(dir); err != nil {
		return nil, err
	}
	r := &runner{
		w: w, in: in, l: l, dataDir: filepath.Join(dir, "data"),
		res:      &Result{Workload: w.Name, Seed: seed, Seconds: seconds},
		lapStart: begin,
	}
	defer func() {
		if r.srv != nil {
			r.srv.kill()
		}
	}()
	want, _ := expected(in.Graph, in.Queries, 0)
	r.lap("inputs and oracle")

	setups, recoveries, err := r.setupPhase()
	if err != nil {
		return nil, err
	}
	r.lap("set-up cycles")
	for i := range r.scheds {
		r.scheds[i] = newSchedule(in, i)
		r.clients[i] = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	defer func() {
		for _, c := range r.clients {
			c.CloseIdleConnections()
		}
	}()

	// Measured phases. Queries of a read-only window are checked one by
	// one; beside writes the answer depends on which epoch a request saw,
	// so those are checked after the window, on a quiesced server.
	var checkEach []answer
	if w.readOnly() {
		checkEach = want
	}
	warm := max(seconds/10, 0.2)
	r.phase(w.Mix, warm, checkEach) // samples dropped; acked updates still reach the model
	before, err := r.counters()
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	window, took := r.phase(w.Mix, seconds, checkEach)
	r.res.ClientCPUShare = (selfCPU() - cpu0).Seconds() / took.Seconds() / float64(numCPU())
	writes, writeTook := window, took
	if w.readOnly() {
		writes, writeTook = r.writeTail(seconds)
	}
	after, err := r.counters()
	if err != nil {
		return nil, err
	}
	rss, err := r.srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.lap("warm-up and measured phases")

	// Quiesced check: every acked update is in the model; publish and
	// compare every distinct query.
	if err := r.publish(); err != nil {
		return nil, err
	}
	want, _ = expected(in.Graph, in.Queries, 0)
	r.checkQueries(want, 0, len(want))
	r.checkSnapshot(-1)
	r.lap("quiesced check")

	if w.Durable {
		recoveries, err = r.crashPhase()
		if err != nil {
			return nil, err
		}
		r.lap("crash cycles")
	}
	r.srv.kill()
	r.srv = nil

	r.res.Metrics = e2eMetrics(w, setups, recoveries, window, took, writes, writeTook, rss)
	r.res.LockWaitShare = lockWaitShare(writes)
	if d := after["gvserve_maintenance_batches_total"] - before["gvserve_maintenance_batches_total"]; d > 0 {
		r.res.MaintNsPerBatch = (after["gvserve_maintenance_ns_total"] - before["gvserve_maintenance_ns_total"]) / d
	}
	if d := after["gvserve_updates_applied_total"] - before["gvserve_updates_applied_total"]; d > 0 {
		bytes := after["gvserve_wal_appended_bytes_total"] - before["gvserve_wal_appended_bytes_total"] +
			after["gvserve_checkpoint_bytes_total"] - before["gvserve_checkpoint_bytes_total"]
		r.res.DiskBytesPerUpdate = bytes / d
	}
	return r.res, nil
}

// setupPhase starts the server setupCycles times and leaves the last one
// running. It returns spawn-to-healthy times and, for ephemeral
// workloads, kill-to-healthy times.
func (r *runner) setupPhase() (setups, recoveries []float64, err error) {
	var killedAt time.Time
	for i := 0; i < setupCycles; i++ {
		if r.w.Durable {
			if err := os.RemoveAll(r.dataDir); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		if err := r.start(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if !r.w.Durable && !killedAt.IsZero() {
			recoveries = append(recoveries, time.Since(killedAt).Seconds())
		}
		if i < setupCycles-1 {
			killedAt = time.Now()
			r.srv.kill()
			r.srv = nil
		}
	}
	return setups, recoveries, nil
}

// start launches the server and waits until it is healthy.
func (r *runner) start() error {
	srv, err := r.l.launch(r.w, r.in, r.dataDir)
	if err != nil {
		return err
	}
	r.srv = srv
	return waitHealthy(srv.baseURL(), 120*time.Second)
}

// phase runs every client's closed loop over mix for seconds and returns
// the samples of successful ops and the wall time. Each client sends its
// next request only when the previous one has been answered. A client
// gives up after maxStreak failures in a row: the
// server is gone, and spinning on it would only inflate the counts.
func (r *runner) phase(mix []opKind, seconds float64, check []answer) ([]sample, time.Duration) {
	const maxStreak = 20
	var wg sync.WaitGroup
	per := make([][]sample, numClients)
	start := time.Now()
	stop := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var acked [][]gv.EdgeUpdate
			for streak := 0; streak < maxStreak && time.Now().Before(stop); {
				o := r.scheds[c].next(mix)
				ns, ok := r.do(r.clients[c], o, check)
				if !ok {
					streak++
					continue
				}
				streak = 0
				per[c] = append(per[c], sample{o.Kind, ns})
				if o.Kind != opQuery {
					acked = append(acked, o.Batch)
				}
			}
			// The partitions are disjoint, so the order in which the
			// clients' batches reach the model does not matter.
			r.mu.Lock()
			r.in.applyToModel(acked)
			r.mu.Unlock()
		}(c)
	}
	wg.Wait()
	took := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, took
}

// writeTail gives a read-only workload its write metrics: one client
// sends plain update batches, then publishing ones. One client, so that
// the numbers are the write path's own cost on this workload's data and
// flags and not its queueing. The returned time covers the plain updates
// only, which is what update_eps divides by.
func (r *runner) writeTail(seconds float64) ([]sample, time.Duration) {
	updates, publishes := r.w.tailSize(seconds)
	var samples []sample
	var acked [][]gv.EdgeUpdate
	send := func(kind opKind, n int) {
		for i := 0; i < n; i++ {
			o := op{Kind: kind, Batch: r.scheds[0].batch()}
			if ns, ok := r.do(r.clients[0], o, nil); ok {
				samples = append(samples, sample{kind, ns})
				acked = append(acked, o.Batch)
			}
		}
	}
	start := time.Now()
	send(opUpdate, updates)
	took := time.Since(start)
	send(opPublish, publishes)
	r.in.applyToModel(acked)
	return samples, took
}

// post sends one op and returns the response body and the client-side
// latency. ok is false when the op failed; the failure is already
// recorded.
func (r *runner) post(cl *http.Client, o op) (data []byte, ns int64, ok bool) {
	r.attempt()
	url, body := r.srv.baseURL()+"/update", []byte(nil)
	switch o.Kind {
	case opQuery:
		url, body = r.srv.baseURL()+"/query?"+r.w.QueryParams, r.in.Bodies[o.Query]
	case opPublish:
		url, body = url+"?publish=1", updateBody(o.Batch)
	default:
		body = updateBody(o.Batch)
	}
	start := time.Now()
	resp, err := cl.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		r.fail("%s: %v", url, err)
		return nil, 0, false
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ns = time.Since(start).Nanoseconds()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.fail("%s: status %d, read error %v: %.120s", url, resp.StatusCode, err, data)
		return nil, 0, false
	}
	return data, ns, true
}

// do is post plus, for a query, reading the answer and comparing it
// with check (when check is not nil).
func (r *runner) do(cl *http.Client, o op, check []answer) (ns int64, ok bool) {
	data, ns, ok := r.post(cl, o)
	if !ok || o.Kind != opQuery {
		return ns, ok
	}
	name := r.in.Queries[o.Query].Name
	got, ok := parseAnswer(data)
	if !ok {
		r.fail("%s: unreadable answer %.120s", name, data)
		return 0, false
	}
	if check != nil && got != check[o.Query] {
		r.fail("%s: got %+v, direct simulation says %+v", name, got, check[o.Query])
		return 0, false
	}
	return ns, true
}

// parseAnswer extracts matched and size from a /query response. The
// fields lead the body, so a scan of its head avoids decoding thousands
// of pairs on the client; anything unexpected falls back to a full decode.
func parseAnswer(body []byte) (answer, bool) {
	head := body[:min(len(body), 256)]
	if i := bytes.Index(head, []byte(`"matched":`)); i >= 0 {
		rest := head[i+len(`"matched":`):]
		matched := bytes.HasPrefix(rest, []byte("true"))
		if j := bytes.Index(rest, []byte(`"size":`)); j >= 0 && (matched || bytes.HasPrefix(rest, []byte("false"))) {
			digits := rest[j+len(`"size":`):]
			end := 0
			for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
				end++
			}
			if n, err := strconv.Atoi(string(digits[:end])); err == nil && end < len(digits) {
				return answer{matched, n}, true
			}
		}
	}
	var full struct {
		Matched *bool `json:"matched"`
		Size    *int  `json:"size"`
	}
	if err := json.Unmarshal(body, &full); err != nil || full.Matched == nil || full.Size == nil {
		return answer{}, false
	}
	return answer{*full.Matched, *full.Size}, true
}

// publish swaps in a snapshot of everything acknowledged so far.
func (r *runner) publish() error {
	r.attempt()
	resp, err := r.clients[0].Post(r.srv.baseURL()+"/publish", "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/publish: status %d", resp.StatusCode)
	}
	return nil
}

// checkQueries asks queries [lo, hi) once and compares each answer with
// the oracle's.
func (r *runner) checkQueries(want []answer, lo, hi int) {
	for q := lo; q < hi; q++ {
		r.do(r.clients[0], op{Kind: opQuery, Query: q}, want)
	}
}

// checkSnapshot compares /snapshot with the model: the edge count always,
// the write clock when version >= 0. A server that has just recovered
// reports healthy a moment before it publishes what it replayed, so a
// pending backlog gets a short while to drain before it counts.
func (r *runner) checkSnapshot(version int64) {
	r.attempt()
	var snap struct {
		Version uint64 `json:"version"`
		Pending uint64 `json:"pending"`
		Edges   int    `json:"edges"`
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := r.clients[0].Get(r.srv.baseURL() + "/snapshot")
		if err != nil {
			r.fail("/snapshot: %v", err)
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			r.fail("/snapshot: %v", err)
			return
		}
		if snap.Pending == 0 || time.Now().After(deadline) {
			break
		}
	}
	if snap.Edges != r.in.Graph.NumEdges() || snap.Pending != 0 {
		r.fail("/snapshot: %d edges, %d pending; the model has %d edges and nothing pending", snap.Edges, snap.Pending, r.in.Graph.NumEdges())
		return
	}
	if version >= 0 && snap.Version != uint64(version) {
		r.fail("/snapshot: write clock %d after restart, %d effective updates were acknowledged", snap.Version, version)
	}
}

// crashPhase runs the crash cycles of a durable workload and returns the
// kill-to-healthy times. After every restart the write clock must equal
// the number of effective updates acknowledged since the last publish —
// the server replays exactly the acknowledged tail — and the answers
// must match the model with all of them applied.
//
// SIGKILL ends the process; the operating system keeps its page cache,
// so this proves durability across a process crash, not a power loss.
func (r *runner) crashPhase() ([]float64, error) {
	var recoveries []float64
	share := (len(r.in.Queries) + crashCycles - 1) / crashCycles
	for cycle := 0; cycle < crashCycles; cycle++ {
		effective := 0
		var acked [][]gv.EdgeUpdate
		for i := 0; i < crashBatches; i++ {
			b := r.scheds[i%numClients].batch()
			applied, ok := r.update(b)
			if !ok {
				continue
			}
			acked = append(acked, b)
			effective += applied
		}
		r.in.applyToModel(acked)
		killedAt := time.Now()
		r.srv.kill()
		r.srv = nil
		for _, c := range r.clients {
			c.CloseIdleConnections()
		}
		if err := r.start(); err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		recoveries = append(recoveries, time.Since(killedAt).Seconds())

		r.checkSnapshot(int64(effective))
		// A rotating share of the queries after each restart, all of them
		// after the last: computing the oracle is the costly part.
		lo, hi := cycle*share, min((cycle+1)*share, len(r.in.Queries))
		if cycle == crashCycles-1 {
			lo, hi = 0, len(r.in.Queries)
		}
		want := make([]answer, len(r.in.Queries))
		part, _ := expected(r.in.Graph, r.in.Queries[lo:hi], 0)
		copy(want[lo:hi], part)
		r.checkQueries(want, lo, hi)
	}
	return recoveries, nil
}

// update posts one batch without publishing and returns how many edge
// updates the server reports as effective.
func (r *runner) update(b []gv.EdgeUpdate) (applied int, ok bool) {
	data, _, ok := r.post(r.clients[0], op{Kind: opUpdate, Batch: b})
	if !ok {
		return 0, false
	}
	var ack struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		r.fail("/update: unreadable acknowledgement %.120s: %v", data, err)
		return 0, false
	}
	return ack.Applied, true
}

// counters scrapes the cumulative server counters the run differences.
func (r *runner) counters() (map[string]float64, error) {
	return scrape(r.clients[0], r.srv.baseURL(),
		"gvserve_maintenance_ns_total", "gvserve_maintenance_batches_total", "gvserve_updates_applied_total",
		"gvserve_wal_appended_bytes_total", "gvserve_checkpoint_bytes_total")
}

// selfCPU is the user plus system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latenciesMs returns the latencies of the samples of one kind, in ms.
func latenciesMs(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, float64(s.ns)/1e6)
		}
	}
	return out
}

// lockWaitShare is the share of plain /update samples slower than three
// times their median: with one writer mutex, those waited behind the
// other client's publish.
func lockWaitShare(samples []sample) float64 {
	lat := latenciesMs(samples, opUpdate)
	if len(lat) == 0 {
		return 0
	}
	limit := 3 * median(lat)
	slow := 0
	for _, v := range lat {
		if v > limit {
			slow++
		}
	}
	return float64(slow) / float64(len(lat))
}

// e2eMetrics turns a run's raw measurements into the end-to-end metrics,
// in the order BENCHMARK.json lists them. window holds the measured
// window's samples; writes holds the samples the write metrics come from
// (the same window, or the write tail of a read-only workload).
func e2eMetrics(w Workload, setups, recoveries []float64, window []sample, took time.Duration,
	writes []sample, writeTook time.Duration, rssMiB float64) []Metric {
	tail := func(name string, lat []float64, p float64) Metric {
		s := sortedCopy(lat)
		return Metric{Name: name, Value: percentile(s, p), Unit: "ms", N: len(s),
			Note: fmt.Sprintf("p%g, %d beyond, the sample supports p%g; p90 %.3f p95 %.3f p99 %.3f",
				p, beyond(len(s), p), supportedTail(len(s)), percentile(s, 90), percentile(s, 95), percentile(s, 99))}
	}
	q := latenciesMs(window, opQuery)
	u := latenciesMs(writes, opUpdate)
	p := latenciesMs(writes, opPublish)
	// Every acknowledged batch of the window counts toward update_eps; in
	// a write tail writeTook covers the plain updates only.
	acked := len(u) + len(p)
	if w.readOnly() {
		acked = len(u)
	}
	return []Metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		{Name: "query_p50_ms", Value: median(q), Unit: "ms", N: len(q)},
		tail("query_tail_ms", q, w.QueryTail),
		{Name: "query_qps", Value: float64(len(q)) / took.Seconds(), Unit: "1/s", N: len(q)},
		{Name: "update_p50_ms", Value: median(u), Unit: "ms", N: len(u)},
		tail("update_tail_ms", u, w.UpdateTail),
		{Name: "update_eps", Value: float64(acked*w.Batch) / writeTook.Seconds(), Unit: "1/s", N: acked},
		{Name: "publish_p50_ms", Value: median(p), Unit: "ms", N: len(p)},
		{Name: "recovery_s", Value: median(recoveries), Unit: "s", N: len(recoveries)},
		{Name: "rss_peak_mb", Value: rssMiB, Unit: "MiB"},
	}
}
