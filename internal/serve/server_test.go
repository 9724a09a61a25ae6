package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gv "graphviews"
)

// testWorkload builds a tiny two-label workload whose answer size
// changes deterministically per update: view V (and query Q) match the
// A→B edges, so every add/del of an A→B edge moves |Q(G)| by one.
func testWorkload(t *testing.T) (*gv.Graph, *gv.ViewSet, string) {
	t.Helper()
	g := gv.NewGraph()
	for i := 0; i < 4; i++ {
		g.AddNode("A")
	}
	for i := 0; i < 4; i++ {
		g.AddNode("B")
	}
	g.AddEdge(0, 4) // a0 -> b0
	v, err := gv.ParsePattern("pattern V {\n node a: A\n node b: B\n edge a -> b\n}")
	if err != nil {
		t.Fatal(err)
	}
	vs := gv.NewViewSet(gv.Define("V", v))
	q := "pattern Q {\n node a: A\n node b: B\n edge a -> b\n}"
	return g, vs, q
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	g, vs, q := testWorkload(t)
	s, err := NewServer(g, vs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, q
}

// postQuery sends a pattern and decodes the response.
func postQuery(t *testing.T, url, body string, want int) *queryResponse {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("status = %d, want %d", resp.StatusCode, want)
	}
	if want != http.StatusOK {
		return nil
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr
}

// TestPublishSwapConsistency is the acceptance stress test of the
// RCU-style snapshot swap: query goroutines hammer /query while a
// writer applies updates and publishes ≥3 fresh snapshots. Every
// response must be internally consistent with exactly one snapshot
// epoch — its (epoch, matched, size, pairs) must equal the answer
// recomputed offline from the retained snapshot of that epoch. Run
// under -race this also proves the read path takes no lock and shares
// no mutable state with the publisher.
func TestPublishSwapConsistency(t *testing.T) {
	s, hs, q := newTestServer(t, Config{Workers: 2})
	qURL := hs.URL + "/query?pairs=1&limit=0"

	// The writer's script: each step changes |Q(G)| by one, so
	// consecutive epochs have pairwise different answers and a torn or
	// mixed read cannot masquerade as a valid one.
	steps := []string{
		"add 1 5", // epoch 2: {a0b0, a1b1}
		"add 2 6", // epoch 3: {a0b0, a1b1, a2b6}
		"del 0 4", // epoch 4: {a1b1, a2b6}
		"add 3 7", // epoch 5: 3 pairs
	}

	snaps := map[uint64]*Snapshot{s.Current().Epoch: s.Current()}
	var snapMu sync.Mutex

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		defer close(stop)
		for _, step := range steps {
			resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader(step))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			snap := s.Publish()
			snapMu.Lock()
			snaps[snap.Epoch] = snap
			snapMu.Unlock()
			time.Sleep(2 * time.Millisecond) // let readers see each epoch
		}
	}()

	type obs struct {
		epoch uint64
		size  int
		pairs string
	}
	const readers = 8
	results := make([][]obs, readers)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				qr := postQuery(t, qURL, q, http.StatusOK)
				results[r] = append(results[r], obs{qr.Epoch, qr.Size, fmt.Sprint(qr.Edges)})
			}
		}()
	}
	writerWG.Wait()
	readerWG.Wait()

	// One more read after the last publish must see the final epoch.
	final := postQuery(t, qURL, q, http.StatusOK)
	if want := s.Current().Epoch; final.Epoch != want {
		t.Fatalf("post-publish read: epoch = %d, want %d", final.Epoch, want)
	}
	if len(snaps) < 4 {
		t.Fatalf("only %d snapshots published, want ≥ 4", len(snaps))
	}

	// Recompute each epoch's ground-truth answer from its retained
	// immutable snapshot and check every observation against it.
	pq, err := gv.ParsePattern(q)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[uint64]obs{}
	for epoch, snap := range snaps {
		res, _, err := gv.Answer(pq, snap.Exts, gv.UseMinimal)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		want := &queryResponse{}
		req := httptest.NewRequest(http.MethodGet, "/?pairs=1", nil)
		attachPairs(want, res, req, 0)
		expect[epoch] = obs{epoch, res.Size(), fmt.Sprint(want.Edges)}
	}
	checked := 0
	epochsSeen := map[uint64]bool{}
	for r := range results {
		for _, o := range results[r] {
			want, ok := expect[o.epoch]
			if !ok {
				t.Fatalf("response claims unknown epoch %d", o.epoch)
			}
			if o.size != want.size || o.pairs != want.pairs {
				t.Fatalf("epoch %d: response (size=%d pairs=%s) inconsistent with snapshot (size=%d pairs=%s)",
					o.epoch, o.size, o.pairs, want.size, want.pairs)
			}
			epochsSeen[o.epoch] = true
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reader observations")
	}
	t.Logf("checked %d responses across %d observed epochs (%d published)", checked, len(epochsSeen), len(snaps))
}

// TestUpdatePublishFlow walks the write path end to end over HTTP:
// updates are invisible until published, ?publish=1 swaps immediately,
// and the snapshot/pending bookkeeping tracks the write clock.
func TestUpdatePublishFlow(t *testing.T) {
	s, hs, q := newTestServer(t, Config{})
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 1 || got.Epoch != 1 {
		t.Fatalf("initial answer = size %d epoch %d, want 1/1", got.Size, got.Epoch)
	}

	// Update without publish: the live snapshot must not move.
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\nadd 2 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	var ur updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.Applied != 2 || ur.Pending != 2 || ur.Epoch != 1 {
		t.Fatalf("update response = %+v, want applied 2 pending 2 epoch 1", ur)
	}
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 1 {
		t.Fatalf("unpublished update visible: size = %d, want 1", got.Size)
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}

	// Publish: the accumulated updates become visible atomically.
	resp, err = http.Post(hs.URL+"/publish", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 3 || got.Epoch != 2 {
		t.Fatalf("after publish: size %d epoch %d, want 3/2", got.Size, got.Epoch)
	}

	// ?publish=1 applies and swaps in one call.
	resp, err = http.Post(hs.URL+"/update?publish=1", "text/plain", strings.NewReader("del 0 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 2 || got.Epoch != 3 {
		t.Fatalf("after update?publish=1: size %d epoch %d, want 2/3", got.Size, got.Epoch)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

// TestPublishAfterThreshold exercises the hook-driven publisher: once
// the pending backlog reaches PublishAfter, the background goroutine
// publishes without an explicit /publish.
func TestPublishAfterThreshold(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{PublishAfter: 2})
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\nadd 2 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Current().Epoch < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("threshold publish did not happen (epoch %d, pending %d)", s.Current().Epoch, s.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after auto-publish, want 0", s.Pending())
	}
}

// TestQueryErrors maps the failure modes to their status codes.
func TestQueryErrors(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	// Unparsable pattern.
	postQuery(t, hs.URL+"/query", "pattern {", http.StatusBadRequest)
	// Valid pattern the views cannot answer (label C is not covered).
	postQuery(t, hs.URL+"/query", "pattern Q {\n node c: C\n node b: B\n edge c -> b\n}", http.StatusUnprocessableEntity)
	// Bad strategy.
	postQuery(t, hs.URL+"/query?strategy=fastest", "pattern Q {\n node a: A\n node b: B\n edge a -> b\n}", http.StatusBadRequest)
	// GET is not a query.
	resp, err := http.Get(hs.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
	// Malformed and out-of-range updates.
	for _, body := range []string{"frobnicate 1 2", "add 1", "add 0 99"} {
		resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("update %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestPairLimitValidation: a ?limit= that is not a non-negative integer
// is a 400 with the JSON error body on both answer routes, never a
// silent fall-back to the default.
func TestPairLimitValidation(t *testing.T) {
	_, hs, q := newTestServer(t, Config{})
	for _, route := range []string{"/query", "/match"} {
		for _, limit := range []string{"abc", "-1", "1e6"} {
			resp, err := http.Post(hs.URL+route+"?pairs=1&limit="+limit, "text/plain", strings.NewReader(q))
			if err != nil {
				t.Fatal(err)
			}
			var body map[string]string
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || derr != nil || body["error"] == "" {
				t.Fatalf("%s limit=%s: status %d body %v (%v), want 400 with an error body", route, limit, resp.StatusCode, body, derr)
			}
		}
		if got := postQuery(t, hs.URL+route+"?pairs=1&limit=0", q, http.StatusOK); len(got.Edges) != 1 || len(got.Edges[0].Pairs) != 1 {
			t.Fatalf("%s limit=0: edges %+v, want one edge with one pair", route, got.Edges)
		}
	}
}

// TestRequestTimeout: a request whose deadline is already gone when the
// engine first checks its context must come back 503, not hang.
func TestRequestTimeout(t *testing.T) {
	_, hs, q := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	postQuery(t, hs.URL+"/query", q, http.StatusServiceUnavailable)
}

// TestMatchEndpoint spot-checks direct evaluation against the snapshot
// graph, including the dual mode.
func TestMatchEndpoint(t *testing.T) {
	_, hs, q := newTestServer(t, Config{})
	if got := postQuery(t, hs.URL+"/match", q, http.StatusOK); got.Size != 1 {
		t.Fatalf("match size = %d, want 1", got.Size)
	}
	if got := postQuery(t, hs.URL+"/match?mode=dual", q, http.StatusOK); got.Size != 1 {
		t.Fatalf("dual match size = %d, want 1", got.Size)
	}
	postQuery(t, hs.URL+"/match?mode=psychic", q, http.StatusBadRequest)
}

// TestMetricsExposition drives a few requests and checks the Prometheus
// text rendering carries the counters, histogram and gauges.
func TestMetricsExposition(t *testing.T) {
	_, hs, q := newTestServer(t, Config{})
	postQuery(t, hs.URL+"/query", q, http.StatusOK)
	postQuery(t, hs.URL+"/query", "pattern {", http.StatusBadRequest)
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := sb.WriteString(readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`gvserve_requests_total{route="/query",code="2xx"} 1`,
		`gvserve_requests_total{route="/query",code="4xx"} 1`,
		`gvserve_request_duration_seconds_bucket{route="/query",le="+Inf"} 2`,
		"gvserve_snapshot_epoch 1",
		"gvserve_publish_total 1",
		"gvserve_inflight_requests 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestHealthz checks the liveness probe shape.
func TestHealthz(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestFlushAfterBuffersAndCoalesces: opposing updates of one edge
// within a single /update body cancel before any view sees them — the
// body applies as one coalesced batch, in one maintenance pass, and the
// published snapshot reflects exactly the net effect.
func TestFlushAfterBuffersAndCoalesces(t *testing.T) {
	s, hs, q := newTestServer(t, Config{})
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\ndel 1 5\nadd 2 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	var ur updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.Applied != 1 || ur.Version != 1 || ur.Pending != 1 {
		t.Fatalf("update response = %+v, want applied 1 version 1 pending 1 (net add 2→6 only)", ur)
	}
	if s.maint.Stats.CoalescedAway < 1 {
		t.Fatalf("CoalescedAway = %d, want ≥ 1 for the cancelled add/del pair", s.maint.Stats.CoalescedAway)
	}
	if s.maint.Stats.Batches != 1 {
		t.Fatalf("maintenance batches = %d, want exactly 1 for one /update body", s.maint.Stats.Batches)
	}
	s.Publish()
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 2 {
		t.Fatalf("published answer size = %d, want 2", got.Size)
	}
}

// TestFlushAfterThresholdFlushes: every ApplyUpdates applies at once —
// nothing is held back for a later flush — so the write clock advances
// by the applied count and Pending is exactly the clock minus the
// published version.
func TestFlushAfterThresholdFlushes(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	batches := [][]gv.EdgeUpdate{
		{{From: 1, To: 5}},
		{{From: 2, To: 6}, {From: 3, To: 7}},
	}
	var want uint64
	for _, b := range batches {
		applied, version, err := s.ApplyUpdates(b)
		if err != nil {
			t.Fatal(err)
		}
		want += uint64(len(b))
		if applied != len(b) || version != want {
			t.Fatalf("ApplyUpdates(%v) = applied %d version %d, want %d/%d", b, applied, version, len(b), want)
		}
		if p := s.Pending(); p != version-s.Current().Version {
			t.Fatalf("Pending = %d, want version %d minus published %d", p, version, s.Current().Version)
		}
	}
}

// TestPublishAfterCountsBufferedDeltas: threshold publishing fires on
// the deltas of the /update that crossed PublishAfter, and the
// published snapshot carries all of them.
func TestPublishAfterCountsBufferedDeltas(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{PublishAfter: 2})
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\nadd 2 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Current().Epoch < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("threshold publish did not happen (epoch %d, pending %d)", s.Current().Epoch, s.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Current().Version != 2 {
		t.Fatalf("auto-published snapshot version = %d, want 2", s.Current().Version)
	}
}

// TestPendingNeverWraps: Pending read concurrently with a writer that
// applies and publishes in a loop must never exceed the write clock. A
// publish landing between its two loads must not let the snapshot's
// version overtake the clock and wrap the unsigned difference to ~2⁶⁴,
// which would reach the /update pending field and fire the background
// publisher's threshold checks spuriously.
func TestPendingNeverWraps(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	deadline := time.Now().Add(2 * time.Second)
	var wrapped atomic.Uint64
	running := func() bool { return wrapped.Load() == 0 && time.Now().Before(deadline) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; running(); i++ {
			if _, _, err := s.ApplyUpdates([]gv.EdgeUpdate{{From: 1, To: 5, Delete: i%2 == 1}}); err != nil {
				t.Error(err)
				return
			}
			s.Publish()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running() {
				if p := s.Pending(); p > s.maint.Version() {
					wrapped.Store(p)
				}
			}
		}()
	}
	wg.Wait()
	if p := wrapped.Load(); p != 0 {
		t.Fatalf("Pending = %d: wrapped past the write clock", p)
	}
}

// TestOversizeBodyRejected: a body over maxBodyBytes is answered 413
// with a JSON error, never cut at the limit and parsed — the cut prefix
// of an /update is a valid batch here (a line boundary falls exactly on
// the limit), and of a /query a valid pattern. The write clock and the
// WAL must not move.
func TestOversizeBodyRejected(t *testing.T) {
	s, st, q := newDurableServer(t, t.TempDir(), Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	line := "add 1 5\n"
	update := strings.Repeat(line, maxBodyBytes/len(line)+1)
	query := q + strings.Repeat("\n", maxBodyBytes) + "garbage"
	version, walSize := s.maint.Version(), st.WALSize()
	for _, req := range []struct{ path, body string }{
		{"/update", update},
		{"/query", query},
		{"/match", query},
	} {
		resp, err := http.Post(hs.URL+req.path, "text/plain", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || body.Error == "" {
			t.Fatalf("%s with a %d-byte body: status %d error %q (%v), want 413 with a JSON error",
				req.path, len(req.body), resp.StatusCode, body.Error, err)
		}
		if v, w := s.maint.Version(), st.WALSize(); v != version || w != walSize {
			t.Fatalf("%s: oversize body moved the write clock %d → %d or the WAL %d → %d bytes", req.path, version, v, walSize, w)
		}
	}
}

// TestMaintenanceMetricsExposition drives updates down both maintenance
// paths and checks the gvserve_maintenance_* series: an insertion into a
// matched view propagates a delta; once a deletion has emptied the
// view's extension there are no sim sets to grow from, and the next
// relevant insertion recomputes it.
func TestMaintenanceMetricsExposition(t *testing.T) {
	for _, mode := range []struct {
		name    string
		updates []string
		want    []string
	}{
		{"delta", []string{"add 1 5\n"},
			[]string{"gvserve_maintenance_delta_total 1", "gvserve_maintenance_recompute_total 0", "gvserve_maintenance_batches_total 1"}},
		{"remat", []string{"del 0 4\n", "add 1 5\n"},
			[]string{"gvserve_maintenance_delta_total 1", "gvserve_maintenance_recompute_total 1", "gvserve_maintenance_batches_total 2"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, hs, _ := newTestServer(t, Config{})
			for _, up := range mode.updates {
				resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader(up))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			resp, err := http.Get(hs.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			text := readAll(t, resp)
			for _, want := range append(mode.want,
				"gvserve_maintenance_coalesced_total 0",
			) {
				if !strings.Contains(text, want) {
					t.Fatalf("metrics missing %q in:\n%s", want, text)
				}
			}
		})
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
