package serve

// Tests of the recovery-aware serving lifecycle: ack-after-WAL-append,
// the recovering 503 gate, checkpoint-on-publish compaction, and the
// acceptance criterion that a server restarted after a kill serves
// exactly the answers it acknowledged before the crash.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphviews/internal/store"
)

// newDurableServer opens a store over dir and builds a server on it.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *store.Store, string) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// A checkpoint from a previous boot replaces the seed workload graph
	// — the same thawing cmd/gvserve does.
	g, vs, q := testWorkload(t)
	if base := st.Base(); base != nil {
		g = base.Thaw()
	}
	cfg.Store = st
	s, err := NewServer(g, vs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, st, q
}

// postUpdate sends an update body and returns the HTTP status.
func postUpdate(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url+"/update", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestAckedUpdatesSurviveCrash is the acceptance criterion: updates
// acknowledged over /update survive a kill -9 (simulated by abandoning
// the server without any shutdown) and a restarted server answers the
// query exactly as the pre-crash server did.
func TestAckedUpdatesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	s1, _, q := newDurableServer(t, dir, Config{})
	hs1 := httptest.NewServer(s1.Handler())
	// Acked writes: two more A→B edges (answer grows from 1 to 3), one
	// A→B delete (back to 2), plus an irrelevant B→A edge.
	if code := postUpdate(t, hs1.URL, "add 1 5\nadd 2 6\nadd 5 0\ndel 0 4\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	s1.Publish()
	want := postQuery(t, hs1.URL+"/query", q, http.StatusOK)
	// More acked-but-never-published writes — durable only in the WAL.
	if code := postUpdate(t, hs1.URL, "add 0 4\nadd 3 7\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	hs1.Close()
	// Crash: no s1.Close(), no store close, no final checkpoint. (The
	// store's WAL file is already durable per record under SyncAlways.)

	s2, st2, _ := newDurableServer(t, dir, Config{})
	if !s2.Recovering() {
		t.Fatal("restart with a WAL tail did not boot recovering")
	}
	records, updates := s2.Recover()
	if records == 0 || updates != 2 {
		t.Fatalf("recovery replayed %d records / %d updates, want the 1 unpublished batch of 2", records, updates)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	got := postQuery(t, hs2.URL+"/query", q, http.StatusOK)
	// The published answer plus the two acked A→B adds: size 2 + 2.
	if got.Size != want.Size+2 || got.Size != 4 {
		t.Fatalf("recovered answer size %d, want %d", got.Size, want.Size+2)
	}
	// Recovery's publish checkpointed and compacted the WAL.
	if st2.WALSize() != 0 {
		t.Fatalf("WAL not compacted after recovery publish: %d bytes", st2.WALSize())
	}
	if n := s2.Metrics().recoveryRecords.Load(); n == 0 {
		t.Fatal("recovery metrics not recorded")
	}
}

// TestRecoveringGate: while the WAL tail is unreplayed, /healthz is
// 503 "recovering", application routes shed with 503 + Retry-After, but
// /metrics and /snapshot stay observable; Recover opens everything.
func TestRecoveringGate(t *testing.T) {
	dir := t.TempDir()
	s1, _, _ := newDurableServer(t, dir, Config{})
	hs1 := httptest.NewServer(s1.Handler())
	if code := postUpdate(t, hs1.URL, "add 1 5\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	hs1.Close() // crash with a non-empty WAL

	s2, _, q := newDurableServer(t, dir, Config{})
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	for _, probe := range []struct {
		path, body string
		want       int
	}{
		{"/healthz", "", http.StatusServiceUnavailable},
		{"/query", q, http.StatusServiceUnavailable},
		{"/update", "add 1 5\n", http.StatusServiceUnavailable},
		{"/snapshot", "", http.StatusOK},
		{"/metrics", "", http.StatusOK},
	} {
		var resp *http.Response
		var err error
		if probe.body != "" {
			resp, err = http.Post(hs2.URL+probe.path, "text/plain", strings.NewReader(probe.body))
		} else {
			resp, err = http.Get(hs2.URL + probe.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Fatalf("%s while recovering: status %d, want %d", probe.path, resp.StatusCode, probe.want)
		}
		if probe.path == "/query" && resp.Header.Get("Retry-After") == "" {
			t.Fatal("recovering 503 without Retry-After")
		}
	}
	s2.Recover()
	for _, path := range []string{"/healthz"} {
		resp, err := http.Get(hs2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after Recover: status %d", path, resp.StatusCode)
		}
	}
	postQuery(t, hs2.URL+"/query", q, http.StatusOK)
}

// TestUpdateAckContract: when the WAL cannot accept the append, /update
// returns 503 with the wal_append_failed body and the in-memory state
// does not advance — no memory/disk divergence, ever.
func TestUpdateAckContract(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := newDurableServer(t, dir, Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	// Force append failures by closing the WAL file underneath the store.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.maint.Version()
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update with failed WAL: status %d, want 503", resp.StatusCode)
	}
	var body struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Reason != "wal_append_failed" || body.Error == "" {
		t.Fatalf("ack-failure body = %+v, want reason wal_append_failed", body)
	}
	if got := s.maint.Version(); got != before {
		t.Fatalf("rejected update advanced the write clock %d → %d", before, got)
	}
	if n := s.Metrics().RequestCount("/update", "5xx"); n != 1 {
		t.Fatalf("5xx count = %d, want 1", n)
	}
}

// TestCheckpointOnPublish: each publish compacts the WAL, and a clean
// restart (empty tail) boots ready immediately with the checkpointed
// graph.
func TestCheckpointOnPublish(t *testing.T) {
	dir := t.TempDir()
	s1, st1, _ := newDurableServer(t, dir, Config{})
	hs1 := httptest.NewServer(s1.Handler())
	if code := postUpdate(t, hs1.URL, "add 1 5\nadd 2 6\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if st1.WALSize() == 0 {
		t.Fatal("acked updates not in the WAL")
	}
	s1.Publish()
	if st1.WALSize() != 0 {
		t.Fatalf("publish did not compact the WAL: %d bytes", st1.WALSize())
	}
	if n := s1.Metrics().checkpoints.Load(); n < 2 { // boot + publish
		t.Fatalf("checkpoints = %d, want ≥ 2", n)
	}
	hs1.Close()

	s2, _, q := newDurableServer(t, dir, Config{})
	if s2.Recovering() {
		t.Fatal("clean restart booted recovering")
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	got := postQuery(t, hs2.URL+"/query", q, http.StatusOK)
	if got.Size != 3 { // 0→4 seed edge plus the two published adds
		t.Fatalf("restarted answer size %d, want 3", got.Size)
	}
	// The graph must also have persisted the checkpoint's manifest.
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
}

// scrapeMetrics fetches /metrics and returns the body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestRecoverySkipsRematerialization is the tentpole acceptance
// criterion: with persisted extensions, a restart after kill -9 with a
// clean WAL tail adopts the checkpoint's extensions — zero recomputes,
// the remat-skipped gauge set — and answers exactly as before.
func TestRecoverySkipsRematerialization(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PersistExtensions: true}
	s1, st1, q := newDurableServer(t, dir, cfg)
	hs1 := httptest.NewServer(s1.Handler())
	if code := postUpdate(t, hs1.URL, "add 1 5\nadd 2 6\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	s1.Publish() // checkpoint graph + extensions, compact the WAL
	if st1.WALSize() != 0 {
		t.Fatal("publish did not compact the WAL")
	}
	want := postQuery(t, hs1.URL+"/query", q, http.StatusOK)
	hs1.Close()
	// Crash: no Close, no final checkpoint — but the tail is clean.

	s2, st2, _ := newDurableServer(t, dir, cfg)
	if s2.Recovering() {
		t.Fatal("clean-tail restart booted recovering")
	}
	if len(st2.BaseExtensionData()) == 0 {
		t.Fatal("checkpoint carried no extensions")
	}
	if got := s2.Metrics().recoveryRematSkipped.Load(); got != 1 {
		t.Fatalf("recoveryRematSkipped = %d, want 1", got)
	}
	if s2.Recover(); s2.Recovering() {
		t.Fatal("Recover did not reach ready")
	}
	if got := s2.maint.Stats.Recomputes; got != 0 {
		t.Fatalf("clean-tail boot rematerialized %d views, want 0", got)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	got := postQuery(t, hs2.URL+"/query", q, http.StatusOK)
	if got.Size != want.Size {
		t.Fatalf("restored answer size %d, want %d", got.Size, want.Size)
	}
	if !strings.Contains(scrapeMetrics(t, hs2.URL), "gvserve_recovery_remat_skipped 1") {
		t.Fatal("gvserve_recovery_remat_skipped gauge not exported")
	}
}

// TestRecoveryWithTailRestoresExtensions: persisted extensions plus a
// non-empty tail — boot recovering, adopt the extensions, replay only
// the tail through delta propagation, and end up answering exactly what
// was acknowledged before the crash.
func TestRecoveryWithTailRestoresExtensions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PersistExtensions: true}
	s1, _, q := newDurableServer(t, dir, cfg)
	hs1 := httptest.NewServer(s1.Handler())
	if code := postUpdate(t, hs1.URL, "add 1 5\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	s1.Publish()
	// Acked but never published: durable only in the WAL tail.
	if code := postUpdate(t, hs1.URL, "add 2 6\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	hs1.Close()

	s2, _, _ := newDurableServer(t, dir, cfg)
	if !s2.Recovering() {
		t.Fatal("restart with a tail did not boot recovering")
	}
	if got := s2.Metrics().recoveryRematSkipped.Load(); got != 1 {
		t.Fatalf("tail replay forced rematerialization (gauge %d)", got)
	}
	if _, updates := s2.Recover(); updates != 1 {
		t.Fatalf("replayed %d updates, want 1", updates)
	}
	if got := s2.maint.Stats.Recomputes; got != 0 {
		t.Fatalf("tail replay fell back to %d full recomputes", got)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	got := postQuery(t, hs2.URL+"/query", q, http.StatusOK)
	if got.Size != 3 { // seed 0→4 plus the two acked adds
		t.Fatalf("recovered answer size %d, want 3", got.Size)
	}
}

// TestWALBacklogDegradesHealth: when checkpoints stop compacting the
// WAL past the configured high-water mark, /healthz flips to 503
// "degraded"/wal_backlog and the backlog gauge goes positive; a
// successful checkpoint clears both.
func TestWALBacklogDegradesHealth(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := newDurableServer(t, dir, Config{WALBacklogBytes: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before backlog: %d", resp.StatusCode)
	}

	if code := postUpdate(t, hs.URL, "add 1 5\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if st.WALSize() == 0 {
		t.Fatal("update not logged")
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status   string `json:"status"`
		Reason   string `json:"reason"`
		WALBytes int64  `json:"wal_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Status != "degraded" || body.Reason != "wal_backlog" || body.WALBytes == 0 {
		t.Fatalf("backlogged healthz = %d %+v, want 503 degraded/wal_backlog", resp.StatusCode, body)
	}
	if !strings.Contains(scrapeMetrics(t, hs.URL), "gvserve_wal_backlog_bytes "+
		"") {
		t.Fatal("gvserve_wal_backlog_bytes not exported")
	}

	s.Publish() // checkpoint compacts the WAL; health recovers
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after compaction: %d", resp.StatusCode)
	}
	if strings.Contains(scrapeMetrics(t, hs.URL), "gvserve_wal_backlog_bytes 0\n") == false {
		t.Fatal("backlog gauge did not return to 0")
	}
}

// TestCheckpointShardMetricsExported: the per-shard checkpoint counters
// ride the /metrics surface.
func TestCheckpointShardMetricsExported(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := newDurableServer(t, dir, Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	if code := postUpdate(t, hs.URL, "add 1 5\n"); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	s.Publish()
	text := scrapeMetrics(t, hs.URL)
	for _, metric := range []string{
		"gvserve_checkpoint_shards_written_total",
		"gvserve_checkpoint_bytes_total",
		"gvserve_checkpoint_parts_removed_total",
	} {
		if !strings.Contains(text, metric+" ") {
			t.Fatalf("%s not exported", metric)
		}
	}
}
