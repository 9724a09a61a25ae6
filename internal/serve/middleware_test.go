package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	gv "graphviews"
)

// TestAdmissionSheds verifies the bounded-in-flight invariant: with all
// semaphore slots occupied by blocked handlers, further requests are
// shed immediately with 429 + Retry-After instead of queueing, and once
// a slot frees up admission resumes.
func TestAdmissionSheds(t *testing.T) {
	const limit = 3
	m := newMetrics([]string{"/blocked"})
	entered := make(chan struct{}, limit)
	release := make(chan struct{})
	h := withMetrics(withAdmission(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}), make(chan struct{}, limit), m), m, "/blocked")

	hs := httptest.NewServer(h)
	defer hs.Close()

	// Fill every slot with a request parked inside the handler.
	var wg sync.WaitGroup
	for i := 0; i < limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hs.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("admitted request: status = %d", resp.StatusCode)
			}
		}()
	}
	for i := 0; i < limit; i++ {
		<-entered
	}
	if got := m.InFlight(); got != limit {
		t.Fatalf("InFlight = %d, want %d", got, limit)
	}

	// Every additional request must be shed, not queued.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status = %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
	}
	if got := m.Shed(); got != 5 {
		t.Fatalf("Shed = %d, want 5", got)
	}
	if got := m.RequestCount("/blocked", "429"); got != 5 {
		t.Fatalf("RequestCount 429 = %d, want 5", got)
	}

	// Drain the parked handlers (and unblock any later ones); admission
	// must recover.
	close(release)
	wg.Wait()
	if got := m.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: status = %d, want 200", resp.StatusCode)
	}
	if got := m.RequestCount("/blocked", "2xx"); got != limit+1 {
		t.Fatalf("RequestCount 2xx = %d, want %d", got, limit+1)
	}
}

// TestAdmissionUnbounded: a nil semaphore admits everything.
func TestAdmissionUnbounded(t *testing.T) {
	m := newMetrics([]string{"/x"})
	h := withAdmission(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), nil, m)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if m.Shed() != 0 {
		t.Fatalf("Shed = %d, want 0", m.Shed())
	}
}

// TestLatencyHistogram checks bucket assignment at the boundaries.
func TestLatencyHistogram(t *testing.T) {
	var h latencyHist
	h.observe(100e3) // 0.1 ms → first bucket (≤ 0.5 ms)
	h.observe(3e6)   // 3 ms → ≤ 5 ms bucket
	h.observe(20e9)  // 20 s → +Inf overflow
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("bucket 0 = %d, want 1", got)
	}
	if got := h.counts[3].Load(); got != 1 {
		t.Fatalf("bucket ≤5ms = %d, want 1", got)
	}
	if got := h.counts[len(latencyBuckets)].Load(); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
	if got := h.total.Load(); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
}

// TestStatusClass pins the counter-slot mapping.
func TestStatusClass(t *testing.T) {
	for code, want := range map[int]int{200: 0, 204: 0, 400: 1, 404: 1, 422: 1, 429: 3, 500: 2, 503: 2} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %d, want %d", code, got, want)
		}
	}
}

// TestPanicContained drives the one panic the write path still has — a
// snapshot build error inside publishLocked, forced here with an engine
// whose context is already cancelled — through the real /publish route:
// the request gets a 500, the panic is counted, the write lock is
// released by Publish's defer, and /healthz, /update and a later
// /publish keep working.
func TestPanicContained(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{})
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/update", "add 1 5"); code != http.StatusOK {
		t.Fatalf("/update before the panic: status %d", code)
	}

	good := s.eng
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.eng = gv.NewEngine(gv.WithContext(ctx))
	if code := post("/publish", ""); code != http.StatusInternalServerError {
		t.Fatalf("/publish with a failing snapshot build: status %d, want 500", code)
	}
	s.eng = good

	if got := s.Metrics().panics.Load(); got != 1 {
		t.Fatalf("gvserve_panics_total = %d, want 1", got)
	}
	if got := s.Metrics().RequestCount("/publish", "5xx"); got != 1 {
		t.Fatalf("/publish 5xx count = %d, want 1", got)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the panic: status %d", resp.StatusCode)
	}
	if code := post("/update", "add 2 6"); code != http.StatusOK {
		t.Fatalf("/update after the panic: status %d (write lock still held?)", code)
	}
	if code := post("/publish", ""); code != http.StatusOK {
		t.Fatalf("/publish after the panic: status %d", code)
	}
	if snap := s.Current(); snap.Version != 2 || snap.Graph.NumEdges() != 3 {
		t.Fatalf("after recovery: version %d, %d edges; want 2 and 3", snap.Version, snap.Graph.NumEdges())
	}
}
