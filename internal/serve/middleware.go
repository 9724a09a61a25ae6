package serve

// The middleware stack production traffic demands, composed per route
// (outermost first): access logging → metrics → panic recovery →
// admission control → request timeout. Operational endpoints (/healthz,
// /metrics) skip admission control so the server stays observable under
// overload — shedding the probes that tell you why you are shedding
// would be self-inflicted blindness.

import (
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter captures the status code a handler wrote, so logging and
// metrics middleware can classify the response after the fact.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the code to 200 on an implicit header, like net/http.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// withLogging writes one access-log line per request: method, route,
// status, latency and the snapshot epoch the request was (or would have
// been) served from. A nil logger disables logging.
func withLogging(h http.Handler, logger *log.Logger, epoch func() uint64) http.Handler {
	if logger == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		logger.Printf("%s %s %d %s epoch=%d", r.Method, r.URL.Path, code, time.Since(start).Round(time.Microsecond), epoch())
	})
}

// withMetrics counts the request and observes its latency under the
// given route's instruments.
func withMetrics(h http.Handler, m *Metrics, route string) http.Handler {
	rm := m.forRoute(route)
	if rm == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		rm.requests[statusClass(code)].Add(1)
		rm.latency.observe(time.Since(start))
	})
}

// withRecovery contains a panicking handler: the request gets a 500, the
// panic is counted and logged, and the process keeps serving. It sits
// inside the metrics middleware so the 500 is counted under its route.
// The write path releases s.mu by defer, so a panic there unwinds through
// the unlock before it reaches this frame and later writers do not
// deadlock. http.ErrAbortHandler is net/http's own signal and passes
// through.
func withRecovery(h http.Handler, m *Metrics, logger *log.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			m.panics.Add(1)
			if logger != nil {
				logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			}
			writeError(w, http.StatusInternalServerError, "internal error")
		}()
		h.ServeHTTP(w, r)
	})
}

// withAdmission bounds the number of requests concurrently inside h.
// Admission is a non-blocking semaphore acquire: when all slots are
// taken the request is shed immediately with 429 and a Retry-After
// hint, rather than queued — under sustained overload a queue only
// converts shed requests into timed-out ones while growing every
// latency percentile. A nil semaphore (limit <= 0) admits everything.
func withAdmission(h http.Handler, sem chan struct{}, m *Metrics) http.Handler {
	if sem == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
		default:
			m.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity", http.StatusTooManyRequests)
			return
		}
		m.inFlight.Add(1)
		defer func() {
			m.inFlight.Add(-1)
			<-sem
		}()
		h.ServeHTTP(w, r)
	})
}

// withTimeout attaches a deadline to the request context. Handlers pass
// the request context into Engine.WithRequest, so an expired deadline
// cancels the query at the next work-item boundary; the handler then
// maps context errors to 503. d <= 0 disables the deadline.
func withTimeout(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
