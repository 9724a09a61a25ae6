package serve

// Hand-rolled Prometheus-style instrumentation: per-route request
// counters (by status class) and latency histograms, plus server-level
// gauges for the snapshot epoch, the maintained write clock and the
// admission-control state. Everything is atomics over fixed-shape
// arrays — no locks on the request path, no dependencies — and renders
// in the Prometheus text exposition format at /metrics.

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"graphviews/internal/store"
)

// latencyBuckets are the histogram upper bounds in seconds (a +Inf
// bucket is implicit). Exponential-ish from 0.5 ms to 10 s: pattern
// queries on serving-sized graphs sit in the low milliseconds, so the
// lower half resolves the interesting range while the upper half
// catches publish stalls and overload tails.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// latencyHist is a fixed-bucket latency histogram with atomic counters:
// counts[i] holds the observations that fell in bucket i
// (non-cumulative internally; cumulated on render), sumNs the total
// observed latency in nanoseconds.
type latencyHist struct {
	counts [15]atomic.Int64 // len(latencyBuckets)+1, last = +Inf overflow
	sumNs  atomic.Int64
	total  atomic.Int64
}

// observe records one request latency.
func (h *latencyHist) observe(d time.Duration) {
	i := sort.SearchFloat64s(latencyBuckets, d.Seconds())
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.total.Add(1)
}

// statusClass maps an HTTP status code to its counter slot.
func statusClass(code int) int {
	switch {
	case code == 429:
		return 3 // shed by admission control; reported separately
	case code >= 500:
		return 2
	case code >= 400:
		return 1
	default:
		return 0
	}
}

// statusLabels are the Prometheus `code` label values, indexed by
// statusClass.
var statusLabels = [4]string{"2xx", "4xx", "5xx", "429"}

// routeMetrics is the per-endpoint instrument set.
type routeMetrics struct {
	route    string
	requests [4]atomic.Int64 // by statusClass
	latency  latencyHist
}

// Metrics is the server's instrument registry. All fields are safe for
// concurrent use; the request path touches only atomics.
type Metrics struct {
	routes []*routeMetrics

	// Admission control.
	inFlight atomic.Int64
	shed     atomic.Int64

	// Snapshot lifecycle.
	epoch        atomic.Uint64
	publishes    atomic.Int64
	publishNs    atomic.Int64  // cumulative publish (freeze+clone+swap) time
	snapshotPair atomic.Int64  // |V(G)| of the live snapshot
	snapshotSize atomic.Int64  // |G| of the live snapshot
	published    atomic.Uint64 // write-clock value captured at last publish

	// Publish phases. The two graph.SnapshotStats counters are copied
	// absolute from the maintained graph after every publish (under the
	// write lock), like the maintenance counters below.
	publishFreezeNs    atomic.Int64 // Engine.Snapshot: Freeze or Shard
	publishDirtyNodes  atomic.Int64 // nodes whose adjacency the builds re-read
	publishSharedParts atomic.Int64 // shards (or the whole CSR) carried over whole

	// panics counts handler panics turned into 500s by withRecovery.
	panics atomic.Int64

	// Write path.
	version atomic.Uint64 // Maintained write clock
	updates atomic.Int64  // effective updates applied

	// View maintenance. Snapshots of view.MaintStats, copied from the
	// maintained views after every applied batch (under the write lock)
	// so the render path stays lock-free. Stored absolute, rendered as
	// counters.
	maintRecomputes  atomic.Int64
	maintDeltaProps  atomic.Int64
	maintSkips       atomic.Int64
	maintCoalesced   atomic.Int64
	maintAffected    atomic.Int64
	maintBatches     atomic.Int64
	maintPropagateNs atomic.Int64

	// Durability. store and walBacklogLimit are set once at construction
	// (nil / 0 when the server runs ephemeral); the store's WAL and
	// checkpoint counters are live atomics rendered directly. walFsync is
	// fed by the store's fsync observer.
	store           *store.Store
	walBacklogLimit int64
	walFsync        latencyHist

	// Recovery lifecycle: state is 1 while the WAL tail is being
	// replayed, 0 once the server is ready; the others are set once when
	// replay completes.
	recoveryState   atomic.Int64
	recoveryRecords atomic.Int64 // WAL records replayed
	recoveryUpdates atomic.Int64 // edge updates replayed into the views
	recoveryDropped atomic.Int64 // logged updates dropped as out of range
	recoveryNs      atomic.Int64 // replay wall time

	// recoveryRematSkipped is 1 when boot restored the materialized view
	// extensions from the checkpoint and skipped rematerialization.
	recoveryRematSkipped atomic.Int64

	// Checkpointing (snapshot publish → store.Checkpoint).
	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	checkpointNs     atomic.Int64
}

// newMetrics builds a registry with one instrument set per route.
func newMetrics(routes []string) *Metrics {
	m := &Metrics{}
	for _, r := range routes {
		m.routes = append(m.routes, &routeMetrics{route: r})
	}
	return m
}

// forRoute returns the instrument set of a registered route (nil for
// unknown routes, which are then simply not instrumented).
func (m *Metrics) forRoute(route string) *routeMetrics {
	for _, r := range m.routes {
		if r.route == route {
			return r
		}
	}
	return nil
}

// Shed reports how many requests admission control rejected with 429.
func (m *Metrics) Shed() int64 { return m.shed.Load() }

// InFlight reports the number of requests currently inside admitted
// handlers.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// RequestCount returns the number of requests a route answered with the
// given status class ("2xx", "4xx", "5xx", "429").
func (m *Metrics) RequestCount(route, class string) int64 {
	r := m.forRoute(route)
	if r == nil {
		return 0
	}
	for i, l := range statusLabels {
		if l == class {
			return r.requests[i].Load()
		}
	}
	return 0
}

// WriteText renders the registry in the Prometheus text exposition format
// (the hand-rolled equivalent of promhttp).
func (m *Metrics) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# HELP gvserve_requests_total Requests served, by route and status class.\n")
	fmt.Fprintf(w, "# TYPE gvserve_requests_total counter\n")
	for _, r := range m.routes {
		for i, label := range statusLabels {
			if n := r.requests[i].Load(); n > 0 {
				fmt.Fprintf(w, "gvserve_requests_total{route=%q,code=%q} %d\n", r.route, label, n)
			}
		}
	}
	fmt.Fprintf(w, "# HELP gvserve_request_duration_seconds Request latency histogram, by route.\n")
	fmt.Fprintf(w, "# TYPE gvserve_request_duration_seconds histogram\n")
	for _, r := range m.routes {
		if r.latency.total.Load() == 0 {
			continue
		}
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += r.latency.counts[i].Load()
			fmt.Fprintf(w, "gvserve_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", r.route, ub, cum)
		}
		cum += r.latency.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "gvserve_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r.route, cum)
		fmt.Fprintf(w, "gvserve_request_duration_seconds_sum{route=%q} %g\n", r.route, float64(r.latency.sumNs.Load())/1e9)
		fmt.Fprintf(w, "gvserve_request_duration_seconds_count{route=%q} %d\n", r.route, cum)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("gvserve_inflight_requests", "Requests currently inside admitted handlers.", m.inFlight.Load())
	counter("gvserve_shed_total", "Requests rejected with 429 by admission control.", m.shed.Load())
	gauge("gvserve_snapshot_epoch", "Epoch of the live immutable snapshot.", int64(m.epoch.Load()))
	gauge("gvserve_snapshot_pairs", "Total match pairs |V(G)| cached in the live snapshot.", m.snapshotPair.Load())
	gauge("gvserve_snapshot_graph_size", "Graph size |V|+|E| of the live snapshot.", m.snapshotSize.Load())
	counter("gvserve_publish_total", "Snapshots published since start.", m.publishes.Load())
	counter("gvserve_publish_ns_total", "Cumulative publish time (snapshot build, extension clone, swap) in nanoseconds.", m.publishNs.Load())
	counter("gvserve_publish_freeze_ns_total", "Cumulative time publishes spent building the immutable graph snapshot, in nanoseconds.", m.publishFreezeNs.Load())
	counter("gvserve_publish_dirty_nodes_total", "Nodes whose adjacency lists snapshot builds read from the live graph instead of copying from the previous snapshot.", m.publishDirtyNodes.Load())
	counter("gvserve_publish_shards_shared_total", "Shards (the whole CSR when unsharded) snapshot builds carried over from the previous snapshot untouched.", m.publishSharedParts.Load())
	counter("gvserve_panics_total", "Handler panics recovered and answered with 500.", m.panics.Load())
	gauge("gvserve_maintained_version", "Write clock: effective updates committed to the maintained views.", int64(m.version.Load()))
	gauge("gvserve_pending_updates", "Committed updates not yet visible in the live snapshot.", int64(m.version.Load()-m.published.Load()))
	counter("gvserve_updates_applied_total", "Effective edge updates applied.", m.updates.Load())
	counter("gvserve_maintenance_batches_total", "Coalesced update batches propagated into the maintained views.", m.maintBatches.Load())
	counter("gvserve_maintenance_recompute_total", "View refreshes that fell back to full rematerialization.", m.maintRecomputes.Load())
	counter("gvserve_maintenance_delta_total", "View refreshes served by affected-area delta propagation.", m.maintDeltaProps.Load())
	counter("gvserve_maintenance_skip_total", "View refreshes skipped as irrelevant to the batch.", m.maintSkips.Load())
	counter("gvserve_maintenance_coalesced_total", "Updates cancelled or deduplicated by coalescing before any view saw them.", m.maintCoalesced.Load())
	counter("gvserve_maintenance_affected_pairs_total", "Candidate pairs seeded beyond the previous match sets by delta propagation.", m.maintAffected.Load())
	counter("gvserve_maintenance_ns_total", "Cumulative view propagation (refresh) time in nanoseconds.", m.maintPropagateNs.Load())
	if m.store != nil {
		st := m.store.WALStats()
		counter("gvserve_wal_appended_records_total", "Records appended to the write-ahead log.", st.AppendedRecords.Load())
		counter("gvserve_wal_appended_bytes_total", "Framed bytes appended to the write-ahead log.", st.AppendedBytes.Load())
		counter("gvserve_wal_append_errors_total", "WAL appends that failed and were rolled back (the update was rejected with 503).", st.AppendErrors.Load())
		counter("gvserve_wal_fsync_total", "Explicit fsyncs of the write-ahead log.", st.Fsyncs.Load())
		counter("gvserve_wal_truncated_tail_total", "Recoveries that found and cut a torn or corrupted WAL tail.", st.TruncatedTails.Load())
		counter("gvserve_wal_truncated_tail_bytes_total", "Bytes discarded by WAL tail truncation.", st.TruncatedBytes.Load())
		gauge("gvserve_wal_size_bytes", "Current write-ahead log length (compacted to 0 by each checkpoint).", m.store.WALSize())
		writeHist(w, "gvserve_wal_fsync_seconds", "WAL fsync latency histogram.", &m.walFsync)
		gauge("gvserve_recovery_state", "1 while the server is replaying the WAL tail (queries get 503), 0 once ready.", m.recoveryState.Load())
		counter("gvserve_recovery_replayed_records_total", "WAL records replayed by crash recovery.", m.recoveryRecords.Load())
		counter("gvserve_recovery_replayed_updates_total", "Edge updates replayed into the maintained views by crash recovery.", m.recoveryUpdates.Load())
		counter("gvserve_recovery_dropped_updates_total", "Logged updates dropped during replay as out of node range.", m.recoveryDropped.Load())
		gauge("gvserve_recovery_duration_ns", "Wall time of the last WAL replay in nanoseconds.", m.recoveryNs.Load())
		counter("gvserve_checkpoint_total", "Snapshot checkpoints written (each compacts the WAL).", m.checkpoints.Load())
		counter("gvserve_checkpoint_errors_total", "Checkpoint attempts that failed (the previous checkpoint and full WAL remain).", m.checkpointErrors.Load())
		counter("gvserve_checkpoint_ns_total", "Cumulative checkpoint write time in nanoseconds.", m.checkpointNs.Load())
		cs := m.store.CheckpointStats()
		counter("gvserve_checkpoint_shards_written_total", "Shard part files written by checkpoints (k per checkpoint).", cs.ShardsWritten.Load())
		counter("gvserve_checkpoint_bytes_total", "Bytes written by checkpoints (part files plus manifests).", cs.BytesWritten.Load())
		counter("gvserve_checkpoint_parts_removed_total", "Superseded or orphaned checkpoint part files garbage-collected.", cs.PartsRemoved.Load())
		gauge("gvserve_recovery_remat_skipped", "1 when boot restored view extensions from the checkpoint and skipped rematerialization.", m.recoveryRematSkipped.Load())
		backlog := int64(0)
		if m.walBacklogLimit > 0 {
			if over := m.store.WALSize() - m.walBacklogLimit; over > 0 {
				backlog = over
			}
		}
		gauge("gvserve_wal_backlog_bytes", "Bytes the WAL has grown past the configured high-water mark (0 when healthy or unlimited).", backlog)
	}
}

// writeHist renders one label-less histogram in the exposition format.
func writeHist(w io.Writer, name, help string, h *latencyHist) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
