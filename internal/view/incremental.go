package view

// Incremental maintenance of materialized view extensions under edge
// updates. Section I of the paper motivates cached pattern views with
// "incremental methods are already in place to efficiently maintain cached
// pattern views (e.g., [15])" — this file supplies that substrate as a
// delta-propagation pipeline:
//
//	update stream → coalesce → per-view relevance → affected-area
//	propagation → commit/publish
//
// Every entry point (unit inserts and deletes, batches, the change feed
// in delta.go) funnels into one apply path, applyNet, so the correctness
// argument lives in exactly one place:
//
//   - Edge deletion can only shrink match sets, so the old match relation
//     is a valid superset: refinement is re-run seeded from the previous
//     sim sets (simulation.Options.Seeds), touching only the affected
//     region rather than re-scanning the label index.
//   - Edge insertion can only grow match sets, and the growth is confined
//     to the affected area: nodes with a path (of bounded length, see
//     affected.go) to an inserted edge's source. Propagation seeds the
//     refinement fixpoint from the previous sim sets plus only the
//     affected candidates — the insertion-side dual of the deletion seed —
//     instead of rematerializing the view. Bounded views additionally
//     reuse their recorded distance index: under insert-only batches only
//     affected sources are re-walked (simulation.SimulateBoundedGrow).
//   - Relevance is decided per view before any propagation runs: plain
//     views test the updated edge's endpoints against the pattern's edge
//     conditions; bounded views run the distance-aware ball test of
//     affected.go (an inserted or deleted edge too far from any
//     condition-matching nodes to sit on a within-bound path is a no-op).
//
// Equivalence with full rematerialization is enforced by randomized tests.

import (
	"context"
	"sync/atomic"
	"time"

	"graphviews/internal/graph"
	"graphviews/internal/par"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
)

// MaintStats counts what incremental maintenance did, cumulatively since
// construction. The counters are written by the updating goroutine only
// (writers are externally serialized, like all Maintained mutation) and
// are the source of the gvserve_maintenance_* metrics.
type MaintStats struct {
	// Recomputes counts view extensions rebuilt by full simulation — the
	// slow path, taken only when a relevant insertion hits a view with no
	// previous match to grow from.
	Recomputes int
	// DeltaProps counts view extensions refreshed by delta propagation:
	// refinement seeded from the previous sim sets (deletions) or from
	// the previous sets plus the affected candidates (insertions).
	DeltaProps int
	// Skips counts per-view fast-path no-ops: the batch was provably
	// irrelevant to the view, so its extension was left untouched.
	Skips int
	// CoalescedAway counts unit updates cancelled before propagation:
	// duplicate operations on one edge within a batch collapse to the
	// last one (insert+delete of the same edge cancels).
	CoalescedAway int
	// AffectedPairs counts (pattern node, graph node) candidate pairs
	// seeded beyond the previous sim sets across all insertion
	// propagations — the size of the grow frontier the delta path
	// actually touched.
	AffectedPairs int
	// Batches counts committed update operations (a unit insert or
	// delete counts as one batch).
	Batches int
	// Updates counts effective (graph-changing, post-coalescing) edge
	// updates across all batches.
	Updates int
	// PropagateNs is the cumulative wall-clock time spent refreshing
	// extensions, in nanoseconds.
	PropagateNs int64
}

// Maintained couples a mutable data graph with materialized extensions
// that are kept in sync through InsertEdge/DeleteEdge/ApplyBatch.
// Maintenance is the one pipeline stage that writes to the graph, so
// Maintained is deliberately pinned to *graph.Graph rather than the
// read-only graph.Reader the evaluation engines accept.
type Maintained struct {
	G *graph.Graph
	X *Extensions

	// Stats accumulates maintenance counters; see MaintStats.
	Stats MaintStats

	// workers bounds the per-view refresh parallelism (1 = sequential).
	// Graph mutation always happens before the fan-out, so workers only
	// ever read the graph concurrently.
	workers int

	// info caches per-view propagation metadata (compiled node
	// conditions, bounds, affected-area radius); built lazily since
	// tests construct Maintained literals. Node conditions read labels
	// and attributes only, so the cache stays valid under edge updates.
	info []*maintInfo

	// version counts effective updates (graph-changing unit updates and
	// batch elements) committed through this Maintained. It is bumped
	// after the extensions have been refreshed, so a reader that observes
	// version n is guaranteed extensions consistent with the first n
	// updates. Atomic so monitoring goroutines may read it while a writer
	// mutates; writers themselves must still be externally serialized.
	version atomic.Uint64

	// publishHook, when set, runs after every committed update batch with
	// the new version (see SetPublishHook).
	publishHook func(version uint64)
}

// maintInfo is the per-view metadata the delta path needs on every
// batch, computed once per view.
type maintInfo struct {
	p        *pattern.Pattern
	compiled []pattern.CompiledNode
	plain    bool
	// hasStar: the pattern has an Unbounded edge, so no local distance
	// test can bound its reach — every effective update is relevant and
	// the affected area is the full ancestor set.
	hasStar bool
	// maxBound is the largest finite edge bound (1 for plain patterns);
	// the relevance ball radius is maxBound-1.
	maxBound int
	// radius bounds the affected area of an insertion for this view:
	// the longest weighted directed path in the pattern (see
	// affectedRadius); -1 means unbounded (cyclic pattern or * edge).
	radius int64
}

// Version reports the number of effective updates committed so far: the
// monotone write clock of this Maintained. Snapshot-publishing layers
// record it at publish time and derive the pending-write backlog as
// Version() - published. Safe to call concurrently with a writer.
func (m *Maintained) Version() uint64 { return m.version.Load() }

// SetPublishHook registers fn to run after every update operation that
// changed the graph, once the extensions have been refreshed, with the
// new Version as argument. It is the snapshot-publish trigger of a
// serving layer: the hook decides whether the accumulated writes
// warrant publishing a fresh immutable snapshot (internal/serve kicks
// its publisher goroutine from here). The hook runs on the updating
// goroutine with the update fully applied — it must not re-enter the
// Maintained, and it should hand long work to another goroutine.
// Passing nil removes the hook. Not safe to call concurrently with
// updates.
func (m *Maintained) SetPublishHook(fn func(version uint64)) { m.publishHook = fn }

// commit bumps the write clock by n effective updates and fires the
// publish hook. Called once per update operation, after refresh.
func (m *Maintained) commit(n int) {
	if n <= 0 {
		return
	}
	v := m.version.Add(uint64(n))
	if m.publishHook != nil {
		m.publishHook(v)
	}
}

// SnapshotExtensions returns an immutable snapshot of the current
// extensions: the Set and a copy of the extension list. It relies on the
// maintenance invariant that refreshes replace m.X.Exts[i] with a fresh
// *Extension and never mutate a published Extension or its Result in
// place, so the shallow copy shares the (now-frozen) per-view results
// without copying match sets. Callers must serialize with updates — call
// it under the same lock that orders InsertEdge/DeleteEdge/ApplyBatch;
// the returned value is then safe for unsynchronized concurrent reads
// forever (the RCU publish path of internal/serve).
func (m *Maintained) SnapshotExtensions() *Extensions {
	return &Extensions{Set: m.X.Set, Exts: append([]*Extension(nil), m.X.Exts...)}
}

// NewMaintained materializes s over g and starts tracking updates: both
// the initial materialization and every per-view refresh under updates
// fan out over the options' worker bound. o.Ctx bounds only the initial
// materialization; later refreshes always run to completion so the
// extensions never fall out of sync with the already-mutated graph.
func NewMaintained(g *graph.Graph, s *Set, o Options) (*Maintained, error) {
	x, err := Materialize(g, s, o)
	if err != nil {
		return nil, err
	}
	return &Maintained{G: g, X: x, workers: par.OptionWorkers(o.Workers)}, nil
}

// NewMaintainedFromExtensions couples g with extensions that were
// materialized earlier — typically thawed from a durable checkpoint
// together with the graph — and starts tracking updates without
// re-running the initial materialization. The caller must guarantee x
// is exactly Materialize(g, x.Set): the store's checkpoint protocol
// provides this (graph and extensions are committed under one write
// clock), and replaying a WAL tail on top goes through the ordinary
// delta-propagation path.
func NewMaintainedFromExtensions(g *graph.Graph, x *Extensions, workers int) *Maintained {
	return &Maintained{G: g, X: x, workers: workers}
}

// SetParallelism changes the refresh worker bound (<= 0 means GOMAXPROCS).
func (m *Maintained) SetParallelism(workers int) { m.workers = workers }

// ensureInfo builds the per-view metadata cache on first use.
func (m *Maintained) ensureInfo() {
	if m.info != nil {
		return
	}
	m.info = make([]*maintInfo, len(m.X.Exts))
	for i, ext := range m.X.Exts {
		p := ext.Def.Pattern
		mi := &maintInfo{
			p:        p,
			compiled: compileNodes(m.G, p),
			plain:    p.IsPlain(),
			maxBound: 1,
			radius:   affectedRadius(p),
		}
		for _, e := range p.Edges {
			if e.Bound == pattern.Unbounded {
				mi.hasStar = true
			} else if int(e.Bound) > mi.maxBound {
				mi.maxBound = int(e.Bound)
			}
		}
		m.info[i] = mi
	}
}

// viewOutcome is the bookkeeping result of refreshing one extension.
type viewOutcome struct {
	kind viewOutcomeKind
	// added is the number of candidate pairs seeded beyond the previous
	// sim sets (insertion propagations only).
	added int
}

type viewOutcomeKind int8

const (
	outcomeSkip viewOutcomeKind = iota
	outcomeDelta
	outcomeRecompute
)

// refresh runs fn for every extension index over the worker pool and then
// folds the outcomes into Stats (sequentially, so the exported counters
// stay plain ints). It returns par.ForEach's error rather than discarding
// it: by the time refresh runs the graph has already been mutated, so an
// aborted fan-out would leave extensions stale and must not pass
// silently. Refreshes deliberately run under context.Background() — they
// must complete once the graph has changed — so today the error is
// provably nil (ForEach only returns ctx.Err(); panics in fn propagate);
// mustRefresh asserts that invariant for the update entry points until a
// cancellable refresh with re-sync semantics exists.
func (m *Maintained) refresh(fn func(i int) viewOutcome) error {
	outcomes := make([]viewOutcome, len(m.X.Exts))
	if err := par.ForEach(context.Background(), m.workers, len(m.X.Exts), func(i int) {
		outcomes[i] = fn(i)
	}); err != nil {
		return err
	}
	for _, o := range outcomes {
		switch o.kind {
		case outcomeSkip:
			m.Stats.Skips++
		case outcomeDelta:
			m.Stats.DeltaProps++
		case outcomeRecompute:
			m.Stats.Recomputes++
		}
		m.Stats.AffectedPairs += o.added
	}
	return nil
}

// mustRefresh runs refresh and asserts the Background-context invariant:
// a non-nil error here means extensions silently diverged from the graph,
// which is corruption, not a recoverable condition.
func (m *Maintained) mustRefresh(fn func(i int) viewOutcome) {
	if err := m.refresh(fn); err != nil {
		panic("view: maintenance refresh aborted with graph already mutated: " + err.Error())
	}
}

// InsertEdge adds (u,v) to the graph and updates every extension by
// delta propagation. It reports whether the edge was new. Insertion
// relevance is evaluated against the post-insertion graph — the graph in
// which the new edge exists — which is the state a candidate match of it
// would live in.
func (m *Maintained) InsertEdge(u, v graph.NodeID) bool {
	return m.applyNet([]EdgeUpdate{{From: u, To: v}}) == 1
}

// DeleteEdge removes (u,v) from the graph and updates every extension by
// seeded refinement. It reports whether the edge existed. The skip test
// asks whether the removed edge could have participated in a match, so
// it is decided against the pre-deletion graph — the only state in which
// the edge ever matched anything.
func (m *Maintained) DeleteEdge(u, v graph.NodeID) bool {
	return m.applyNet([]EdgeUpdate{{From: u, To: v, Delete: true}}) == 1
}

// EdgeUpdate is one element of a batch update stream.
type EdgeUpdate struct {
	From, To graph.NodeID
	Delete   bool
}

// ApplyBatch coalesces a stream of updates (see Coalesce) and applies
// the net batch with one maintenance pass per view instead of one per
// update: all graph mutations are applied first, then each affected
// extension is refreshed once. It returns the number of net updates that
// changed the graph — opposing operations on one edge cancel before they
// are counted, so the return value can be smaller than the number of
// graph transitions the uncoalesced stream would have performed (the
// final graph and extensions are identical either way).
//
// Relevance is decided per update at the moment it is applied — for a
// deletion against the graph still holding the edge, for an insertion
// against the graph with the edge just added — never against the fully
// mutated batch-end graph, whose state says nothing about whether an
// already-removed edge could once have matched. Updates that do not
// change the graph (re-inserting a present edge, deleting an absent one)
// cannot affect any extension and are ignored by the relevance test.
func (m *Maintained) ApplyBatch(updates []EdgeUpdate) int {
	net, dropped := Coalesce(updates)
	m.Stats.CoalescedAway += dropped
	return m.applyNet(net)
}

// applyNet is the single apply path under every entry point: mutate the
// graph while tracking per-view relevance, compute the affected area of
// the inserted edges, propagate per view over the worker pool, commit.
// net must already be coalesced (at most one operation per edge).
func (m *Maintained) applyNet(net []EdgeUpdate) int {
	if len(net) == 0 {
		return 0
	}
	m.ensureInfo()
	rs := m.newRelevance()
	applied := 0
	anyDelete := false
	var insertSrcs []graph.NodeID
	for _, up := range net {
		if up.Delete {
			if !m.G.HasEdge(up.From, up.To) {
				continue
			}
			m.markRelevant(rs, up.From, up.To) // pre-deletion state
			m.G.RemoveEdge(up.From, up.To)
			applied++
			anyDelete = true
		} else if m.G.AddEdge(up.From, up.To) {
			applied++
			insertSrcs = appendUnique(insertSrcs, up.From)
			m.markRelevant(rs, up.From, up.To) // post-insertion state
		}
	}
	if applied == 0 {
		return 0
	}

	// The affected area is shared by every view's grow seed; its BFS
	// depth is the largest radius any relevant matched view needs (per
	// the lockstep argument in affected.go, a view never needs to look
	// farther back than its own pattern's longest weighted path).
	var aff *affectedArea
	if len(insertSrcs) > 0 {
		radius := int64(0)
		for i, mi := range m.info {
			if !rs.relevant[i] || !m.X.Exts[i].Result.Matched {
				continue
			}
			if mi.radius < 0 {
				radius = -1
				break
			}
			if mi.radius > radius {
				radius = mi.radius
			}
		}
		aff = m.computeAffected(insertSrcs, radius)
	}

	start := time.Now()
	m.mustRefresh(func(i int) viewOutcome {
		return m.propagate(i, rs.relevant[i], aff, anyDelete)
	})
	m.Stats.PropagateNs += time.Since(start).Nanoseconds()
	m.Stats.Batches++
	m.Stats.Updates += applied
	m.commit(applied)
	return applied
}

// propagate refreshes one extension after a batch whose inserted-edge
// affected area is aff (nil for deletion-only batches). It never mutates
// a published Extension: refreshed slots get a fresh *Extension.
func (m *Maintained) propagate(i int, relevant bool, aff *affectedArea, anyDelete bool) viewOutcome {
	ext := m.X.Exts[i]
	mi := m.info[i]
	p := ext.Def.Pattern
	old := ext.Result
	if !relevant {
		return viewOutcome{kind: outcomeSkip}
	}
	if aff == nil {
		// Deletion-only: match sets can only shrink.
		if !old.Matched {
			return viewOutcome{kind: outcomeSkip}
		}
		res := simulation.Simulate(m.G, p, simulation.Options{Seeds: old.Sim})
		m.X.Exts[i] = &Extension{Def: ext.Def, Result: res}
		return viewOutcome{kind: outcomeDelta}
	}
	if !old.Matched {
		// No previous sim sets to grow from (an unmatched result stores
		// empty ones): full simulation is the only sound move.
		m.X.Exts[i] = &Extension{Def: ext.Def, Result: simulation.Simulate(m.G, p, simulation.Options{})}
		return viewOutcome{kind: outcomeRecompute}
	}
	seeds, added := growSeeds(m.G, p, mi, old, aff)
	var res *simulation.Result
	if mi.plain || anyDelete {
		// Plain views, and bounded ones once a deletion is in the batch:
		// deletions can lengthen shortest paths anywhere, so the recorded
		// distance index cannot be patched locally — refine from the grow
		// seeds, then re-enumerate in full.
		res = simulation.Simulate(m.G, p, simulation.Options{Seeds: seeds})
	} else {
		// Insert-only: distances only shorten, and only for affected
		// sources — reuse the recorded index for everything else.
		res = simulation.SimulateBoundedGrow(m.G, p, seeds, old, aff.within(m.G.NumNodes(), mi.radius))
	}
	m.X.Exts[i] = &Extension{Def: ext.Def, Result: res}
	return viewOutcome{kind: outcomeDelta, added: added}
}

// growSeeds builds the insertion-side refinement seeds for one view:
// the previous sim sets plus every affected candidate within the view's
// radius. The result is sorted and duplicate-free per pattern node (the
// Options.Seeds contract); added counts the pairs beyond the previous
// sets. Sound because any node newly entering sim must have a lockstep
// path to an inserted source (see affected.go), so seeding old ∪
// (affected ∩ candidates) covers the greatest fixpoint, and refinement
// from any superset of it converges to exactly the true match sets.
func growSeeds(g *graph.Graph, p *pattern.Pattern, mi *maintInfo, old *simulation.Result, aff *affectedArea) (seeds [][]graph.NodeID, added int) {
	seeds = make([][]graph.NodeID, len(p.Nodes))
	for u := range p.Nodes {
		cn := &mi.compiled[u]
		needOut := mi.plain && len(p.OutEdges(u)) > 0
		oldSim := old.Sim[u]
		merged := make([]graph.NodeID, 0, len(oldSim)+8)
		j := 0
		for _, v := range aff.nodes { // ascending
			for j < len(oldSim) && oldSim[j] < v {
				merged = append(merged, oldSim[j])
				j++
			}
			if j < len(oldSim) && oldSim[j] == v {
				merged = append(merged, v)
				j++
				continue
			}
			if mi.radius >= 0 && int64(aff.depth[v]) > mi.radius {
				continue
			}
			if needOut && g.OutDegree(v) == 0 {
				continue
			}
			if cn.Matches(g, v) {
				merged = append(merged, v)
				added++
			}
		}
		merged = append(merged, oldSim[j:]...)
		seeds[u] = merged
	}
	return seeds, added
}

// compileNodes resolves every pattern node condition against g. The
// result stays valid under edge insertions and deletions (conditions
// read node labels and attributes only).
func compileNodes(g graph.Reader, p *pattern.Pattern) []pattern.CompiledNode {
	compiled := make([]pattern.CompiledNode, len(p.Nodes))
	for i := range p.Nodes {
		compiled[i] = pattern.CompileNode(&p.Nodes[i], g)
	}
	return compiled
}

// edgeRelevantCompiled reports whether the edge (u,v) can possibly
// serve as a match of some pattern edge of a plain view: its endpoints
// must satisfy the endpoint conditions (pre-compiled) of at least one
// pattern edge. The conditions inspect only node labels and attributes,
// so g must be a graph state in which the edge is (or was) present:
// post-insertion for inserts, pre-deletion for deletes.
func edgeRelevantCompiled(g graph.Reader, p *pattern.Pattern, compiled []pattern.CompiledNode, u, v graph.NodeID) bool {
	for _, e := range p.Edges {
		if compiled[e.From].Matches(g, u) && compiled[e.To].Matches(g, v) {
			return true
		}
	}
	return false
}

// appendUnique appends v to s unless present (s stays small: distinct
// insertion sources of one batch).
func appendUnique(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
