package graphviews

// Engine is the concurrent answer-from-views pipeline: the same
// algorithms as the package-level Materialize / Contains / MatchJoin /
// Answer entry points, with the view-side phases — one simulation per
// view, shard-parallel candidate seeding, the distance-recording
// enumeration of bounded views, and maintenance — fanned out over a
// bounded worker pool, and with cooperative cancellation through a
// context. Query-time calls (Contains, MatchJoin, Answer) run on the
// caller's goroutine: a server's parallelism is across its requests.
//
// Every Engine method calls the same internal function as its
// package-level counterpart: the engine fills that function's Options
// (context, worker bound where one applies, scratch pool), the
// package-level wrapper passes the zero value. Results are
// byte-identical at any parallelism. Engines are immutable after
// construction and safe for concurrent use.

import (
	"context"
	"runtime"

	"graphviews/internal/core"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// Engine runs view materialization and view-based query answering with a
// configurable worker pool and cancellation context. The zero value is
// not usable; call NewEngine.
//
// Each engine owns two scratch pools (simulation and MatchJoin working
// state): repeated Materialize/MatchJoin/Answer calls reuse bitset rows,
// support-counter arrays and worklists from per-query bump arenas
// instead of reallocating O(|V|·|Q|) state per call, which is what keeps
// the steady-state serving path nearly allocation-free. Pools are
// sync.Pool-backed, so concurrent use of one engine stays safe and
// scratches are dropped under memory pressure.
type Engine struct {
	parallelism int
	shards      int
	ctx         context.Context
	simScratch  *simulation.ScratchPool
	mjScratch   *core.ScratchPool
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism bounds the worker pool to n goroutines; n <= 0 selects
// GOMAXPROCS. The default is GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		e.parallelism = n
	}
}

// WithShards sets the shard count of the snapshot every read-only
// engine call runs on (graph.Shard): with n >= 2 candidate seeding — the
// hottest phase of view materialization — fans out per shard over the
// worker pool with no shared label index and no lock. n == 1 is the
// single-shard snapshot Freeze builds (the default); n <= 0 selects the
// automatic heuristic, which shards snapshots of at least autoShardSize
// into min(parallelism, maxAutoShards) partitions. Results are
// byte-identical at every shard count. A pre-built *Sharded passed to an
// engine call is always used as-is (build one with Freeze or Shard to
// amortize the snapshot across calls).
func WithShards(n int) Option {
	return func(e *Engine) {
		e.shards = n
	}
}

// WithContext attaches a cancellation context: long-running engine calls
// observe ctx between work items and return ctx.Err() once it is
// cancelled. The default is context.Background().
func WithContext(ctx context.Context) Option {
	return func(e *Engine) {
		if ctx == nil {
			ctx = context.Background()
		}
		e.ctx = ctx
	}
}

// NewEngine builds an engine; by default it uses GOMAXPROCS workers and
// is never cancelled.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		parallelism: runtime.GOMAXPROCS(0),
		shards:      1,
		ctx:         context.Background(),
		simScratch:  simulation.NewScratchPool(),
		mjScratch:   core.NewScratchPool(),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Parallelism reports the engine's worker bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// autoShardSize is the snapshot size (|V|+|E|) at which the auto-shard
// heuristic (WithShards with n <= 0) starts partitioning: below it the
// O(|V|+|E|) split costs more than the per-shard seeding saves.
const autoShardSize = 1 << 16

// maxAutoShards caps the partition count the auto heuristic picks;
// beyond the pool width extra shards only add merge work.
const maxAutoShards = 8

// shardCount resolves the engine's shard setting against a snapshot
// size: a fixed n >= 1 is used verbatim, n <= 0 applies the heuristic.
func (e *Engine) shardCount(size int) int {
	if e.shards >= 1 {
		return e.shards
	}
	if e.parallelism < 2 || size < autoShardSize {
		return 1
	}
	return min(e.parallelism, maxAutoShards)
}

// snapshot builds g's immutable snapshot once per engine call so every
// worker shares it: no label-index mutex on the seeding path, no mutable
// state visible to the pool. A pre-built *Sharded is used as-is, at
// whatever shard count it has. The context is checked first so
// cancelled calls do not pay the O(|V|+|E|) build.
func (e *Engine) snapshot(g GraphReader) (GraphReader, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	if sh, ok := g.(*Sharded); ok {
		return sh, nil
	}
	return Shard(g, e.shardCount(g.Size())), nil
}

// Snapshot builds the immutable read snapshot the engine's evaluation
// calls would run g through: the single-shard *Sharded that Freeze
// builds by default, or k hash partitions when sharding is configured
// (WithShards); a pre-built *Sharded is returned as-is. This
// is the accessor serving layers publish through — build the snapshot
// once under the writer's lock, store it behind an atomic pointer, and
// every concurrent query reads one immutable graph with no lock and no
// torn state (see internal/serve). It returns the engine context's
// error when already cancelled, before paying the O(|V|+|E|) build.
func (e *Engine) Snapshot(g GraphReader) (GraphReader, error) {
	return e.snapshot(g)
}

// WithRequest returns a request-scoped handle on the engine: a shallow
// copy sharing the warmed scratch pools, worker bound and shard
// configuration, with ctx attached in place of the engine's own. It is
// how a long-lived serving engine gives each request its own
// timeout/cancellation without rebuilding (and re-warming) the
// sync.Pool-backed scratches: the handle is as cheap as a struct copy,
// and any number of handles may run concurrently. A nil ctx means
// context.Background().
func (e *Engine) WithRequest(ctx context.Context) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	d := *e
	d.ctx = ctx
	return &d
}

// viewOptions and coreOptions are where the engine's context, worker
// bound and scratch pools enter the internal packages; the package-level
// wrappers in graphviews.go pass the zero Options (sequential, transient).
func (e *Engine) viewOptions() view.Options {
	return view.Options{Ctx: e.ctx, Workers: e.parallelism, Pool: e.simScratch}
}

func (e *Engine) coreOptions() core.Options {
	return core.Options{Ctx: e.ctx, Pool: e.mjScratch}
}

// Materialize evaluates every view over g concurrently (one worker task
// per view; spare workers accelerate bounded views' distance
// enumeration), producing the same extensions as the package-level
// Materialize. The engine auto-freezes g once per call, so the worker
// pool evaluates against a shared immutable CSR snapshot; pass a
// pre-built *Sharded (Freeze or Shard) to amortize the snapshot across
// calls. Over k > 1 shards (WithShards, or a pre-built *Sharded)
// candidate seeding fans out per shard across the pool.
func (e *Engine) Materialize(g GraphReader, vs *ViewSet) (*Extensions, error) {
	r, err := e.snapshot(g)
	if err != nil {
		return nil, err
	}
	return view.Materialize(r, vs, e.viewOptions())
}

// MaterializeDual is the dual-simulation counterpart of Materialize; it
// auto-freezes g the same way.
func (e *Engine) MaterializeDual(g GraphReader, vs *ViewSet) (*Extensions, error) {
	r, err := e.snapshot(g)
	if err != nil {
		return nil, err
	}
	return view.MaterializeDual(r, vs, e.viewOptions())
}

// BuildDistIndex builds I(V) with per-extension partial indexes computed
// concurrently and merged keeping minimum distances.
func (e *Engine) BuildDistIndex(x *Extensions) (*DistIndex, error) {
	return view.BuildDistIndex(x, e.viewOptions())
}

// Contains decides Qs ⊑ V, observing the engine context between the
// per-view matches.
func (e *Engine) Contains(q *Pattern, vs *ViewSet) (*Lambda, bool, error) {
	return core.Contain(q, vs, e.coreOptions())
}

// MatchJoin evaluates q from extensions only, on the calling goroutine
// with working state from the engine's scratch pool: every query edge's
// match set is seeded, then one support-counter cascade removes
// unsupported pairs. The engine context is observed between seeded edges
// and before the cascade. Results and Stats are byte-identical to the
// package-level MatchJoin.
func (e *Engine) MatchJoin(q *Pattern, x *Extensions, l *Lambda) (*Result, Stats, error) {
	return core.MatchJoin(q, x, l, e.coreOptions())
}

// Answer computes Q(G) from materialized extensions only, like the
// package-level Answer, on the calling goroutine with the engine's
// context and scratch pool. The Stats expose the MatchJoin work
// counters.
func (e *Engine) Answer(q *Pattern, x *Extensions, s Strategy) (*Result, []int, Stats, error) {
	return core.Answer(q, x, s, e.coreOptions())
}

// Maintain materializes vs over g through the engine's worker pool and
// returns extensions that refresh concurrently under edge updates. The
// engine context bounds only the initial materialization: once updates
// start mutating the graph, refreshes run to completion so the cached
// extensions never fall out of sync with the graph. Maintain is the one
// engine entry point that requires the mutable *Graph (it writes); it
// never freezes, since a snapshot would immediately go stale.
func (e *Engine) Maintain(g *Graph, vs *ViewSet) (*Maintained, error) {
	return view.NewMaintained(g, vs, view.Options{Ctx: e.ctx, Workers: e.parallelism})
}

// MaintainFrom is Maintain with the initial materialization already in
// hand: x must be exactly the extensions of vs=x.Set over g — e.g.
// restored from a durable checkpoint taken at g's write clock — and is
// adopted as-is, skipping the materialization pass entirely. Updates
// refresh through the same delta-propagation pipeline as Maintain.
func (e *Engine) MaintainFrom(g *Graph, x *Extensions) *Maintained {
	return view.NewMaintainedFromExtensions(g, x, e.parallelism)
}
