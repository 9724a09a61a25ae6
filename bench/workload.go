package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	gv "graphviews"
)

// opKind is one kind of client operation.
type opKind uint8

const (
	opQuery   opKind = iota // POST /query
	opUpdate                // POST /update
	opPublish               // POST /update?publish=1
)

// numClients is the number of closed-loop clients, each on its own
// keep-alive connection. Two is part of the workload definition: the
// write workloads need a second writer to queue behind a publish, and the
// update partition below is cut in two.
const numClients = 2

// Workload is one traffic mix with the data and server flags it runs on.
// The four instances in workloads are the benchmark; scaled copies serve
// the smoke test.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	Nodes, Edges int
	// Bound > 0 replaces the plain YouTube views with BoundedViews(.., Bound).
	Bound   int
	Shards  int
	Durable bool

	// QueryParams is the /query query string.
	QueryParams string
	// Queries is the number of distinct patterns; each is a GlueQuery of
	// at least MinNodes+[0,NodeSpan) nodes and MinEdges+[0,EdgeSpan) edges.
	Queries                                int
	MinNodes, NodeSpan, MinEdges, EdgeSpan int

	// Mix is the repeating per-client op pattern of the measured window.
	// A read-only Mix is followed by a short write tail so that the write
	// metrics exist on every workload (see README, "Write tail").
	Mix []opKind
	// TailRate is the number of update batches in that write tail per
	// second of window: enough for the tail to last five seconds or more
	// of a 12 s run, so that a short stall of the machine does not decide
	// its medians.
	//
	// A batch pays the maintenance pass, a hundred times the cost of one
	// that does not, as soon as one of its edges can match a view edge,
	// which about one random edge in sixteen does. The read-only workloads
	// set Batch to 64 so that nearly every batch pays it: with small
	// batches the number of costly ones in a run, not their cost, decides
	// update_eps and where the tail percentile falls.
	TailRate int
	// Batch is the number of edge ops per /update. In a Mix with updates,
	// every PublishEvery-th update of a client carries ?publish=1.
	Batch, PublishEvery int

	// QueryTail and UpdateTail are the percentiles reported as
	// query_tail_ms and update_tail_ms: the highest of 90, 95 and 99 that a
	// 12 s window on the seed commit leaves at least ten samples beyond,
	// with room to spare. They are fixed here, not picked from the sample
	// count at run time, so that a change that slows the server cannot
	// lower the percentile it is judged by.
	QueryTail, UpdateTail float64

	// TracedOps is how many ops per requested second the traced replay
	// executes. A count, not a clock, bounds the traced run so that its
	// exact-count metrics repeat for a fixed seed.
	TracedOps int
}

// crashCycles and crashBatches shape the crash phase of a durable
// workload: each cycle acknowledges crashBatches unpublished update
// batches, kills the server with SIGKILL and restarts it on the same
// directory.
const (
	crashCycles  = 5
	crashBatches = 64
)

// tailSize is the write tail of a read-only workload: that many plain
// update batches, then that many publishing ones, from one client. Counts
// rather than a clock, so every run takes its medians over equally many
// samples.
func (w Workload) tailSize(seconds float64) (updates, publishes int) {
	updates = max(int(float64(w.TailRate)*seconds), 8)
	return updates, max(updates/6, 2)
}

var workloads = []Workload{
	{
		Name:  "read_large",
		Why:   "200k/800k graph, 64 glued 5-8 node queries: MatchJoin seeding and fixpoint dominate each request; HTTP, parse and containment must not show",
		Nodes: 200000, Edges: 800000, Shards: 1,
		QueryParams: "strategy=minimal",
		Queries:     64, MinNodes: 5, NodeSpan: 4, MinEdges: 7, EdgeSpan: 6,
		Mix:       []opKind{opQuery},
		TailRate:  12,
		Batch:     64,
		QueryTail: 99, UpdateTail: 90,
		TracedOps: 60,
	},
	{
		Name:  "read_small",
		Why:   "20k/80k graph, 8 repeated 3-edge queries with pairs: middleware, parse, containment, JSON and net/http dominate; bypass for read_large gains",
		Nodes: 20000, Edges: 80000, Shards: 1,
		QueryParams: "strategy=minimal&pairs=1&limit=256",
		Queries:     8, MinNodes: 3, NodeSpan: 1, MinEdges: 3, EdgeSpan: 1,
		Mix:       []opKind{opQuery},
		TailRate:  48,
		Batch:     64,
		QueryTail: 99, UpdateTail: 95,
		TracedOps: 1200,
	},
	{
		Name:  "churn_bounded",
		Why:   "50k/200k graph, bound-2 views, half queries half update batches with publishes: bounded view maintenance and Freeze on publish do the work",
		Nodes: 50000, Edges: 200000, Bound: 2, Shards: 1,
		QueryParams: "strategy=minimal",
		Queries:     32, MinNodes: 4, NodeSpan: 3, MinEdges: 3, EdgeSpan: 3,
		Mix:   []opKind{opQuery, opUpdate},
		Batch: 4, PublishEvery: 16,
		QueryTail: 95, UpdateTail: 95,
		TracedOps: 90,
	},
	{
		Name:  "durable_write",
		Why:   "50k/200k graph, 8 shards, WAL fsync per ack, checkpoint per publish, then kill -9 cycles: store and the re-shard under the write lock beside view maintenance",
		Nodes: 50000, Edges: 200000, Shards: 8, Durable: true,
		QueryParams: "strategy=minimal",
		Queries:     64, MinNodes: 5, NodeSpan: 4, MinEdges: 7, EdgeSpan: 6,
		Mix:   []opKind{opQuery, opUpdate, opUpdate, opUpdate},
		Batch: 8, PublishEvery: 32,
		QueryTail: 90, UpdateTail: 95,
		TracedOps: 60,
	},
}

// workloadByName looks a workload up in the fixed list.
func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// readOnly reports whether the measured window issues no updates.
func (w Workload) readOnly() bool {
	for _, k := range w.Mix {
		if k != opQuery {
			return false
		}
	}
	return true
}

// viewSet returns the workload's view definitions.
func (w Workload) viewSet() *gv.ViewSet {
	vs := gv.YouTubeViews()
	if w.Bound > 0 {
		vs = gv.BoundedViews(vs, gv.Bound(w.Bound))
	}
	return vs
}

// serverArgs are the gvserve flags of the workload, minus -addr.
func (w Workload) serverArgs(in *Inputs, dataDir string) []string {
	args := []string{
		"-graph", in.GraphFile, "-views", in.ViewsFile,
		"-workers", "0", "-max-inflight", "64", "-timeout", "5s",
		"-shards", fmt.Sprint(w.Shards), "-quiet",
	}
	if w.Durable {
		args = append(args, "-data-dir", dataDir, "-wal-sync", "always", "-persist-exts")
	}
	return args
}

// poolSeed fixes the query shapes of a workload. The shapes are part of
// the workload's definition, like its sizes: -seed varies the data graph,
// the update edges and the order of requests, not which patterns are
// asked. (Glued queries range from 1 to 20 ms each at 200k nodes; letting
// the seed redraw 64 of them would move every latency metric by more
// than its bound from seed to seed.)
const poolSeed = 20140331

// Inputs is everything a run hands the program, plus the harness's own
// model of it: Graph starts as the generated data graph and has every
// acknowledged update applied to it, so gv.Match over it is the oracle.
type Inputs struct {
	W     Workload
	Seed  int64
	Graph *gv.Graph
	Views *gv.ViewSet
	// ViewsSrc is the DSL text written to ViewsFile; Views is parsed back
	// from it so harness and program hold the same definitions.
	ViewsSrc string
	Queries  []*gv.Pattern
	Bodies   [][]byte

	GraphFile, ViewsFile string
}

// generate builds the inputs of w for seed. The same (w, seed) always
// gives the same inputs.
func generate(w Workload, seed int64) (*Inputs, error) {
	in := &Inputs{W: w, Seed: seed}
	in.Graph = gv.GenerateYouTubeLike(w.Nodes, w.Edges, seed)

	var sb strings.Builder
	for _, d := range w.viewSet().Defs {
		p := d.Pattern.Clone()
		p.Name = d.Name
		sb.WriteString(p.String())
	}
	in.ViewsSrc = sb.String()
	ps, err := gv.ParsePatterns(in.ViewsSrc)
	if err != nil {
		return nil, fmt.Errorf("view DSL does not parse back: %w", err)
	}
	defs := make([]*gv.ViewDefinition, len(ps))
	for i, p := range ps {
		defs[i] = gv.Define("", p)
	}
	in.Views = gv.NewViewSet(defs...)

	rng := rand.New(rand.NewSource(poolSeed))
	seen := make(map[string]bool)
	for attempts := 0; len(in.Queries) < w.Queries; attempts++ {
		if attempts > 200*w.Queries {
			return nil, fmt.Errorf("%s: only %d distinct queries after %d draws", w.Name, len(in.Queries), attempts)
		}
		q := gv.GlueQuery(rng, in.Views, w.MinNodes+rng.Intn(w.NodeSpan), w.MinEdges+rng.Intn(w.EdgeSpan))
		q.Name = fmt.Sprintf("q%02d", len(in.Queries))
		key := strings.SplitN(q.String(), "\n", 2)[1] // shape without the name line
		if seen[key] {
			continue
		}
		seen[key] = true
		in.Queries = append(in.Queries, q)
		in.Bodies = append(in.Bodies, []byte(q.String()))
	}
	return in, nil
}

// writeFiles writes the graph and view files the program is started on.
func (in *Inputs) writeFiles(dir string) error {
	in.GraphFile = filepath.Join(dir, "graph.txt")
	in.ViewsFile = filepath.Join(dir, "views.dsl")
	f, err := os.Create(in.GraphFile)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := gv.WriteGraph(bw, in.Graph); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", in.GraphFile, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", in.GraphFile, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", in.GraphFile, err)
	}
	return os.WriteFile(in.ViewsFile, []byte(in.ViewsSrc), 0o644)
}

// op is one scheduled client operation.
type op struct {
	Kind  opKind
	Query int             // index into Inputs.Queries (opQuery)
	Batch []gv.EdgeUpdate // edge ops (opUpdate, opPublish)
}

// schedule generates one client's op sequence. It depends only on
// (workload, seed, client id): clients never consult shared state, so a
// schedule is the same whatever the other client or the server does.
type schedule struct {
	w       Workload
	id      int
	rng     *rand.Rand
	mixPos  int
	qOrder  []int
	qPos    int
	updates int
	// mine holds the edges currently present in this client's partition
	// (source node ≡ id mod numClients). Deletes draw from it, inserts add
	// to it. The partitions are disjoint, so the final graph does not
	// depend on how the clients interleave.
	mine  [][2]gv.NodeID
	nodes int
}

// owner returns the client whose partition holds edge (u, v).
func owner(u gv.NodeID) int { return int(u) % numClients }

// newSchedule prepares client id's generator over the initial graph.
func newSchedule(in *Inputs, id int) *schedule {
	s := &schedule{
		w:     in.W,
		id:    id,
		rng:   rand.New(rand.NewSource(in.Seed*1000003 + int64(id) + 1)),
		nodes: in.Graph.NumNodes(),
	}
	// Both clients walk one seeded permutation of the pool, half a lap
	// apart, so every query is asked equally often.
	s.qOrder = rand.New(rand.NewSource(in.Seed)).Perm(len(in.Queries))
	s.qPos = id * len(in.Queries) / numClients
	in.Graph.Edges(func(u, v gv.NodeID) bool {
		if owner(u) == id {
			s.mine = append(s.mine, [2]gv.NodeID{u, v})
		}
		return true
	})
	return s
}

// next returns the client's next op under mix.
func (s *schedule) next(mix []opKind) op {
	kind := mix[s.mixPos%len(mix)]
	s.mixPos++
	if kind == opQuery {
		q := s.qOrder[s.qPos%len(s.qOrder)]
		s.qPos++
		return op{Kind: opQuery, Query: q}
	}
	s.updates++
	if s.w.PublishEvery > 0 && s.updates%s.w.PublishEvery == 0 {
		kind = opPublish
	}
	return op{Kind: kind, Batch: s.batch()}
}

// batch draws one update batch: half deletes of edges that exist, half
// inserts of random edges, all inside this client's partition.
func (s *schedule) batch() []gv.EdgeUpdate {
	b := make([]gv.EdgeUpdate, 0, s.w.Batch)
	for i := 0; i < s.w.Batch/2 && len(s.mine) > 0; i++ {
		j := s.rng.Intn(len(s.mine))
		e := s.mine[j]
		s.mine[j] = s.mine[len(s.mine)-1]
		s.mine = s.mine[:len(s.mine)-1]
		b = append(b, gv.EdgeUpdate{From: e[0], To: e[1], Delete: true})
	}
	slots := (s.nodes - s.id + numClients - 1) / numClients
	for len(b) < s.w.Batch {
		u := gv.NodeID(s.id + numClients*s.rng.Intn(slots))
		v := gv.NodeID(s.rng.Intn(s.nodes))
		if u == v {
			continue
		}
		s.mine = append(s.mine, [2]gv.NodeID{u, v})
		b = append(b, gv.EdgeUpdate{From: u, To: v})
	}
	return b
}

// updateBody renders a batch in the /update text format.
func updateBody(b []gv.EdgeUpdate) []byte {
	var sb strings.Builder
	for _, up := range b {
		if up.Delete {
			fmt.Fprintf(&sb, "del %d %d\n", up.From, up.To)
		} else {
			fmt.Fprintf(&sb, "add %d %d\n", up.From, up.To)
		}
	}
	return []byte(sb.String())
}

// applyToModel applies acknowledged batches to the model graph.
func (in *Inputs) applyToModel(batches [][]gv.EdgeUpdate) {
	for _, b := range batches {
		for _, up := range b {
			if up.Delete {
				in.Graph.RemoveEdge(up.From, up.To)
			} else {
				in.Graph.AddEdge(up.From, up.To)
			}
		}
	}
}
