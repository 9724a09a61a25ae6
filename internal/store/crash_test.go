package store

// The fault-injection harness for the acceptance criterion: crash the
// store at a random WAL byte offset (and with randomly corrupted
// tails), recover, and require the maintained view extensions to be
// identical to full rematerialization over the surviving update prefix
// — the same differential-oracle shape as sharded_equivalence_test.go
// and the incremental-maintenance stream matrix, run across all three
// sync policies × the mutable, k=1 and k=3 checkpoints.

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// crashViews defines a small view set over richGraph's label alphabet:
// an edge view, a two-hop chain and a triangle-ish pattern, enough for
// deletions and insertions to move real match sets.
func crashViews() *view.Set {
	v1 := pattern.New("V1")
	a := v1.AddNode("a", "person")
	b := v1.AddNode("b", "site")
	v1.AddEdge(a, b)

	v2 := pattern.New("V2")
	x := v2.AddNode("x", "site")
	y := v2.AddNode("y", "item")
	z := v2.AddNode("z", "tag")
	v2.AddEdge(x, y)
	v2.AddEdge(y, z)

	v3 := pattern.New("V3")
	p := v3.AddNode("p", "item")
	q := v3.AddNode("q", "person")
	v3.AddEdge(p, q)
	v3.AddEdge(q, p)

	return view.NewSet(view.Define("V1", v1), view.Define("V2", v2), view.Define("V3", v3))
}

// crashStream generates nb random update batches over n nodes, mixing
// inserts and deletes of existing edges.
func crashStream(rng *rand.Rand, g *graph.Graph, nb int) [][]view.EdgeUpdate {
	n := g.NumNodes()
	sim := g.Clone() // tracks state so deletes target live edges
	batches := make([][]view.EdgeUpdate, 0, nb)
	for i := 0; i < nb; i++ {
		batch := make([]view.EdgeUpdate, 0, 4)
		for j := rng.Intn(4) + 1; j > 0; j-- {
			u := graph.NodeID(rng.Intn(n))
			if rng.Intn(3) == 0 && sim.OutDegree(u) > 0 {
				outs := sim.Out(u)
				v := outs[rng.Intn(len(outs))]
				sim.RemoveEdge(u, v)
				batch = append(batch, view.EdgeUpdate{From: u, To: v, Delete: true})
			} else {
				v := graph.NodeID(rng.Intn(n))
				sim.AddEdge(u, v)
				batch = append(batch, view.EdgeUpdate{From: u, To: v})
			}
		}
		batches = append(batches, batch)
	}
	return batches
}

// materialize is the from-scratch oracle: sequential, never cancelled.
func materialize(g graph.Reader, vs *view.Set) *view.Extensions {
	x, err := view.Materialize(g, vs, view.Options{})
	if err != nil {
		panic(err)
	}
	return x
}

// requireSameExtensions compares maintained extensions against a fresh
// materialization, per view, via the Result equality used by every
// equivalence suite in the repo.
func requireSameExtensions(t *testing.T, got, want *view.Extensions) {
	t.Helper()
	if len(got.Exts) != len(want.Exts) {
		t.Fatalf("extension count %d, want %d", len(got.Exts), len(want.Exts))
	}
	for i := range want.Exts {
		if !got.Exts[i].Result.Equal(want.Exts[i].Result) {
			t.Fatalf("view %d (%s): recovered extension differs from rematerialization\n got: %v\nwant: %v",
				i, want.Exts[i].Def.Name, got.Exts[i].Result, want.Exts[i].Result)
		}
	}
}

// TestCrashRecoveryMatrix is the kill-at-random-offset matrix: for each
// sync policy × checkpointed graph (the mutable one, checkpointed as its
// k=1 snapshot; Freeze, k=1; Shard, k=3), append a random update stream,
// "crash" by cutting the WAL at a random byte offset (sometimes also
// corrupting the new tail), recover, and require (1) the recovered tail
// is an exact batch prefix of what was appended and (2) replaying it
// through delta propagation yields extensions identical to full
// rematerialization from the surviving prefix.
func TestCrashRecoveryMatrix(t *testing.T) {
	policies := []SyncPolicy{
		{Mode: SyncAlways},
		{Mode: SyncNone},
		{Mode: SyncInterval, Interval: 5 * time.Millisecond},
	}
	backends := []struct {
		name       string
		checkpoint func(g *graph.Graph) graph.Reader
	}{
		{"mutable", func(g *graph.Graph) graph.Reader { return g }},
		{"frozen", func(g *graph.Graph) graph.Reader { return graph.Freeze(g) }},
		{"sharded", func(g *graph.Graph) graph.Reader { return graph.Shard(g, 3) }},
	}
	const trialsPerCell = 4
	for _, policy := range policies {
		policy := policy
		t.Run("sync="+policy.String(), func(t *testing.T) {
			for bi, backend := range backends {
				backend := backend
				t.Run(backend.name, func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(int64(1000 + bi)))
					for trial := 0; trial < trialsPerCell; trial++ {
						runCrashTrial(t, rng, policy, backend.checkpoint)
					}
				})
			}
		})
	}
}

// runCrashTrial runs one crash → recover → differential-oracle cycle.
func runCrashTrial(t *testing.T, rng *rand.Rand, policy SyncPolicy, checkpoint func(*graph.Graph) graph.Reader) {
	t.Helper()
	dir := t.TempDir()
	base := richGraph()
	vs := crashViews()

	s, err := Open(dir, Options{Sync: policy})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(checkpoint(base), nil, 1); err != nil {
		t.Fatal(err)
	}
	appended := crashStream(rng, base, 12)
	for _, b := range appended {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: cut the WAL at a random byte offset; half the time also
	// smear garbage over the new tail end.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := rng.Intn(len(data) + 1)
	torn := append([]byte(nil), data[:cut]...)
	if cut > 0 && rng.Intn(2) == 0 {
		torn[len(torn)-1-rng.Intn(minInt(cut, 8))] ^= byte(1 + rng.Intn(255))
	}
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Recover.
	s2, err := Open(dir, Options{Sync: policy})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if s2.Base() == nil || s2.BaseVersion() != 1 {
		t.Fatalf("checkpoint lost: base %v version %d", s2.Base(), s2.BaseVersion())
	}
	tail := s2.Tail()
	if len(tail) > len(appended) {
		t.Fatalf("recovered %d batches from a %d-batch log", len(tail), len(appended))
	}
	if len(tail) > 0 && !reflect.DeepEqual(tail, appended[:len(tail)]) {
		t.Fatalf("cut %d/%d: recovered tail is not an exact batch prefix", cut, len(data))
	}

	// Replay through delta propagation into maintained views.
	m, _ := view.NewMaintained(s2.Base().Thaw(), vs, view.Options{})
	feed := view.NewFeed(m)
	for _, b := range tail {
		feed.Submit(b...)
		feed.Flush()
	}
	got := m.SnapshotExtensions()

	// Oracle: full rematerialization over the surviving prefix.
	oracle := s2.Base().Thaw()
	for _, b := range tail {
		for _, up := range b {
			if up.Delete {
				oracle.RemoveEdge(up.From, up.To)
			} else {
				oracle.AddEdge(up.From, up.To)
			}
		}
	}
	requireSameExtensions(t, got, materialize(oracle, vs))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
