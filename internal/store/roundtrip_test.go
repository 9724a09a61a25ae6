package store

// What the checkpoint codec must guarantee, whatever the backend:
// Checkpoint → Open is the identity (reflect.DeepEqual, down to the
// unexported flat arrays), and a committed checkpoint is atomic — any
// damaged byte in any part is an Open error, never data.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphviews/internal/graph"
)

// richGraph builds a graph exercising every serialized column: several
// labels, integer and categorical attributes, nodes with no attributes,
// and enough edges that sharding splits edges across shards.
func richGraph() *graph.Graph {
	g := graph.New()
	labels := []string{"person", "site", "item", "tag"}
	for i := 0; i < 40; i++ {
		v := g.AddNode(labels[i%len(labels)])
		if i%3 == 0 {
			g.SetAttr(v, "age", int64(20+i))
		}
		if i%5 == 0 {
			g.SetAttrString(v, "city", []string{"oslo", "lima", "pune"}[i%3])
		}
	}
	for i := 0; i < 40; i++ {
		u := graph.NodeID(i)
		g.AddEdge(u, graph.NodeID((i+1)%40))
		g.AddEdge(u, graph.NodeID((i*7+3)%40))
		if i%4 == 0 {
			g.AddEdge(u, graph.NodeID((i*13+5)%40))
		}
	}
	return g
}

// checkpointOpen round-trips a backend through a fresh data directory.
func checkpointOpen(t *testing.T, g graph.Reader, version uint64) (graph.Reader, uint64) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Checkpoint(g, nil, version); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	return s2.Base(), s2.BaseVersion()
}

// TestSnapshotFrozenIdentity: Checkpoint→Open is the identity on the
// k=1 snapshot Freeze builds, down to reflect.DeepEqual of the
// unexported flat arrays.
func TestSnapshotFrozenIdentity(t *testing.T) {
	want := graph.Freeze(richGraph())
	got, v := checkpointOpen(t, want, 42)
	if v != 42 {
		t.Fatalf("version = %d, want 42", v)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Checkpoint→Open is not the identity on Freeze(g):\n got %#v\nwant %#v", got, want)
	}
}

// TestSnapshotShardedIdentity: same identity for the sharded backend at
// several shard counts.
func TestSnapshotShardedIdentity(t *testing.T) {
	g := richGraph()
	for _, k := range []int{1, 3, 8} {
		want := graph.Shard(g, k)
		got, v := checkpointOpen(t, want, 7)
		if v != 7 {
			t.Fatalf("k=%d: version = %d, want 7", k, v)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: Checkpoint→Open is not the identity on Sharded", k)
		}
	}
}

// TestSnapshotMutableFreezes: checkpointing a mutable *Graph stores its
// k=1 snapshot.
func TestSnapshotMutableFreezes(t *testing.T) {
	g := richGraph()
	got, _ := checkpointOpen(t, g, 1)
	if !reflect.DeepEqual(got, graph.Freeze(g)) {
		t.Fatalf("checkpointing a mutable graph did not store Freeze(g)")
	}
}

// TestSnapshotEmptyGraph: the degenerate empty graph round-trips.
func TestSnapshotEmptyGraph(t *testing.T) {
	want := graph.Freeze(graph.New())
	got, _ := checkpointOpen(t, want, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty graph did not round-trip")
	}
}

// TestSnapshotCorruptionDetected: flipping any single byte of a shard
// part, the global part or the extensions part, or truncating one
// anywhere, must fail Open — checkpoints are atomic, so unlike a WAL
// tail, damage is an error, not data. Every part is swept at k=1; at
// k=3 a shard part holding cross-shard edges is swept too.
func TestSnapshotCorruptionDetected(t *testing.T) {
	vs := crashViews()
	for _, c := range []struct {
		base  graph.Reader
		parts []string
	}{
		{graph.Freeze(richGraph()), []string{"global-1.part", "shard-0-1.part", "exts-1.part"}},
		{graph.Shard(richGraph(), 3), []string{"shard-1-1.part"}},
	} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(c.base, materialize(c.base, vs), 3); err != nil {
			t.Fatal(err)
		}
		s.Close()
		for _, part := range c.parts {
			path := filepath.Join(dir, part)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mustFail := func(image []byte, what string, at int) {
				t.Helper()
				if err := os.WriteFile(path, image, 0o644); err != nil {
					t.Fatal(err)
				}
				if s, err := Open(dir, Options{}); err == nil {
					s.Close()
					t.Fatalf("%s: %s at %d opened successfully", part, what, at)
				}
			}
			mut := append([]byte(nil), data...)
			for off := range data {
				mut[off] ^= 0xff
				mustFail(mut, "byte flip", off)
				mut[off] = data[off]
			}
			for cut := range data {
				mustFail(data[:cut], "truncation", cut)
			}
			mustFail([]byte("not a part file at all"), "garbage", 0)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The restored directory opens again: the sweep broke nothing.
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("restored checkpoint does not open: %v", err)
		}
		if !reflect.DeepEqual(s2.Base(), c.base) {
			t.Fatal("restored checkpoint differs")
		}
		s2.Close()
	}
}
