package store

// WAL and recovery micro-benchmarks (make bench; WALAppend and
// RecoveryReplay also run once each in make bench-smoke): append cost per
// record under each sync policy, recovery decode+replay throughput, and
// checkpoint cost.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// BenchmarkWALAppend measures one framed record append per iteration
// under each sync policy (always is fsync-bound by design).
func BenchmarkWALAppend(b *testing.B) {
	for _, spec := range []string{"always", "none", "5ms"} {
		policy, err := ParseSyncPolicy(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("sync="+spec, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.log")
			w, _, err := OpenWAL(path, policy)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			batch := []view.EdgeUpdate{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1, Delete: true}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay measures crash recovery end to end — decode a
// 100k-record WAL image and replay it through delta propagation into
// maintained views — the "recovery ms per 100k records" number.
func BenchmarkRecoveryReplay(b *testing.B) {
	const records = 100_000
	g := richGraph()
	n := g.NumNodes()
	var img []byte
	for i := 0; i < records; i++ {
		img = encodeRecord(img, []view.EdgeUpdate{{
			From:   graph.NodeID(i % n),
			To:     graph.NodeID((i*7 + 1) % n),
			Delete: i%9 == 0,
		}})
	}
	vs := crashViews()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches, good := DecodeAll(img)
		if good != int64(len(img)) || len(batches) != records {
			b.Fatalf("decoded %d batches over %d bytes", len(batches), good)
		}
		m, _ := view.NewMaintained(g.Clone(), vs, view.Options{})
		feed := view.NewFeed(m)
		for _, batch := range batches {
			feed.Submit(batch...)
		}
		feed.Flush()
	}
}

// benchMutable builds the store benchmarks' graph: nodes nodes of four
// labels and four out-edges each.
func benchMutable(b *testing.B, nodes int) *graph.Graph {
	b.Helper()
	g := graph.New()
	labels := []string{"person", "site", "item", "tag"}
	for i := 0; i < nodes; i++ {
		g.AddNode(labels[i%len(labels)])
	}
	for i := 0; i < nodes; i++ {
		u := graph.NodeID(i)
		g.AddEdge(u, graph.NodeID((i+1)%nodes))
		g.AddEdge(u, graph.NodeID((i*13+7)%nodes))
		g.AddEdge(u, graph.NodeID((i*31+3)%nodes))
		g.AddEdge(u, graph.NodeID((i*101+11)%nodes))
	}
	return g
}

// BenchmarkStoreCheckpoint measures one checkpoint cycle (part writes,
// fsyncs, manifest rename, WAL compaction, GC) of the 50k-node graph
// against a real filesystem, single-shard and 8-way sharded, reporting
// the bytes each checkpoint writes as ckpt-bytes/op.
func BenchmarkStoreCheckpoint(b *testing.B) {
	g := benchMutable(b, 50_000)
	for _, k := range []int{1, 8} {
		sh := graph.Shard(g, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Checkpoint(sh, nil, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.CheckpointStats().BytesWritten.Load())/float64(b.N), "ckpt-bytes/op")
			if fi, err := os.Stat(filepath.Join(dir, manifestName)); err != nil || fi.Size() == 0 {
				b.Fatalf("checkpoint missing: %v", err)
			}
		})
	}
}

// BenchmarkRecoveryExtensions compares the two clean-tail boot paths: a
// restore that adopts the checkpoint's persisted extensions versus a
// rematerialization from scratch — recovery time with vs without
// persisted extensions.
func BenchmarkRecoveryExtensions(b *testing.B) {
	g := benchMutable(b, 2_000)
	vs := crashViews()
	x, _ := view.Materialize(g, vs, view.Options{})
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), x, 1); err != nil {
		b.Fatal(err)
	}
	s.Close()

	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			restored, ok := s.BaseExtensions(vs)
			if !ok {
				b.Fatal("persisted extensions did not bind")
			}
			thawed := s.Base().Thaw()
			m := view.NewMaintainedFromExtensions(thawed, restored, 1)
			if m.Stats.Recomputes != 0 {
				b.Fatal("restore path rematerialized")
			}
			s.Close()
		}
	})
	b.Run("rematerialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			thawed := s.Base().Thaw()
			m, _ := view.NewMaintained(thawed, vs, view.Options{})
			if len(m.SnapshotExtensions().Exts) != len(x.Exts) {
				b.Fatal("rematerialization produced a different view set")
			}
			s.Close()
		}
	})
}
