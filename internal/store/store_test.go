package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// TestStoreFreshDir: opening an empty directory yields no base and an
// empty tail, and creates the layout.
func TestStoreFreshDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if s.Base() != nil || s.BaseVersion() != 0 || len(s.Tail()) != 0 || s.TailUpdates() != 0 {
		t.Fatalf("fresh dir: base %v, tail %d", s.Base(), len(s.Tail()))
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil {
		t.Fatalf("wal.log not created: %v", err)
	}
}

// TestStoreCheckpointReopen walks the full lifecycle: append, checkpoint
// (which compacts the WAL), append more, reopen — the base is the
// checkpointed backend and the tail holds exactly the post-checkpoint
// batches, still replayable.
func TestStoreCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre := [][]view.EdgeUpdate{{{From: 0, To: 1}}, {{From: 1, To: 2}}}
	for _, b := range pre {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	base := graph.Freeze(richGraph())
	if err := s.Checkpoint(base, nil, 11); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if s.WALSize() != 0 {
		t.Fatalf("WAL not compacted: %d bytes", s.WALSize())
	}
	post := [][]view.EdgeUpdate{
		{{From: 2, To: 3}},
		{{From: 3, To: 4}, {From: 0, To: 1, Delete: true}},
	}
	for _, b := range post {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) {
		t.Fatal("reopened base differs from the checkpointed backend")
	}
	if s2.BaseVersion() != 11 {
		t.Fatalf("BaseVersion = %d, want 11", s2.BaseVersion())
	}
	if !reflect.DeepEqual(s2.Tail(), post) {
		t.Fatalf("tail = %+v, want the post-checkpoint batches", s2.Tail())
	}
	if s2.TailUpdates() != 3 {
		t.Fatalf("TailUpdates = %d, want 3", s2.TailUpdates())
	}
}

// TestStoreCheckpointSharded: a sharded backend checkpoints and reopens
// shard-for-shard identical.
func TestStoreCheckpointSharded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := graph.Shard(richGraph(), 3)
	if err := s.Checkpoint(base, nil, 5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) {
		t.Fatal("sharded base did not survive the checkpoint")
	}
}

// TestStoreStaleTmpRemoved: a temporary manifest left by a checkpoint
// that crashed before its rename is discarded; the committed one wins.
func TestStoreStaleTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := graph.Freeze(richGraph())
	if err := s.Checkpoint(base, nil, 2); err != nil {
		t.Fatal(err)
	}
	s.Close()
	tmp := filepath.Join(dir, manifestTmp)
	if err := os.WriteFile(tmp, []byte("half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with stale tmp: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) {
		t.Fatal("stale tmp displaced the real checkpoint")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not removed: %v", err)
	}
}

// TestStoreCorruptSnapshotFails: a damaged checkpoint — whether the
// manifest itself or any part file it references — is a hard open error,
// never silently served as an empty graph.
func TestStoreCorruptSnapshotFails(t *testing.T) {
	for _, target := range []string{"MANIFEST", "part"} {
		target := target
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(graph.Freeze(richGraph()), nil, 1); err != nil {
				t.Fatal(err)
			}
			s.Close()
			path := filepath.Join(dir, manifestName)
			if target == "part" {
				names, err := filepath.Glob(filepath.Join(dir, "shard-*.part"))
				if err != nil || len(names) == 0 {
					t.Fatalf("no shard part written: %v (%v)", names, err)
				}
				path = names[0]
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); err == nil {
				t.Fatalf("corrupt %s opened successfully", target)
			}
		})
	}
}
