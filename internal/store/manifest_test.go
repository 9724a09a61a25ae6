package store

// Tests of the per-shard checkpoint layout: incremental rewrites touch
// only dirty shards, the manifest rename is the single commit point
// (crash windows on either side recover cleanly), a legacy kindFrozen
// manifest still opens, a legacy single-file snapshot is refused rather
// than mistaken for a fresh directory,
// extensions round-trip exactly, and zero-copy mmap loads are
// indistinguishable from buffered reads.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// partNames lists the .part files present in dir, sorted.
func partNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.part"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	sort.Strings(names)
	return names
}

// TestIncrementalCheckpointRewritesDirtyShardsOnly is the acceptance
// criterion: after a batch touching a single shard, the next checkpoint
// rewrites exactly that shard's part file plus the manifest — every
// clean shard (and the global part) is carried over by reference.
func TestIncrementalCheckpointRewritesDirtyShardsOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := richGraph()
	const k = 3
	if err := s.Checkpoint(graph.Shard(g, k), nil, 1); err != nil {
		t.Fatal(err)
	}
	before := partNames(t, dir)
	if got := s.CheckpointStats().ShardsWritten.Load(); got != k {
		t.Fatalf("full checkpoint wrote %d shards, want %d", got, k)
	}

	// One edge whose endpoints both live in shard 0 (0 mod 3 == 3 mod 3).
	batch := []view.EdgeUpdate{{From: 0, To: 3}}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 3)
	if err := s.Checkpoint(graph.Shard(g, k), nil, 2); err != nil {
		t.Fatal(err)
	}
	st := s.CheckpointStats()
	if w, sk := st.ShardsWritten.Load(), st.ShardsSkipped.Load(); w != k+1 || sk != k-1 {
		t.Fatalf("incremental checkpoint: shards written %d (want %d), skipped %d (want %d)", w, k, w-3, k-1)
	}
	after := partNames(t, dir)
	// The global part and the two clean shard parts keep their seq-1
	// names; shard 0 moved to seq 2 and its seq-1 file was collected.
	carried := 0
	for _, n := range before {
		for _, m := range after {
			if n == m {
				carried++
			}
		}
	}
	if carried != k { // global-1 + shard-1-1 + shard-2-1
		t.Fatalf("carried %d of %v over to %v, want %d untouched parts", carried, before, after, k)
	}
	wantNew := "shard-0-2.part"
	found := false
	for _, n := range after {
		if n == wantNew {
			found = true
		}
	}
	if !found || len(after) != len(before) {
		t.Fatalf("after incremental checkpoint parts = %v, want %v with shard-0-1 replaced by %s", after, before, wantNew)
	}

	// The committed result must still load identically.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), graph.Shard(g, k)) {
		t.Fatal("incrementally checkpointed base differs from a full shard of the same graph")
	}
	if s2.BaseVersion() != 2 {
		t.Fatalf("BaseVersion = %d, want 2", s2.BaseVersion())
	}
}

// TestCheckpointKindChangeForcesFullRewrite: switching backends (or
// shard counts) between checkpoints cannot reuse parts.
func TestCheckpointKindChangeForcesFullRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := richGraph()
	if err := s.Checkpoint(graph.Shard(g, 3), nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), nil, 2); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), graph.Freeze(g)) {
		t.Fatal("kind change did not rewrite the checkpoint")
	}
	// Every sharded-era part is superseded and must be gone.
	for _, n := range partNames(t, dir) {
		if n != "global-2.part" && n != "shard-0-2.part" {
			t.Fatalf("stale part %s survived the full rewrite", n)
		}
	}
}

// TestLegacyFrozenLayoutOpens: testdata/legacy-frozen-k1 was
// checkpointed by an earlier build whose default single-shard base was
// written as a kindFrozen manifest — richGraph at write clock 5 with
// crashViews' extensions, plus one WAL record after it. It must still
// open into exactly the backend Freeze builds today, and the next
// checkpoint must rewrite every part under a kindSharded manifest.
func TestLegacyFrozenLayoutOpens(t *testing.T) {
	src := filepath.Join("testdata", "legacy-frozen-k1")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("legacy data dir does not open: %v", err)
	}
	defer s.Close()
	g := richGraph()
	if !reflect.DeepEqual(s.Base(), graph.Shard(g, 1)) || s.BaseVersion() != 5 {
		t.Fatal("legacy base differs from Shard(g, 1)")
	}
	vs := crashViews()
	x, ok := s.BaseExtensions(vs)
	if !ok {
		t.Fatal("legacy extensions did not bind")
	}
	requireSameExtensions(t, x, materialize(g, vs))
	if want := [][]view.EdgeUpdate{{{From: 0, To: 2}}}; !reflect.DeepEqual(s.Tail(), want) {
		t.Fatalf("legacy tail %v, want %v", s.Tail(), want)
	}

	g.AddEdge(0, 2)
	if err := s.Checkpoint(graph.Freeze(g), nil, 6); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != kindSharded || m.k != 1 {
		t.Fatalf("checkpoint after a legacy open wrote kind %d with k=%d", m.kind, m.k)
	}
	for _, e := range m.parts {
		if e.seq != m.seq {
			t.Fatalf("part %s carried over from the legacy checkpoint", e.name())
		}
	}
	if got := partNames(t, dir); !reflect.DeepEqual(got, []string{"global-2.part", "shard-0-2.part"}) {
		t.Fatalf("parts after the rewrite: %v", got)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), graph.Shard(g, 1)) {
		t.Fatal("rewritten checkpoint differs from Shard(g, 1)")
	}
}

// TestLegacySnapshotRefused: a data directory holding a single-file
// current.snap of the GVSNAP01 era and no MANIFEST must fail to open —
// naming the file and how to migrate it — and must be left exactly as
// found. Treating it as a fresh directory would serve an empty graph in
// place of the operator's data, and the first checkpoint would then
// collect the only copy.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, snapName)
	image := []byte("GVSNAP01 and whatever the old build wrote after it")
	if err := os.WriteFile(snap, image, 0o644); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		s, err := Open(dir, Options{})
		if err == nil {
			s.Close()
			t.Fatal("a directory with only a legacy current.snap opened as if fresh")
		}
		if msg := err.Error(); !strings.Contains(msg, snap) || !strings.Contains(msg, "pre-PR-19 build") {
			t.Fatalf("refusal does not name the file and the way out: %v", err)
		}
		if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, image) {
			t.Fatalf("refused Open touched current.snap: %v", err)
		}
	}

	// Beside a committed manifest the same file is superseded garbage
	// (a pre-PR-19 build crashed between its first manifest commit and
	// the collection): Open succeeds and removes it.
	dir = t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := graph.Freeze(richGraph())
	if err := s.Checkpoint(base, nil, 8); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap = filepath.Join(dir, snapName)
	if err := os.WriteFile(snap, image, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("superseded current.snap beside a manifest must not block Open: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) || s2.BaseVersion() != 8 {
		t.Fatal("manifest checkpoint not loaded")
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("superseded current.snap not collected: %v", err)
	}
}

// TestCheckpointExtensionsRoundTrip: extensions persisted with the
// graph bind back to the same view set with an identical match
// relation, and refuse to bind to a changed one.
func TestCheckpointExtensionsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := richGraph()
	vs := crashViews()
	x := materialize(g, vs)

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), x, 3); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.BaseExtensionData()) != len(vs.Defs) {
		t.Fatalf("reopened with %d serialized extensions, want %d", len(s2.BaseExtensionData()), len(vs.Defs))
	}
	got, ok := s2.BaseExtensions(vs)
	if !ok {
		t.Fatal("persisted extensions did not bind to the same view set")
	}
	requireSameExtensions(t, got, x)

	// A different view set (same size) must fall back to rematerialize.
	other := crashViews()
	other.Defs[0].Name = "renamed"
	if _, ok := s2.BaseExtensions(other); ok {
		t.Fatal("extensions bound to a renamed view set")
	}
	if _, ok := s2.BaseExtensions(nil); ok {
		t.Fatal("extensions bound to a nil view set")
	}
}

// TestCheckpointWithoutExtensions: a nil extensions argument writes no
// exts part and BaseExtensions reports no binding.
func TestCheckpointWithoutExtensions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(richGraph()), nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.BaseExtensionData()) != 0 {
		t.Fatal("nil extensions serialized an exts part")
	}
	if _, ok := s2.BaseExtensions(crashViews()); ok {
		t.Fatal("BaseExtensions bound with nothing persisted")
	}
}

// TestMmapLoad: a zero-copy (mmap) load is indistinguishable from a
// buffered one, graph and extensions alike, for both backends.
func TestMmapLoad(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	g := richGraph()
	vs := crashViews()
	x := materialize(g, vs)
	for _, backend := range []struct {
		name string
		r    graph.Reader
	}{
		{"frozen", graph.Freeze(g)},
		{"sharded", graph.Shard(g, 3)},
	} {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(backend.r, x, 1); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s2, err := Open(dir, Options{Mmap: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !reflect.DeepEqual(s2.Base(), backend.r) {
				t.Fatal("mmap-loaded base differs from the checkpointed backend")
			}
			got, ok := s2.BaseExtensions(vs)
			if !ok {
				t.Fatal("mmap load dropped the extensions")
			}
			requireSameExtensions(t, got, x)
		})
	}
}

// TestOrphanPartsRemovedAtOpen: part files a crashed checkpoint left
// behind (written but never committed by a manifest rename), plus a
// half-written manifest temporary, are collected at Open without
// touching the committed state.
func TestOrphanPartsRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	base := graph.Freeze(richGraph())
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(base, nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, n := range []string{"global-9.part", "shard-0-9.part", "exts-9.part", manifestTmp} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("crashed checkpoint debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with orphan parts: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) {
		t.Fatal("orphans displaced the committed checkpoint")
	}
	for _, n := range partNames(t, dir) {
		if n != "global-1.part" && n != "shard-0-1.part" {
			t.Fatalf("orphan %s survived Open", n)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestTmp)); !os.IsNotExist(err) {
		t.Fatalf("stale %s not removed: %v", manifestTmp, err)
	}
	if s2.CheckpointStats().PartsRemoved.Load() < 3 {
		t.Fatalf("PartsRemoved = %d, want >= 3", s2.CheckpointStats().PartsRemoved.Load())
	}
}

// TestCrashBeforeManifestRename: with new parts on disk but the old
// manifest still committed, recovery serves the old checkpoint and the
// full WAL tail — nothing acknowledged is lost, nothing half-written is
// visible.
func TestCrashBeforeManifestRename(t *testing.T) {
	dir := t.TempDir()
	base := graph.Freeze(richGraph())
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(base, nil, 1); err != nil {
		t.Fatal(err)
	}
	appended := [][]view.EdgeUpdate{{{From: 0, To: 2}}, {{From: 1, To: 3, Delete: true}}}
	for _, b := range appended {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate the next checkpoint crashing after writing its parts (and
	// even its manifest temporary) but before the rename.
	for _, n := range []string{"global-2.part", "shard-0-2.part", manifestTmp} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("uncommitted"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) || s2.BaseVersion() != 1 {
		t.Fatal("uncommitted checkpoint leaked into the recovered state")
	}
	if !reflect.DeepEqual(s2.Tail(), appended) {
		t.Fatalf("recovered tail %v, want the full appended log", s2.Tail())
	}
}

// replayReflectedTail checkpoints a graph (with extensions) that
// already reflects batches, re-appends those batches to the WAL — the
// crash window between the manifest rename and the WAL reset — and
// replays the recovered tail through delta propagation on top of the
// restored extensions. It returns the maintained state, the restored
// extensions, and the frozen graph from before the replay.
func replayReflectedTail(t *testing.T, batches [][]view.EdgeUpdate) (*view.Maintained, *view.Extensions, *graph.Sharded, *view.Set) {
	t.Helper()
	dir := t.TempDir()
	g := richGraph()
	vs := crashViews()
	// The graph the checkpoint captures already contains every batch.
	for _, b := range batches {
		for _, up := range b {
			if up.Delete {
				g.RemoveEdge(up.From, up.To)
			} else {
				g.AddEdge(up.From, up.To)
			}
		}
	}
	x := materialize(g, vs)

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), x, 4); err != nil {
		t.Fatal(err)
	}
	// Crash between rename and reset: the reflected batches are still in
	// the log. (Append re-frames them exactly as a pre-checkpoint Append
	// did.)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Tail(), batches) {
		t.Fatal("reflected tail not recovered verbatim")
	}
	restored, ok := s2.BaseExtensions(vs)
	if !ok {
		t.Fatal("checkpointed extensions did not bind")
	}
	thawed := s2.Base().Thaw()
	frozenBefore := graph.Freeze(thawed)
	m := view.NewMaintainedFromExtensions(thawed, restored, 1)
	feed := view.NewFeed(m)
	for _, b := range s2.Tail() {
		feed.Submit(b...)
		feed.Flush()
	}
	return m, restored, frozenBefore, vs
}

// TestReplayReflectedTailIdempotent pins the crash window between the
// manifest rename and the WAL reset: the log then holds a suffix of
// updates the committed checkpoint already reflects, and replaying it
// with the checkpoint's own extensions attached must be a strict no-op
// — zero net graph change, byte-identical extensions, and no
// rematerialization.
func TestReplayReflectedTailIdempotent(t *testing.T) {
	// No record reverses an earlier one, so every replayed operation
	// already matches the checkpointed state and maintenance must not
	// touch a single extension.
	batches := [][]view.EdgeUpdate{
		{{From: 0, To: 2}, {From: 2, To: 5}},
		{{From: 4, To: 1}},
		{{From: 1, To: 3, Delete: true}},
	}
	m, restored, frozenBefore, vs := replayReflectedTail(t, batches)
	if !reflect.DeepEqual(graph.Freeze(m.G), frozenBefore) {
		t.Fatal("replaying an already-reflected tail changed the graph")
	}
	got := m.SnapshotExtensions()
	if !reflect.DeepEqual(got.Exts, restored.Exts) {
		t.Fatal("replaying an already-reflected tail changed the extensions")
	}
	if m.Stats.Recomputes != 0 {
		t.Fatalf("no-op replay rematerialized %d views", m.Stats.Recomputes)
	}
	requireSameExtensions(t, got, materialize(m.G, vs))
}

// TestReplayReflectedTailWithReversal: when the reflected suffix
// contains an add that a later record deletes, the replay transiently
// changes the graph — but the end state is still exactly the
// checkpoint: per edge, the suffix's last operation decided both. The
// extensions must end semantically identical to rematerialization.
func TestReplayReflectedTailWithReversal(t *testing.T) {
	batches := [][]view.EdgeUpdate{
		{{From: 0, To: 2}, {From: 2, To: 5}},
		{{From: 0, To: 2, Delete: true}},
		{{From: 4, To: 1}},
	}
	m, _, frozenBefore, vs := replayReflectedTail(t, batches)
	if !reflect.DeepEqual(graph.Freeze(m.G), frozenBefore) {
		t.Fatal("replay with a reversal did not restore the checkpointed graph")
	}
	requireSameExtensions(t, m.SnapshotExtensions(), materialize(m.G, vs))
}
