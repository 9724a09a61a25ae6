package store

// Tests of the per-shard checkpoint layout: every checkpoint writes
// every part under its own sequence, the manifest rename is the single
// commit point (crash windows and failed writes on either side recover
// cleanly), legacy kindFrozen and format-1 sharded data dirs still
// open, a legacy single-file snapshot is refused rather than mistaken
// for a fresh directory, and extensions round-trip exactly.

import (
	"bytes"
	"errors"
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

// TestCheckpointWritesEveryPart: a checkpoint after a batch touching a
// single shard still writes the global part and every shard part under
// the new sequence, the previous sequence's parts are collected, and
// the result loads as the graph it was handed.
func TestCheckpointWritesEveryPart(t *testing.T) {
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
	// One edge whose endpoints both live in shard 0 (0 mod 3 == 6 mod 3).
	if err := s.Append([]view.EdgeUpdate{{From: 0, To: 6}}); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 6)
	if err := s.Checkpoint(graph.Shard(g, k), nil, 2); err != nil {
		t.Fatal(err)
	}
	st := s.CheckpointStats()
	if w, sk := st.ShardsWritten.Load(), st.ShardsSkipped.Load(); w != 2*k || sk != 0 {
		t.Fatalf("two checkpoints: shards written %d (want %d), skipped %d (want 0)", w, 2*k, sk)
	}
	want := []string{"global-2.part", "shard-0-2.part", "shard-1-2.part", "shard-2-2.part"}
	if got := partNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("parts after the second checkpoint: %v, want %v", got, want)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), graph.Shard(g, k)) {
		t.Fatal("checkpointed base differs from a fresh shard of the same graph")
	}
	if s2.BaseVersion() != 2 {
		t.Fatalf("BaseVersion = %d, want 2", s2.BaseVersion())
	}
}

// TestCheckpointKindChangeForcesFullRewrite: switching shard counts
// between checkpoints leaves no part of the old layout behind.
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
	dir := copyFixture(t, "legacy-frozen-k1")
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

// TestLegacyBoundaryLayoutOpens: testdata/sharded-k3-boundary was
// written by the last build with format-1 shard parts, which carry the
// boundary arrays, and with dirty-shard carry-over: Shard(richGraph(), 3)
// with crashViews' extensions at write clock 5, then a checkpoint at
// write clock 6 after the edge (0,6), which rewrote only shard 0 and
// the extensions, so the manifest mixes seqs 1 and 2; then one WAL
// record. It must open into exactly the backend Shard builds today, and
// the next checkpoint must write every part in format 2 under one seq.
func TestLegacyBoundaryLayoutOpens(t *testing.T) {
	dir := copyFixture(t, "sharded-k3-boundary")
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if seqs := partSeqs(m); !reflect.DeepEqual(seqs, map[uint64]bool{1: true, 2: true}) {
		t.Fatalf("fixture manifest part seqs %v, want a mix of 1 and 2", seqs)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("format-1 sharded data dir does not open: %v", err)
	}
	defer s.Close()
	g := richGraph()
	g.AddEdge(0, 6)
	if !reflect.DeepEqual(s.Base(), graph.Shard(g, 3)) || s.BaseVersion() != 6 {
		t.Fatal("format-1 base differs from Shard(g, 3)")
	}
	vs := crashViews()
	x, ok := s.BaseExtensions(vs)
	if !ok {
		t.Fatal("format-1 extensions did not bind")
	}
	requireSameExtensions(t, x, materialize(g, vs))
	if want := [][]view.EdgeUpdate{{{From: 0, To: 2}}}; !reflect.DeepEqual(s.Tail(), want) {
		t.Fatalf("format-1 tail %v, want %v", s.Tail(), want)
	}

	g.AddEdge(0, 2)
	if err := s.Checkpoint(graph.Shard(g, 3), materialize(g, vs), 7); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if m, err = decodeManifest(data); err != nil {
		t.Fatal(err)
	}
	if seqs := partSeqs(m); !reflect.DeepEqual(seqs, map[uint64]bool{3: true}) {
		t.Fatalf("checkpoint after a format-1 open wrote part seqs %v, want only 3", seqs)
	}
	for _, e := range m.parts {
		image, err := os.ReadFile(filepath.Join(dir, e.name()))
		if err != nil {
			t.Fatal(err)
		}
		if pr := newPartReader(image, e.role, e.seq); pr.err != nil || pr.format != partFormat {
			t.Fatalf("%s: format %d (%v), want %d", e.name(), pr.format, pr.err, partFormat)
		}
	}
	want := []string{"exts-3.part", "global-3.part", "shard-0-3.part", "shard-1-3.part", "shard-2-3.part"}
	if got := partNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("parts after the rewrite: %v, want %v", got, want)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), graph.Shard(g, 3)) || s2.BaseVersion() != 7 {
		t.Fatal("rewritten checkpoint differs from Shard(g, 3)")
	}
	x2, ok := s2.BaseExtensions(vs)
	if !ok {
		t.Fatal("rewritten extensions did not bind")
	}
	requireSameExtensions(t, x2, materialize(g, vs))
}

// copyFixture copies testdata/<name> into a fresh directory, so a test
// can open and checkpoint it without touching the checked-in files.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", name)
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
	return dir
}

// partSeqs returns the set of sequences m's parts were written at.
func partSeqs(m *manifest) map[uint64]bool {
	seqs := map[uint64]bool{}
	for _, e := range m.parts {
		seqs[e.seq] = true
	}
	return seqs
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

// TestCheckpointAfterFailedCommitSync: a directory fsync that fails
// right after the manifest rename leaves that manifest committed, so
// the next checkpoint must take a fresh sequence. Reusing the committed
// one would rewrite the very part files the manifest references — and,
// when that checkpoint fails too, delete them.
func TestCheckpointAfterFailedCommitSync(t *testing.T) {
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

	// From here the 2nd and 3rd directory fsyncs fail: the one after the
	// next checkpoint's rename, then the one before the following
	// checkpoint's manifest write.
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	calls := 0
	syncDir = func(dir string) error {
		calls++
		if calls == 2 || calls == 3 {
			return errors.New("injected directory fsync failure")
		}
		return orig(dir)
	}
	// Each checkpoint follows a logged update, as in the serving layer.
	update := func(u, v graph.NodeID) {
		if err := s.Append([]view.EdgeUpdate{{From: u, To: v}}); err != nil {
			t.Fatal(err)
		}
		g.AddEdge(u, v)
	}
	update(0, 6)
	committed := graph.Shard(g, k)
	if err := s.Checkpoint(committed, nil, 2); err == nil {
		t.Fatal("checkpoint with a failing post-rename fsync reported success")
	}
	update(1, 4)
	if err := s.Checkpoint(graph.Shard(g, k), nil, 3); err == nil {
		t.Fatal("checkpoint with a failing pre-manifest fsync reported success")
	}
	syncDir = orig

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("data dir no longer opens: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), committed) || s2.BaseVersion() != 2 {
		t.Fatalf("reopened at write clock %d, want the committed checkpoint at 2", s2.BaseVersion())
	}
	if err := s2.Checkpoint(graph.Shard(g, k), nil, 3); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}

// TestCheckpointPartWriteFails stands in for a full disk: a directory
// squatting on the name of the second shard part makes its creation
// fail after the global and first shard parts were written. The
// checkpoint must fail with the committed manifest, the WAL and the
// recovered tail untouched and no uncommitted part file left behind;
// once the obstacle is gone the directory reopens as it was and the
// next checkpoint succeeds. (Short writes are not simulated.)
func TestCheckpointPartWriteFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := richGraph()
	const k = 3
	base := graph.Shard(g, k)
	if err := s.Checkpoint(base, nil, 1); err != nil {
		t.Fatal(err)
	}
	batch := []view.EdgeUpdate{{From: 0, To: 6}}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	maniBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	walBefore, tailBefore := s.WALSize(), s.Tail()
	obstacle := filepath.Join(dir, "shard-1-2.part")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}

	g.AddEdge(0, 6)
	if err := s.Checkpoint(graph.Shard(g, k), nil, 2); err == nil {
		t.Fatal("checkpoint over an unwritable part reported success")
	}
	if maniAfter, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(maniAfter, maniBefore) {
		t.Fatalf("failed checkpoint changed the MANIFEST (%v)", err)
	}
	if s.WALSize() != walBefore || !reflect.DeepEqual(s.Tail(), tailBefore) {
		t.Fatalf("failed checkpoint changed the WAL: %d bytes, want %d", s.WALSize(), walBefore)
	}
	var files []string
	for _, n := range partNames(t, dir) {
		if fi, err := os.Stat(filepath.Join(dir, n)); err == nil && fi.Mode().IsRegular() {
			files = append(files, n)
		}
	}
	if want := []string{"global-1.part", "shard-0-1.part", "shard-1-1.part", "shard-2-1.part"}; !reflect.DeepEqual(files, want) {
		t.Fatalf("part files after the failed checkpoint: %v, want only the committed %v", files, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) || s2.BaseVersion() != 1 {
		t.Fatal("reopened base differs from the committed checkpoint")
	}
	if want := [][]view.EdgeUpdate{batch}; !reflect.DeepEqual(s2.Tail(), want) {
		t.Fatalf("reopened tail %v, want %v", s2.Tail(), want)
	}
	if err := s2.Checkpoint(graph.Shard(g, k), nil, 2); err != nil {
		t.Fatalf("checkpoint after removing the obstacle: %v", err)
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
