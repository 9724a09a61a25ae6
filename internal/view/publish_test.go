package view

// Tests for the snapshot-publish surface of Maintained: the write clock
// (Version), the publish hook, and the immutability guarantee of
// SnapshotExtensions — the contracts internal/serve's RCU publication
// builds on.

import (
	"testing"

	"graphviews/internal/graph"
)

// publishFixture: two A nodes, two B nodes, one A→B edge, one A→B view.
func publishFixture(t *testing.T) (*graph.Graph, *Maintained) {
	t.Helper()
	g := graph.New()
	g.AddNode("A")
	g.AddNode("A")
	g.AddNode("B")
	g.AddNode("B")
	g.AddEdge(0, 2)
	return g, seqMaintained(g, NewSet(Define("v", patternAB())))
}

// TestVersionCountsEffectiveUpdates: the write clock moves only on
// updates that change the graph — duplicates and misses don't count.
func TestVersionCountsEffectiveUpdates(t *testing.T) {
	_, m := publishFixture(t)
	if m.Version() != 0 {
		t.Fatalf("fresh Version = %d, want 0", m.Version())
	}
	if !m.InsertEdge(1, 3) || m.Version() != 1 {
		t.Fatalf("after insert: Version = %d, want 1", m.Version())
	}
	if m.InsertEdge(1, 3) {
		t.Fatal("duplicate insert reported applied")
	}
	if m.Version() != 1 {
		t.Fatalf("duplicate insert moved the clock: Version = %d", m.Version())
	}
	if m.DeleteEdge(2, 3) {
		t.Fatal("missing-edge delete reported applied")
	}
	if m.Version() != 1 {
		t.Fatalf("no-op delete moved the clock: Version = %d", m.Version())
	}
	// Batch: 2 effective (one delete, one insert), 1 no-op duplicate.
	applied := m.ApplyBatch([]EdgeUpdate{
		{From: 0, To: 2, Delete: true},
		{From: 1, To: 3}, // duplicate: no-op
		{From: 0, To: 3},
	})
	if applied != 2 {
		t.Fatalf("ApplyBatch applied = %d, want 2", applied)
	}
	if m.Version() != 3 {
		t.Fatalf("after batch: Version = %d, want 3", m.Version())
	}
}

// TestPublishHook: the hook fires once per committed operation with the
// post-commit version, never on no-ops, and unregisters on nil.
func TestPublishHook(t *testing.T) {
	_, m := publishFixture(t)
	var calls []uint64
	m.SetPublishHook(func(v uint64) { calls = append(calls, v) })

	m.InsertEdge(1, 3)         // effective → hook(1)
	m.InsertEdge(1, 3)         // no-op → no call
	m.ApplyBatch([]EdgeUpdate{ // 2 effective → one hook(3)
		{From: 0, To: 2, Delete: true},
		{From: 0, To: 3},
	})
	m.ApplyBatch(nil) // nothing applied → no call
	if want := []uint64{1, 3}; len(calls) != len(want) || calls[0] != want[0] || calls[1] != want[1] {
		t.Fatalf("hook calls = %v, want %v", calls, want)
	}
	m.SetPublishHook(nil)
	m.DeleteEdge(0, 3)
	if len(calls) != 2 {
		t.Fatalf("hook fired after unregistering: calls = %v", calls)
	}
}

// TestSnapshotExtensionsImmutable: a snapshot taken before updates keeps
// answering from the old state while the maintained extensions move on —
// the soundness of the shallow clone, resting on refreshes replacing
// (never mutating) published *Extension values.
func TestSnapshotExtensionsImmutable(t *testing.T) {
	_, m := publishFixture(t)
	snap := m.SnapshotExtensions()
	if snap.Set != m.X.Set {
		t.Fatal("snapshot must share the view set")
	}
	before := snap.Exts[0].Result.Size()

	// Grow the live extensions; the old snapshot must not move.
	if !m.InsertEdge(1, 3) {
		t.Fatal("insert not applied")
	}
	if got := snap.Exts[0].Result.Size(); got != before {
		t.Fatalf("snapshot mutated by later insert: size %d → %d", before, got)
	}
	if live := m.SnapshotExtensions(); live.Exts[0].Result.Size() != before+1 {
		t.Fatalf("live extensions missed the insert: size = %d", live.Exts[0].Result.Size())
	}

	// Shrink to empty; the old snapshots still answer from their epochs.
	m.ApplyBatch([]EdgeUpdate{{From: 0, To: 2, Delete: true}, {From: 1, To: 3, Delete: true}})
	if got := snap.Exts[0].Result.Size(); got != before {
		t.Fatalf("snapshot mutated by deletions: size %d → %d", before, got)
	}
	if m.X.Exts[0].Result.Matched {
		t.Fatal("live extension should be empty after deleting every A->B edge")
	}
}
