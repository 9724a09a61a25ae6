package store

// Store is the durable graph + view store behind a serving process: a
// data directory holding one checkpoint (a MANIFEST plus immutable part
// files, manifest.go) and one write-ahead log (wal.log). The lifecycle
// is
//
//	Open        — load the committed manifest, collect any garbage a
//	              crashed checkpoint left behind, scan the WAL,
//	              truncate any torn tail, and hand back the base graph,
//	              its serialized view extensions and the tail of update
//	              batches to replay;
//	Append      — log an update batch before the serving layer
//	              acknowledges it (durability per SyncPolicy);
//	Checkpoint  — write the graph it is handed (global part, every
//	              shard part, plus the extensions) as fresh part files,
//	              commit them with an atomic manifest rename, and
//	              compact the WAL to empty.
//
// Crash safety of the checkpoint protocol: part files are written and
// fsynced first under never-reused names, so until the manifest rename
// commits they are invisible garbage — a crash before the rename
// leaves the old manifest + full WAL (recovery replays everything and
// the next Open removes the orphans). A crash between the rename and
// the WAL reset leaves the new manifest + a WAL whose records are
// already reflected in it. Replaying that WAL is harmless: update
// operations are absolute (add or delete an edge, not a toggle), so
// re-applying any suffix of the log to a state that already contains
// it is a no-op on the graph — and maintenance ignores updates that do
// not change the graph. Every protocol step that removes or renames a
// directory entry is followed by a directory fsync, so no step can be
// undone by a later crash.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// Data-directory layout. current.snap is the single-file checkpoint of
// the pre-manifest (GVSNAP01) era, which this build no longer reads: a
// directory holding one and no MANIFEST is refused at Open, and one
// left beside a committed manifest is garbage.
const (
	snapName = "current.snap"
	walName  = "wal.log"
)

// Options parameterizes Open. The zero value syncs every appended
// record (SyncAlways).
type Options struct {
	// Sync is the WAL durability policy for acknowledged appends.
	Sync SyncPolicy
}

// CheckpointStats counts what checkpoints did, cumulatively since
// Open. All fields are atomics: the serving layer's metrics endpoint
// reads them while checkpoints run.
type CheckpointStats struct {
	// Checkpoints counts committed checkpoints.
	Checkpoints atomic.Int64
	// ShardsWritten counts shard part files written: k per checkpoint.
	ShardsWritten atomic.Int64
	// ShardsSkipped is always 0: every checkpoint writes every shard
	// part. It is kept for readers that still report it.
	ShardsSkipped atomic.Int64
	// BytesWritten counts part + manifest bytes written.
	BytesWritten atomic.Int64
	// PartsRemoved counts obsolete files garbage-collected after
	// commits and at Open.
	PartsRemoved atomic.Int64
}

// Store combines the checkpoint manifest and the WAL of one data
// directory. Append/Checkpoint must be serialized by the caller (the
// serving layer holds its write mutex across both); Base, BaseVersion,
// BaseExtensions, Tail and the stats accessors are safe to call
// anytime.
type Store struct {
	dir string
	wal *WAL

	// base is the checkpointed backend found at Open (nil on a fresh
	// directory) and baseVersion its write clock; tail holds the WAL
	// record batches appended after that checkpoint; baseExts the
	// serialized view extensions stored with the checkpoint (empty when
	// none were persisted). All four are written once at Open and
	// read-only afterwards.
	base        *graph.Sharded
	baseVersion uint64
	tail        [][]view.EdgeUpdate
	baseExts    []ExtensionData

	// man is the committed manifest, nil before the first checkpoint.
	// Only Open and Checkpoint touch it, and the caller serializes
	// Checkpoint.
	man *manifest

	stats CheckpointStats
}

// Open opens (creating if needed) the data directory: loads the
// committed checkpoint when one exists, removes leftovers of crashed
// checkpoints — a half-written manifest temporary and unreferenced part
// files — fsyncing the directory after any removal, and scans the WAL,
// truncating a torn or corrupted tail at the first bad frame. The
// returned store exposes the checkpoint via Base/BaseExtensions and
// the replayable update batches via Tail. A directory whose only
// checkpoint is a legacy current.snap is an error, never a fresh
// directory: its graph would silently be replaced by an empty one.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	// A leftover temporary means a checkpoint crashed before its rename;
	// the committed manifest is still authoritative. The removal is
	// fsynced so a later crash cannot resurrect it.
	if err := os.Remove(filepath.Join(dir, manifestTmp)); err == nil {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	maniPath := filepath.Join(dir, manifestName)
	if data, err := os.ReadFile(maniPath); err == nil {
		m, err := decodeManifest(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", maniPath, err)
		}
		g, exts, err := loadManifestGraph(dir, m)
		if err != nil {
			return nil, err
		}
		s.base, s.baseVersion, s.baseExts = g, m.version, exts
		s.man = m
		// Orphaned parts from a checkpoint that crashed mid-write (and a
		// legacy snapshot already superseded by a manifest) are garbage.
		if err := s.gc(m, true); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		snapPath := filepath.Join(dir, snapName)
		if _, err := os.Stat(snapPath); err == nil {
			return nil, fmt.Errorf("store: %s is a checkpoint in the legacy single-file format, which this build no longer reads: open the directory once with a pre-PR-19 build, which migrates it to the MANIFEST layout at its first checkpoint", snapPath)
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}

	wal, tail, err := OpenWAL(filepath.Join(dir, walName), opts.Sync)
	if err != nil {
		return nil, err
	}
	s.wal, s.tail = wal, tail
	return s, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Base returns the checkpointed graph backend found at Open, or nil on a
// fresh directory. Read-only.
func (s *Store) Base() *graph.Sharded { return s.base }

// BaseVersion returns the write clock the checkpoint was taken at.
func (s *Store) BaseVersion() uint64 { return s.baseVersion }

// BaseExtensionData returns the serialized view extensions stored with
// the checkpoint, if any (see BaseExtensions for binding them to a view
// set). Read-only.
func (s *Store) BaseExtensionData() []ExtensionData { return s.baseExts }

// Tail returns the WAL record batches appended after the checkpoint, in
// log order — the updates recovery must replay. Read-only.
func (s *Store) Tail() [][]view.EdgeUpdate { return s.tail }

// TailUpdates counts the individual edge updates across Tail.
func (s *Store) TailUpdates() int {
	n := 0
	for _, b := range s.tail {
		n += len(b)
	}
	return n
}

// Append logs one update batch ahead of acknowledgement (see
// WAL.Append for the durability and rollback contract).
func (s *Store) Append(batch []view.EdgeUpdate) error { return s.wal.Append(batch) }

// Checkpoint atomically replaces the committed checkpoint with g (and,
// when x is non-nil, its view extensions) at the given write-clock
// version, then compacts the WAL: the global part and every shard part
// are written and fsynced under the new sequence's never-reused names,
// a new manifest referencing them is committed by tmp + fsync + rename
// + directory fsync, the log is truncated (every logged record is
// covered by g), and superseded part files are collected. On error
// before the manifest rename the previous checkpoint and the full WAL
// remain authoritative; once the rename succeeds the new manifest is,
// even if a later step fails.
func (s *Store) Checkpoint(g graph.Reader, x *view.Extensions, version uint64) error {
	c := columnsOf(g)
	var seq uint64 = 1
	if s.man != nil {
		seq = s.man.seq + 1
	}
	newMan := &manifest{
		kind: kindSharded, k: c.K, seq: seq, version: version,
		numNodes: len(c.NodeLabel), numEdges: c.NumEdges,
	}
	var bytes int64
	fail := func(err error) error {
		for _, e := range newMan.parts {
			os.Remove(filepath.Join(s.dir, e.name()))
		}
		return err
	}
	write := func(e partEntry, fill func(pw *partWriter)) error {
		e, err := writePartFile(s.dir, e, fill)
		if err != nil {
			return err
		}
		newMan.parts = append(newMan.parts, e)
		bytes += e.size
		return nil
	}

	if err := write(partEntry{role: roleGlobal, seq: seq}, func(pw *partWriter) { writeGlobalPart(pw, c, seq) }); err != nil {
		return fail(err)
	}
	for i := range c.Shards {
		sc := &c.Shards[i]
		if err := write(partEntry{role: roleShard, idx: i, seq: seq}, func(pw *partWriter) { writeShardPart(pw, sc, seq) }); err != nil {
			return fail(err)
		}
	}
	if x != nil {
		data := snapshotExtensionData(x)
		if err := write(partEntry{role: roleExts, seq: seq}, func(pw *partWriter) { writeExtsPart(pw, seq, data) }); err != nil {
			return fail(err)
		}
	}

	// The new parts must be durable directory entries before a manifest
	// referencing them can commit.
	if err := syncDir(s.dir); err != nil {
		return fail(err)
	}

	image := encodeManifest(newMan)
	tmp := filepath.Join(s.dir, manifestTmp)
	if err := writeFileSync(tmp, image); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fail(err)
	}
	// The rename is the commit point: from here the new manifest is
	// authoritative even if a later step fails, so the next checkpoint
	// must take a fresh sequence rather than rewrite (and on failure
	// delete) the parts this manifest references.
	s.man = newMan
	s.stats.Checkpoints.Add(1)
	s.stats.ShardsWritten.Add(int64(c.K))
	s.stats.BytesWritten.Add(bytes + int64(len(image)))
	if err := syncDir(s.dir); err != nil {
		return err
	}

	if err := s.wal.Reset(); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	return s.gc(newMan, false)
}

// gc removes every file the committed manifest does not reference:
// superseded part files, orphans of crashed checkpoints and — only
// because a manifest exists — a legacy current.snap it superseded. Only
// names the store (or its predecessor) wrote are touched. With strict
// set, removal errors are returned (Open's consistency pass); otherwise
// collection is best-effort (a post-commit checkpoint must not fail
// over garbage).
func (s *Store) gc(m *manifest, strict bool) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if strict {
			return err
		}
		return nil
	}
	referenced := make(map[string]bool, len(m.parts))
	for _, e := range m.parts {
		referenced[e.name()] = true
	}
	removed := 0
	for _, de := range entries {
		name := de.Name()
		collectable := name == snapName ||
			(strings.HasSuffix(name, ".part") && !referenced[name])
		if !collectable {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			if strict {
				return err
			}
			continue
		}
		removed++
	}
	s.stats.PartsRemoved.Add(int64(removed))
	if removed == 0 {
		return nil
	}
	if err := syncDir(s.dir); err != nil && strict {
		return err
	}
	return nil
}

// WALStats exposes the log's live counters.
func (s *Store) WALStats() *WALStats { return s.wal.Stats() }

// CheckpointStats exposes the checkpoint counters.
func (s *Store) CheckpointStats() *CheckpointStats { return &s.stats }

// WALSize reports the current WAL length in bytes.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// SyncPolicy reports the WAL durability policy the store runs under.
func (s *Store) SyncPolicy() SyncPolicy { return s.wal.policy }

// SetFsyncObserver registers fn to run after every WAL fsync with its
// latency (the serving layer's histogram feed). Pass nil to remove.
func (s *Store) SetFsyncObserver(fn func(time.Duration)) { s.wal.SetObserver(fn) }

// Close flushes and closes the WAL. The checkpoint files need no
// closing — they are only open during Open and Checkpoint.
func (s *Store) Close() error { return s.wal.Close() }

// writeFileSync writes data to path and fsyncs the file.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed or just-removed entry
// survives a crash. A variable so tests can inject a failing fsync.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
