package store

// The per-shard checkpoint layout: a small MANIFEST file naming one
// global part (labels, categorical keys, node→label column), one part
// per shard (node count, CSR in both directions, label partition and
// attribute columns) and optionally one extensions part (the
// materialized views, extensions.go). The manifest rename is the
// single atomic commit point of a checkpoint: part files are immutable
// once written and named by the checkpoint sequence that wrote them.
// Every checkpoint writes all of its parts under its own sequence;
// manifests of earlier builds may still reference parts of older
// sequences (they carried clean shards over), and the reader accepts
// them. A part file not referenced by the committed manifest is
// garbage from a crashed or superseded checkpoint and is removed by
// the next Open/Checkpoint.
//
// Manifest layout (single CRC32C over the whole image, read fully):
//
//	magic "GVMANI01" | format u32 LE | kind u8 | pad u8[3] | k u32 LE |
//	seq u64 LE | write clock u64 LE | numNodes u64 LE | numEdges u64 LE |
//	entry count u32 LE | entries | crc32c u32 LE
//	entry: role u8 | shard idx u32 LE | seq u64 LE | size u64 LE

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"graphviews/internal/graph"
)

// Manifest file names.
const (
	manifestName = "MANIFEST"
	manifestTmp  = "MANIFEST.tmp"
)

// maniMagic opens the manifest file.
var maniMagic = [8]byte{'G', 'V', 'M', 'A', 'N', 'I', '0', '1'}

// maniFormat is the manifest format version; bump on layout change.
const maniFormat = 1

// maniHeaderLen is the fixed prefix before the entry table.
const maniHeaderLen = 8 + 4 + 1 + 3 + 4 + 8 + 8 + 8 + 8 + 4

// maniEntryLen is one encoded part entry.
const maniEntryLen = 1 + 4 + 8 + 8

// maxShardCount bounds k against corrupted manifests.
const maxShardCount = 1 << 20

// Checkpoint kinds. Every checkpoint is written as kindSharded; a
// kindFrozen manifest is the single-shard layout of earlier builds,
// whose shard part carries no node count and no boundary sections. It
// is still read, into the same one-shard backend, and the next
// checkpoint rewrites it as kindSharded.
const (
	kindFrozen  = 1
	kindSharded = 2
)

// partEntry names one immutable part file from a manifest.
type partEntry struct {
	role byte
	idx  int    // shard index (0 for global and extension parts)
	seq  uint64 // checkpoint sequence that wrote the file
	size int64  // exact file length, verified at load
}

// name derives the part's file name; parts never share names across
// checkpoints because seq is strictly increasing.
func (e partEntry) name() string {
	switch e.role {
	case roleGlobal:
		return fmt.Sprintf("global-%d.part", e.seq)
	case roleExts:
		return fmt.Sprintf("exts-%d.part", e.seq)
	default:
		return fmt.Sprintf("shard-%d-%d.part", e.idx, e.seq)
	}
}

// manifest describes one committed checkpoint.
type manifest struct {
	kind     byte // kindSharded, or kindFrozen read from an earlier build
	k        int  // shard count (1 for kindFrozen)
	seq      uint64
	version  uint64 // maintained write clock at checkpoint time
	numNodes int
	numEdges int
	parts    []partEntry
}

// global returns the manifest's global part entry.
func (m *manifest) global() (partEntry, bool) { return m.find(roleGlobal, 0) }

// shard returns the manifest's entry for shard i.
func (m *manifest) shard(i int) (partEntry, bool) { return m.find(roleShard, i) }

// exts returns the manifest's extensions entry when one exists.
func (m *manifest) exts() (partEntry, bool) { return m.find(roleExts, 0) }

func (m *manifest) find(role byte, idx int) (partEntry, bool) {
	for _, e := range m.parts {
		if e.role == role && e.idx == idx {
			return e, true
		}
	}
	return partEntry{}, false
}

// encodeManifest renders m, checksummed.
func encodeManifest(m *manifest) []byte {
	buf := make([]byte, 0, maniHeaderLen+len(m.parts)*maniEntryLen+4)
	buf = append(buf, maniMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, maniFormat)
	buf = append(buf, m.kind, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.k))
	buf = binary.LittleEndian.AppendUint64(buf, m.seq)
	buf = binary.LittleEndian.AppendUint64(buf, m.version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.numNodes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.numEdges))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.parts)))
	for _, e := range m.parts {
		buf = append(buf, e.role)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.idx))
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.size))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeManifest parses and fully validates a manifest image: framing,
// checksum, bounds, and the entry-table shape (exactly one global part,
// exactly one part per shard 0..k-1, at most one extensions part).
// Manifests are committed atomically, so unlike a WAL tail any damage
// is an error, not survivable truncation.
func decodeManifest(data []byte) (*manifest, error) {
	if len(data) < maniHeaderLen+4 {
		return nil, fmt.Errorf("store: manifest truncated at %d bytes", len(data))
	}
	if [8]byte(data[:8]) != maniMagic {
		return nil, fmt.Errorf("store: not a manifest (magic %q)", data[:8])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("store: manifest checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != maniFormat {
		return nil, fmt.Errorf("store: manifest format %d, this build reads %d", v, maniFormat)
	}
	m := &manifest{
		kind:     data[12],
		k:        int(binary.LittleEndian.Uint32(data[16:])),
		seq:      binary.LittleEndian.Uint64(data[20:]),
		version:  binary.LittleEndian.Uint64(data[28:]),
		numNodes: int(binary.LittleEndian.Uint64(data[36:])),
		numEdges: int(binary.LittleEndian.Uint64(data[44:])),
	}
	if m.kind != kindFrozen && m.kind != kindSharded {
		return nil, fmt.Errorf("store: unknown manifest kind %d", m.kind)
	}
	if m.k < 1 || m.k > maxShardCount {
		return nil, fmt.Errorf("store: manifest shard count %d out of range", m.k)
	}
	if m.kind == kindFrozen && m.k != 1 {
		return nil, fmt.Errorf("store: frozen manifest with %d shards", m.k)
	}
	if m.numNodes < 0 || m.numEdges < 0 {
		return nil, fmt.Errorf("store: manifest with negative sizes")
	}
	count := int(binary.LittleEndian.Uint32(data[52:]))
	if count < 0 || count > m.k+2 {
		return nil, fmt.Errorf("store: manifest entry count %d for %d shards", count, m.k)
	}
	if want := maniHeaderLen + count*maniEntryLen + 4; len(data) != want {
		return nil, fmt.Errorf("store: manifest is %d bytes, want %d for %d entries", len(data), want, count)
	}
	seenShard := make([]bool, m.k)
	var seenGlobal, seenExts bool
	off := maniHeaderLen
	for i := 0; i < count; i++ {
		e := partEntry{
			role: data[off],
			idx:  int(binary.LittleEndian.Uint32(data[off+1:])),
			seq:  binary.LittleEndian.Uint64(data[off+5:]),
			size: int64(binary.LittleEndian.Uint64(data[off+13:])),
		}
		off += maniEntryLen
		if e.seq > m.seq || e.size < 0 {
			return nil, fmt.Errorf("store: manifest entry %d out of range", i)
		}
		switch e.role {
		case roleGlobal:
			if seenGlobal || e.idx != 0 {
				return nil, fmt.Errorf("store: manifest entry %d: duplicate global part", i)
			}
			seenGlobal = true
		case roleExts:
			if seenExts || e.idx != 0 {
				return nil, fmt.Errorf("store: manifest entry %d: duplicate extensions part", i)
			}
			seenExts = true
		case roleShard:
			if e.idx < 0 || e.idx >= m.k || seenShard[e.idx] {
				return nil, fmt.Errorf("store: manifest entry %d: bad shard index %d", i, e.idx)
			}
			seenShard[e.idx] = true
		default:
			return nil, fmt.Errorf("store: manifest entry %d: unknown role %d", i, e.role)
		}
		m.parts = append(m.parts, e)
	}
	if !seenGlobal {
		return nil, fmt.Errorf("store: manifest missing its global part")
	}
	for i, ok := range seenShard {
		if !ok {
			return nil, fmt.Errorf("store: manifest missing shard %d", i)
		}
	}
	return m, nil
}

// columnsOf projects g into the column sets the part writers consume,
// building its single-shard snapshot when g is a mutable graph.
func columnsOf(g graph.Reader) *graph.ShardedColumns {
	sh, ok := g.(*graph.Sharded)
	if !ok {
		sh = graph.Freeze(g)
	}
	return sh.Columns()
}

// writeGlobalPart emits the label-universe columns shared by every
// shard.
func writeGlobalPart(pw *partWriter, c *graph.ShardedColumns, seq uint64) {
	pw.header(roleGlobal, seq)
	pw.pstrings(ptagLabels, c.Labels)
	pw.pstrings(ptagCatKeys, c.CatKeys)
	putPI32s(pw, ptagNodeLabel, c.NodeLabel)
}

// writeShardPart emits one shard's columns.
func writeShardPart(pw *partWriter, sc *graph.ShardColumns, seq uint64) {
	pw.header(roleShard, seq)
	pw.pu64(ptagShardN, uint64(sc.N))
	putPI32s(pw, ptagOutOff, sc.OutOff)
	putPI32s(pw, ptagOutAdj, sc.OutAdj)
	putPI32s(pw, ptagInOff, sc.InOff)
	putPI32s(pw, ptagInAdj, sc.InAdj)
	putPI32s(pw, ptagLabelOff, sc.LabelOff)
	putPI32s(pw, ptagLabelIdx, sc.LabelIdx)
	putPI32s(pw, ptagAttrOff, sc.AttrOff)
	pw.pstrings(ptagAttrKey, sc.AttrKey)
	pw.pi64s(ptagAttrVal, sc.AttrVal)
}

// writePartFile writes one part through fill into its final name (no
// tmp: the manifest rename is the commit point, and an orphaned or
// half-written part is collected at the next Open), fsyncs it, and
// returns the completed entry.
func writePartFile(dir string, e partEntry, fill func(pw *partWriter)) (partEntry, error) {
	path := filepath.Join(dir, e.name())
	f, err := os.Create(path)
	if err != nil {
		return e, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	pw := &partWriter{w: bw}
	fill(pw)
	err = pw.err
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return e, fmt.Errorf("store: writing %s: %w", e.name(), err)
	}
	e.size = pw.n
	return e, nil
}

// readPart reads one manifest-referenced part image into memory and
// checks its length against the manifest.
func readPart(dir string, e partEntry) (*partReader, error) {
	data, err := os.ReadFile(filepath.Join(dir, e.name()))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != e.size {
		return nil, fmt.Errorf("store: %s is %d bytes, manifest says %d", e.name(), len(data), e.size)
	}
	return newPartReader(data, e.role, e.seq), nil
}

// loadManifestGraph assembles the checkpointed backend (and, when
// present, the serialized view extensions) from a committed manifest.
func loadManifestGraph(dir string, m *manifest) (*graph.Sharded, []ExtensionData, error) {
	ge, _ := m.global()
	gpr, err := readPart(dir, ge)
	if err != nil {
		return nil, nil, err
	}
	labels := gpr.rstrings(ptagLabels)
	catKeys := gpr.rstrings(ptagCatKeys)
	nodeLabel := readPI32s[graph.LabelID](gpr, ptagNodeLabel)
	if err := gpr.done(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ge.name(), err)
	}
	if len(nodeLabel) != m.numNodes {
		return nil, nil, fmt.Errorf("store: global part has %d nodes, manifest says %d", len(nodeLabel), m.numNodes)
	}

	// A legacy kindFrozen shard part is the one shard of every node,
	// written without the node count and boundary sections.
	legacy := m.kind == kindFrozen
	c := &graph.ShardedColumns{
		Labels:    labels,
		CatKeys:   catKeys,
		NumEdges:  m.numEdges,
		K:         m.k,
		NodeLabel: nodeLabel,
		Shards:    make([]graph.ShardColumns, m.k),
	}
	for i := 0; i < m.k; i++ {
		se, _ := m.shard(i)
		pr, err := readPart(dir, se)
		if err != nil {
			return nil, nil, err
		}
		sc := &c.Shards[i]
		if legacy {
			sc.N = m.numNodes
		} else {
			sc.N = int(pr.ru64(ptagShardN))
		}
		sc.OutOff = readPI32s[int32](pr, ptagOutOff)
		sc.OutAdj = readPI32s[graph.NodeID](pr, ptagOutAdj)
		sc.InOff = readPI32s[int32](pr, ptagInOff)
		sc.InAdj = readPI32s[graph.NodeID](pr, ptagInAdj)
		sc.LabelOff = readPI32s[int32](pr, ptagLabelOff)
		sc.LabelIdx = readPI32s[graph.NodeID](pr, ptagLabelIdx)
		if !legacy && pr.format == 1 {
			// Format-1 shard parts carry the boundary arrays this
			// build no longer keeps: checksummed, then dropped.
			readPI32s[graph.NodeID](pr, ptagBoundSrc)
			readPI32s[graph.NodeID](pr, ptagBoundDst)
		}
		sc.AttrOff = readPI32s[int32](pr, ptagAttrOff)
		sc.AttrKey = pr.rstrings(ptagAttrKey)
		sc.AttrVal = pr.ri64s(ptagAttrVal)
		if err := pr.done(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", se.name(), err)
		}
	}
	g, err := graph.ShardedFromColumns(c)
	if err != nil {
		return nil, nil, err
	}

	var exts []ExtensionData
	if ee, ok := m.exts(); ok {
		pr, err := readPart(dir, ee)
		if err != nil {
			return nil, nil, err
		}
		exts, err = readExtsPart(pr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ee.name(), err)
		}
	}
	return g, exts, nil
}
