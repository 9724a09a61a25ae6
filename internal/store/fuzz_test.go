package store

// FuzzWALReplay is the satellite fuzz target: arbitrary bytes → record
// decoder → replay into maintained views must never panic, and corrupt
// frames must truncate the decode, never crash it. The seed corpus in
// testdata/fuzz/FuzzWALReplay pins a valid log, torn tails and framed
// garbage; make fuzz-smoke runs the target briefly in CI.

import (
	"bytes"
	"reflect"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// fuzzLogImage frames batches exactly as the WAL writes them.
func fuzzLogImage(batches [][]view.EdgeUpdate) []byte {
	var buf []byte
	for _, b := range batches {
		buf = encodeRecord(buf, b)
	}
	return buf
}

func FuzzWALReplay(f *testing.F) {
	valid := fuzzLogImage(testBatches())
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                    // torn mid-frame
	f.Add(append(bytes.Clone(valid), 0xde, 0xad))  // garbage tail
	f.Add(fuzzLogImage(nil))                       // empty log
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 3})       // bad CRC
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0}) // absurd length, short frame
	f.Add(bytes.Repeat([]byte{0}, 64))             // zero lengths
	f.Add(fuzzLogImage([][]view.EdgeUpdate{{{From: 1 << 30, To: -5, Delete: true}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, good := DecodeAll(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("goodLen %d outside [0,%d]", good, len(data))
		}
		// The accepted prefix must re-decode to exactly the same batches
		// (this is what recovery truncation relies on).
		again, againLen := DecodeAll(data[:good])
		if againLen != good || !reflect.DeepEqual(again, batches) {
			t.Fatalf("prefix re-decode diverged: %d/%d bytes, %d/%d batches",
				againLen, good, len(again), len(batches))
		}
		// Replay into a small maintained view set: out-of-range ids are
		// dropped (as recovery does), everything else must apply cleanly.
		g := graph.New()
		for i := 0; i < 8; i++ {
			g.AddNode([]string{"person", "site", "item", "tag"}[i%4])
		}
		n := graph.NodeID(g.NumNodes())
		m, _ := view.NewMaintained(g, crashViews(), view.Options{})
		for _, b := range batches {
			in := b[:0:0]
			for _, up := range b {
				if up.From >= 0 && up.From < n && up.To >= 0 && up.To < n {
					in = append(in, up)
				}
			}
			m.ApplyBatch(in)
		}
	})
}

// FuzzSnapshotManifest: arbitrary bytes → decodeManifest must never
// panic; any image it accepts must re-encode and re-decode to the same
// manifest (the commit point relies on this being a fixed point). The
// seed corpus pins real legacy-frozen/sharded/extension manifests plus
// truncated and bit-flipped variants.
func FuzzSnapshotManifest(f *testing.F) {
	frozen := encodeManifest(&manifest{
		kind: kindFrozen, k: 1, seq: 3, version: 11, numNodes: 40, numEdges: 100,
		parts: []partEntry{
			{role: roleGlobal, seq: 3, size: 640},
			{role: roleShard, idx: 0, seq: 3, size: 4096},
			{role: roleExts, seq: 3, size: 512},
		},
	})
	sharded := encodeManifest(&manifest{
		kind: kindSharded, k: 3, seq: 7, version: 29, numNodes: 40, numEdges: 100,
		parts: []partEntry{
			{role: roleGlobal, seq: 7, size: 320},
			{role: roleShard, idx: 0, seq: 5, size: 1024},
			{role: roleShard, idx: 1, seq: 7, size: 2048},
			{role: roleShard, idx: 2, seq: 6, size: 512},
		},
	})
	f.Add(frozen)
	f.Add(sharded)
	f.Add(frozen[:len(frozen)-5])  // torn tail
	f.Add(sharded[:maniHeaderLen]) // header only, entries missing
	f.Add([]byte{})                // empty
	f.Add(bytes.Repeat([]byte{0}, maniHeaderLen+4))
	flipped := bytes.Clone(sharded)
	flipped[16] ^= 0x40 // absurd shard count, checksum now stale
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		round := encodeManifest(m)
		again, err := decodeManifest(round)
		if err != nil {
			t.Fatalf("accepted manifest failed to round-trip: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest round-trip diverged:\n got %+v\nwant %+v", again, m)
		}
		// Part names derived from accepted entries must be well-formed and
		// collision-free within one manifest.
		names := map[string]bool{}
		for _, e := range m.parts {
			n := e.name()
			if n == "" || names[n] {
				t.Fatalf("part name %q duplicated or empty", n)
			}
			names[n] = true
		}
	})
}
