package graph

import (
	"reflect"
	"testing"
)

// graphFromFuzzBytes decodes an arbitrary byte string into a small
// labeled, attributed graph deterministically: the first byte sizes the
// node set, one byte per node picks its label and attributes, and the
// remaining bytes pair up into edges. Every byte string is a valid
// graph, so the fuzzer explores the full input space.
func graphFromFuzzBytes(data []byte) *Graph {
	g := New()
	if len(data) == 0 {
		return g
	}
	labels := [...]string{"A", "B", "C", "D", "E"}
	n := 1 + int(data[0])%32
	data = data[1:]
	for i := 0; i < n; i++ {
		var b byte
		if len(data) > 0 {
			b = data[0]
			data = data[1:]
		}
		v := g.AddNode(labels[int(b)%len(labels)])
		switch b % 5 {
		case 1:
			g.SetAttr(v, "x", int64(b))
		case 2:
			g.SetAttrString(v, "c", string('p'+rune(b%3)))
		case 3:
			g.SetAttr(v, "x", int64(b))
			g.SetAttr(v, "y", -int64(b))
		}
	}
	for len(data) >= 2 {
		g.AddEdge(NodeID(int(data[0])%n), NodeID(int(data[1])%n))
		data = data[2:]
	}
	return g
}

// FuzzShardRoundTrip pins the sharded backend's core identities on
// arbitrary graphs: for every shard count, every Reader method of
// Shard(g, k) answers as the mutable graph does, re-sharding to one
// shard reproduces Freeze of the source field for field, and every edge
// sits in its source's shard's forward CSR and its target's shard's
// reverse CSR.
//
// Run the seed corpus with `go test`; fuzz with
//
//	go test -run '^$' -fuzz '^FuzzShardRoundTrip$' -fuzztime 15s ./internal/graph
func FuzzShardRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\x00"))
	f.Add([]byte("\x05ABCDE\x00\x01\x01\x02\x02\x03\x03\x04\x04\x00"))
	f.Add([]byte("\x1f0123456789abcdefghijklmnopqrstuv\x00\x10\x10\x05\x05\x1e"))
	f.Add([]byte("\x02\x01\x02\x00\x00\x00\x01\x01\x00\x01\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromFuzzBytes(data)
		one := Freeze(g.Clone())
		for _, k := range []int{1, 2, 3, 7} {
			sh := Shard(g, k)
			if d := readerDiff(g, sh); d != "" {
				t.Fatalf("k=%d: %s\ngraph: %v", k, d, g)
			}
			if got := Freeze(sh); !reflect.DeepEqual(one, got) {
				t.Fatalf("k=%d: Shard(Shard(g, k), 1) != Shard(g, 1)\ngraph: %v", k, g)
			}
			if msg := partitionDiff(g, sh); msg != "" {
				t.Fatalf("k=%d: %s\ngraph: %v", k, msg, g)
			}
		}
	})
}
