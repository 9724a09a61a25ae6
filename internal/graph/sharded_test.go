package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// shardCounts is the shard sweep the unit tests run; it covers the
// single shard Freeze builds, k coprime to typical sizes, and k > |V|.
var shardCounts = []int{1, 2, 3, 7, 100}

// fixtureGraph builds a small graph exercising every snapshot code path:
// multiple labels, integer and categorical attributes, attribute-free
// nodes, a self loop, sources and sinks.
func fixtureGraph() *Graph {
	g := New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("A")
	d := g.AddNode("C")
	e := g.AddNode("B")
	g.SetAttr(a, "x", 3)
	g.SetAttr(a, "y", -7)
	g.SetAttrString(b, "cat", "Music")
	g.SetAttrString(d, "cat", "Sports")
	g.SetAttr(d, "x", 12)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	g.AddEdge(d, d) // self loop
	g.AddEdge(e, a)
	return g
}

// randomShardGraph builds a random labeled graph with integer and
// categorical attributes for the differential unit tests.
func randomShardGraph(rng *rand.Rand, n, m int) *Graph {
	labels := []string{"A", "B", "C", "D"}
	cats := []string{"x", "y", "z"}
	g := New()
	for i := 0; i < n; i++ {
		v := g.AddNode(labels[rng.Intn(len(labels))])
		if rng.Intn(3) == 0 {
			g.SetAttr(v, "w", int64(rng.Intn(50)))
		}
		if rng.Intn(4) == 0 {
			g.SetAttrString(v, "cat", cats[rng.Intn(len(cats))])
		}
	}
	for i := 0; i < m; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return g
}

// readerDiff returns the first Reader method on which got answers
// differently from want, or "" when every method agrees: sizes, labels,
// adjacency, degrees, attributes, HasEdge over every node pair, the
// label partitions (out-of-range ids and an unknown name included),
// categorical keys and the edge enumeration.
func readerDiff(want, got Reader) string {
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.Size() != want.Size() {
		return fmt.Sprintf("sizes (%d,%d,%d) vs (%d,%d,%d)", got.NumNodes(), got.NumEdges(), got.Size(),
			want.NumNodes(), want.NumEdges(), want.Size())
	}
	keys := map[string]bool{"absent": true}
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		if got.Label(v) != want.Label(v) || got.LabelName(v) != want.LabelName(v) {
			return fmt.Sprintf("node %d: label", v)
		}
		if !equalIDs(got.Out(v), want.Out(v)) || !equalIDs(got.In(v), want.In(v)) {
			return fmt.Sprintf("node %d: adjacency %v/%v vs %v/%v", v, got.Out(v), got.In(v), want.Out(v), want.In(v))
		}
		if got.OutDegree(v) != want.OutDegree(v) || got.InDegree(v) != want.InDegree(v) {
			return fmt.Sprintf("node %d: degree", v)
		}
		if !reflect.DeepEqual(got.Attrs(v), want.Attrs(v)) {
			return fmt.Sprintf("node %d: Attrs %v vs %v", v, got.Attrs(v), want.Attrs(v))
		}
		for key := range want.Attrs(v) {
			keys[key] = true
		}
	}
	for key := range keys {
		if got.IsCategorical(key) != want.IsCategorical(key) {
			return fmt.Sprintf("IsCategorical(%q)", key)
		}
		for v := NodeID(0); int(v) < want.NumNodes(); v++ {
			gv, gok := got.Attr(v, key)
			wv, wok := want.Attr(v, key)
			if gv != wv || gok != wok {
				return fmt.Sprintf("node %d: Attr(%q) (%d,%v) vs (%d,%v)", v, key, gv, gok, wv, wok)
			}
		}
	}
	for u := NodeID(0); int(u) < want.NumNodes(); u++ {
		for v := NodeID(0); int(v) < want.NumNodes(); v++ {
			if got.HasEdge(u, v) != want.HasEdge(u, v) {
				return fmt.Sprintf("HasEdge(%d,%d)", u, v)
			}
		}
	}
	for l := LabelID(-1); int(l) <= want.Interner().Len(); l++ {
		if !equalIDs(got.NodesWithLabel(l), want.NodesWithLabel(l)) {
			return fmt.Sprintf("label %d: partition %v vs %v", l, got.NodesWithLabel(l), want.NodesWithLabel(l))
		}
	}
	for _, name := range append(want.Interner().Names(), "nope") {
		if !equalIDs(got.NodesWithLabelName(name), want.NodesWithLabelName(name)) {
			return fmt.Sprintf("label %q: partition", name)
		}
	}
	if got.NodesWithLabel(NoLabel) != nil {
		return "NodesWithLabel(NoLabel) non-nil"
	}
	var ge, we [][2]NodeID
	got.Edges(func(u, v NodeID) bool { ge = append(ge, [2]NodeID{u, v}); return true })
	want.Edges(func(u, v NodeID) bool { we = append(we, [2]NodeID{u, v}); return true })
	if !reflect.DeepEqual(ge, we) {
		return "Edges enumeration"
	}
	return ""
}

// TestShardedMatchesGraph checks every Reader method of Shard(g, k)
// against the mutable graph at every shard count, k = 1 (Freeze)
// included, plus the ownership bookkeeping of the shards.
func TestShardedMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for gi, g := range []*Graph{fixtureGraph(), randomShardGraph(rng, 60, 200)} {
		for _, k := range shardCounts {
			s := Shard(g, k)
			if s.NumShards() != k {
				t.Fatalf("graph %d k=%d: NumShards=%d", gi, k, s.NumShards())
			}
			owned := 0
			for si := 0; si < k; si++ {
				owned += s.ShardSize(si)
			}
			if owned != s.NumNodes() {
				t.Fatalf("graph %d k=%d: shard sizes sum to %d, want %d", gi, k, owned, s.NumNodes())
			}
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				if s.ShardOf(v) != int(v)%k {
					t.Fatalf("graph %d k=%d node %d: wrong owner", gi, k, v)
				}
			}
			if d := readerDiff(g, s); d != "" {
				t.Fatalf("graph %d k=%d: %s", gi, k, d)
			}
		}
	}
}

// TestFrozenMatchesGraph checks every Reader method of Freeze(g), the
// k=1 fast path (no modulo, no merge cache), against the
// mutable graph.
func TestFrozenMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for gi, g := range []*Graph{fixtureGraph(), randomShardGraph(rng, 60, 200)} {
		f := Freeze(g)
		if f.NumShards() != 1 {
			t.Fatalf("graph %d: Freeze built %d shards", gi, f.NumShards())
		}
		if d := readerDiff(g, f); d != "" {
			t.Fatalf("graph %d: %s", gi, d)
		}
	}
	if f := Freeze(fixtureGraph()); !f.IsCategorical("cat") || f.IsCategorical("x") {
		t.Fatalf("IsCategorical mismatch")
	}
}

// TestShardedMatchesFrozen checks the k-way general path against the
// k=1 fast path directly: every Reader method of Shard(g, k) must answer
// as Freeze(g) does.
func TestShardedMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomShardGraph(rng, 60, 200)
	f := Freeze(g)
	for _, k := range shardCounts {
		if d := readerDiff(f, Shard(g, k)); d != "" {
			t.Fatalf("k=%d: %s", k, d)
		}
	}
}

// TestReshardIdentity: re-sharding any snapshot at k must reproduce the
// split of the source at k field for field, whatever shard count the
// snapshot had — Shard reads nothing but the Reader methods.
func TestReshardIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomShardGraph(rng, 45, 140)
	for _, k := range shardCounts {
		want := Shard(g.Clone(), k)
		for _, j := range shardCounts {
			if got := Shard(Shard(g, j), k); !reflect.DeepEqual(want, got) {
				t.Fatalf("Shard(Shard(g, %d), %d) != Shard(g, %d)", j, k, k)
			}
		}
	}
}

// TestFreezeThawFreezeIdentity: Freeze→Thaw→Freeze must reproduce the
// snapshot exactly — from a clone of the thawed graph too, which
// remembers nothing — and Thaw must serialize identically to the source.
func TestFreezeThawFreezeIdentity(t *testing.T) {
	g := fixtureGraph()
	f1 := Freeze(g)
	thawed := f1.Thaw()
	if f2 := Freeze(thawed); f2 != f1 {
		t.Fatalf("Freeze of an untouched thawed graph built a new snapshot")
	}
	if f2 := Freeze(thawed.Clone()); !reflect.DeepEqual(f1, f2) {
		t.Fatalf("Freeze(Thaw(Freeze(g))) differs from Freeze(g):\n%+v\nvs\n%+v", f1, f2)
	}

	var orig, viaFrozen, viaThaw bytes.Buffer
	if err := Write(&orig, g); err != nil {
		t.Fatal(err)
	}
	if err := Write(&viaFrozen, f1); err != nil {
		t.Fatal(err)
	}
	if err := Write(&viaThaw, thawed); err != nil {
		t.Fatal(err)
	}
	if orig.String() != viaFrozen.String() || orig.String() != viaThaw.String() {
		t.Fatalf("serializations diverge:\n--- graph ---\n%s--- frozen ---\n%s--- thawed ---\n%s",
			orig.String(), viaFrozen.String(), viaThaw.String())
	}
}

// TestShardBoundaryInvariants pins where every edge lives: (u,v) sits
// in shard u mod k's forward CSR and in shard v mod k's reverse CSR, at
// the owner's local index, and the shards together hold |E| entries in
// each direction — so an edge crossing shards is stored on both sides
// and nowhere else.
func TestShardBoundaryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomShardGraph(rng, 50, 180)
	for _, k := range shardCounts {
		if msg := partitionDiff(g, Shard(g, k)); msg != "" {
			t.Fatalf("k=%d: %s", k, msg)
		}
	}
}

// partitionDiff checks s's edge placement against g (see
// TestShardBoundaryInvariants) and describes the first violation, or
// returns "".
func partitionDiff(g Reader, s *Sharded) string {
	k := s.NumShards()
	outs, ins := 0, 0
	for si := range s.shards {
		outs += len(s.shards[si].outAdj)
		ins += len(s.shards[si].inAdj)
	}
	if outs != g.NumEdges() || ins != g.NumEdges() {
		return fmt.Sprintf("shards hold %d forward and %d reverse entries, want %d each", outs, ins, g.NumEdges())
	}
	msg := ""
	g.Edges(func(u, v NodeID) bool {
		fw, fl := &s.shards[int(u)%k], int(u)/k
		rv, rl := &s.shards[int(v)%k], int(v)/k
		if !containsNode(fw.outAdj[fw.outOff[fl]:fw.outOff[fl+1]], v) {
			msg = fmt.Sprintf("edge (%d,%d) missing from shard %d's forward CSR", u, v, int(u)%k)
		} else if !containsNode(rv.inAdj[rv.inOff[rl]:rv.inOff[rl+1]], u) {
			msg = fmt.Sprintf("edge (%d,%d) missing from shard %d's reverse CSR", u, v, int(v)%k)
		}
		return msg == ""
	})
	return msg
}

// containsNode reports whether v occurs in list.
func containsNode(list []NodeID, v NodeID) bool {
	for _, w := range list {
		if w == v {
			return true
		}
	}
	return false
}

// TestShardPerShardLabelPartitions: shard partitions must tile the global
// partition — ascending within each shard, owned by it, and merging back
// to the mutable graph's partition.
func TestShardPerShardLabelPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomShardGraph(rng, 40, 100)
	s := Shard(g, 3)
	for l := LabelID(0); int(l) < g.Interner().Len(); l++ {
		var parts [][]NodeID
		total := 0
		for si := 0; si < s.NumShards(); si++ {
			p := s.ShardNodesWithLabel(si, l)
			for i, v := range p {
				if s.ShardOf(v) != si {
					t.Fatalf("label %d shard %d: node %d not owned", l, si, v)
				}
				if i > 0 && p[i-1] >= v {
					t.Fatalf("label %d shard %d: partition not ascending", l, si)
				}
			}
			parts = append(parts, p)
			total += len(p)
		}
		if !equalIDs(MergeAscending(parts, total), g.NodesWithLabel(l)) {
			t.Fatalf("label %d: merged shard partitions != graph partition", l)
		}
	}
	if s.ShardNodesWithLabel(0, NoLabel) != nil {
		t.Fatalf("ShardNodesWithLabel(NoLabel) non-nil")
	}
}

// requireIsolated checks that mutating the source graph after a
// snapshot at k does not show through the snapshot.
func requireIsolated(t *testing.T, k int) {
	t.Helper()
	g := fixtureGraph()
	s := Shard(g, k)
	nodes, edges := s.NumNodes(), s.NumEdges()
	aOut := append([]NodeID(nil), s.Out(0)...)

	v := g.AddNode("D")
	g.AddEdge(0, v)
	g.SetAttr(0, "x", 999)
	g.Interner().Intern("brand-new-label")

	if s.NumNodes() != nodes || s.NumEdges() != edges {
		t.Fatalf("k=%d: snapshot changed size after source mutation", k)
	}
	if !equalIDs(s.Out(0), aOut) {
		t.Fatalf("k=%d: snapshot adjacency changed after source mutation", k)
	}
	if got, _ := s.Attr(0, "x"); got != 3 {
		t.Fatalf("k=%d: snapshot attribute changed after source mutation: %d", k, got)
	}
	if s.Interner().Lookup("brand-new-label") != NoLabel {
		t.Fatalf("k=%d: snapshot interner shares state with source", k)
	}
}

// TestFreezeIsolation: mutating the source graph after Freeze must not
// show through the snapshot.
func TestFreezeIsolation(t *testing.T) { requireIsolated(t, 1) }

// TestShardIsolation: the same above one shard.
func TestShardIsolation(t *testing.T) { requireIsolated(t, 2) }

// TestFreezeOfFrozenIsNoop: Freeze on a single-shard snapshot returns it
// unchanged.
func TestFreezeOfFrozenIsNoop(t *testing.T) {
	f := Freeze(fixtureGraph())
	if Freeze(f) != f || Shard(f, 1) != f {
		t.Fatalf("Freeze of a single-shard snapshot allocated a new one")
	}
}

// TestShardSameKIsNoop: re-sharding at the same k returns the receiver.
func TestShardSameKIsNoop(t *testing.T) {
	s := Shard(fixtureGraph(), 3)
	if Shard(s, 3) != s {
		t.Fatalf("Shard(*Sharded, same k) allocated a new backend")
	}
	if Shard(s, 2) == s || Freeze(s) == s {
		t.Fatalf("Shard(*Sharded, different k) returned the receiver")
	}
}

// TestShardDegenerate: k below 1 clamps, and empty graphs shard cleanly.
func TestShardDegenerate(t *testing.T) {
	if s := Shard(New(), 4); s.NumNodes() != 0 || s.NumShards() != 4 || Freeze(s).NumNodes() != 0 {
		t.Fatalf("empty graph sharding broken")
	}
	if s := Shard(fixtureGraph(), 0); s.NumShards() != 1 {
		t.Fatalf("k=0 should clamp to a single shard, got %d", s.NumShards())
	}
	if s := Shard(fixtureGraph(), -3); s.NumShards() != 1 {
		t.Fatalf("negative k should clamp to a single shard, got %d", s.NumShards())
	}
}

// hammer reads s's label partitions and per-shard accessors from many
// goroutines at once; run with -race.
func hammer(s *Sharded) {
	labels := s.Interner()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				for l := LabelID(0); int(l) < labels.Len(); l++ {
					for _, v := range s.NodesWithLabel(l) {
						_ = s.Out(v)
						_ = s.In(v)
						_, _ = s.Attr(v, "w")
					}
					for si := 0; si < s.NumShards(); si++ {
						_ = s.ShardNodesWithLabel(si, l)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrozenConcurrentReads: at k = 1 the label partition and the
// adjacency are read with no locking at all.
func TestFrozenConcurrentReads(t *testing.T) {
	hammer(Freeze(randomShardGraph(rand.New(rand.NewSource(5)), 60, 200)))
}

// TestShardedConcurrentReads: above one shard the merge-on-read label
// cache build is the one mutex in the backend — everything else is
// immutable.
func TestShardedConcurrentReads(t *testing.T) {
	hammer(Shard(randomShardGraph(rand.New(rand.NewSource(5)), 60, 200), 4))
}

// TestAttrsCopyOwnership: the copy must not alias backend storage on
// either backend.
func TestAttrsCopyOwnership(t *testing.T) {
	g := fixtureGraph()
	for _, r := range []Reader{g, Freeze(g), Shard(g, 2)} {
		c := AttrsCopy(r, 0)
		c["x"] = 1234
		if got, _ := r.Attr(0, "x"); got != 3 {
			t.Fatalf("%v: mutating AttrsCopy leaked into the backend", r)
		}
		if AttrsCopy(r, 1) == nil {
			t.Fatalf("%v: node with attrs returned nil copy", r)
		}
		if AttrsCopy(r, 2) != nil {
			t.Fatalf("%v: attribute-free node returned non-nil copy", r)
		}
	}
}

// TestMergeAscending covers the k-way merge shared with the seeding path.
func TestMergeAscending(t *testing.T) {
	cases := []struct {
		parts [][]NodeID
		want  []NodeID
	}{
		{nil, nil},
		{[][]NodeID{nil, {}}, nil},
		{[][]NodeID{{1, 4, 9}}, []NodeID{1, 4, 9}},
		{[][]NodeID{{0, 3}, {1, 4}, {2, 5}}, []NodeID{0, 1, 2, 3, 4, 5}},
		{[][]NodeID{{5}, nil, {0, 9}, {7}}, []NodeID{0, 5, 7, 9}},
	}
	for i, c := range cases {
		total := 0
		for _, p := range c.parts {
			total += len(p)
		}
		if got := MergeAscending(c.parts, total); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func equalIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
