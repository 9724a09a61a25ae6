package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// refreezeChecker drives one mutable graph through edits and snapshots
// and holds every snapshot it took next to a from-scratch build of a
// deep copy of the graph at that moment. Every snapshot call compares
// all of them again, so a later splice that wrote into arrays an earlier snapshot
// still holds shows up as that earlier pair diverging.
type refreezeChecker struct {
	t    *testing.T
	g    *Graph
	got  []*Sharded
	want []*Sharded
}

// snapshot takes Shard(g, k), pairs it with the same build over
// g.Clone() — which remembers nothing, so it is the everything-dirty
// case — and re-checks the whole history.
func (c *refreezeChecker) snapshot(k int) *Sharded {
	c.t.Helper()
	got, want := Shard(c.g, k), Shard(c.g.Clone(), k)
	c.got, c.want = append(c.got, got), append(c.want, want)
	for i := range c.got {
		if !reflect.DeepEqual(c.got[i], c.want[i]) {
			c.t.Fatalf("after snapshot %d (k=%d): snapshot %d differs from the from-scratch build taken with it\ngraph: %v",
				len(c.got)-1, k, i, c.g)
		}
	}
	return got
}

// burst applies size random edge edits: inserts (self-loops included),
// deletions of present edges, an insert undone at once, and stripping a
// node of every edge so its degree drops to 0.
func (c *refreezeChecker) burst(rng *rand.Rand, size int) {
	n := c.g.NumNodes()
	for i := 0; i < size; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		switch rng.Intn(8) {
		case 0:
			c.g.AddEdge(u, u)
		case 1, 2:
			if out := c.g.Out(u); len(out) > 0 {
				c.g.RemoveEdge(u, out[rng.Intn(len(out))])
			}
		case 3:
			if c.g.AddEdge(u, v) {
				c.g.RemoveEdge(u, v)
			}
		case 4:
			for len(c.g.Out(u)) > 0 {
				c.g.RemoveEdge(u, c.g.Out(u)[0])
			}
			for len(c.g.In(u)) > 0 {
				c.g.RemoveEdge(c.g.In(u)[0], u)
			}
		default:
			c.g.AddEdge(u, v)
		}
	}
}

// TestRefreezeDifferential runs seeded random programs of edge bursts —
// none, one, a few, and more than the abandon threshold of dirty nodes —
// interleaved with Shard at k ∈ {1,2,8}, switching k so that every memo
// transition (none, same k, other k) is taken, with the occasional node
// edit that must invalidate the shared columns.
func TestRefreezeDifferential(t *testing.T) {
	kinds := []int{1, 2, 8}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		c := &refreezeChecker{t: t, g: randomShardGraph(rng, n, 3*n)}
		k := kinds[rng.Intn(len(kinds))]
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0:
			case 1:
				c.burst(rng, 1)
			case 2:
				c.burst(rng, 2+rng.Intn(4))
			default:
				c.burst(rng, n)
			}
			switch rng.Intn(12) {
			case 0:
				c.g.AddNode("E")
			case 1:
				c.g.SetAttr(NodeID(rng.Intn(c.g.NumNodes())), "w", int64(step))
			case 2:
				c.g.SetAttrString(NodeID(rng.Intn(c.g.NumNodes())), "cat", string(rune('a'+step)))
			case 3:
				k = kinds[rng.Intn(len(kinds))]
			}
			c.snapshot(k)
		}
	}
}

// TestRefreezeSharesWhatDidNotChange pins the cost side of the contract
// white-box: an unchanged graph yields the remembered snapshot itself, a
// small burst yields new adjacency arrays over the same node columns, a
// clean shard is carried over whole, a burst past the threshold still
// shares the node columns, and the counters say so.
func TestRefreezeSharesWhatDidNotChange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomShardGraph(rng, 80, 240)
	sameArray := func(a, b []NodeID) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	f1 := Freeze(g)
	if st := g.SnapshotStats(); st != (SnapshotStats{DirtyNodes: 80}) {
		t.Fatalf("first build: stats %+v", st)
	}
	if Freeze(g) != f1 {
		t.Fatalf("unchanged graph: Freeze built a new snapshot")
	}
	g.AddEdge(3, 3)
	g.RemoveEdge(3, 3)
	g.AddEdge(5, 9)
	f2 := Freeze(g)
	c1, c2 := &f1.shards[0], &f2.shards[0]
	if f2 == f1 || &f2.nodeLabel[0] != &f1.nodeLabel[0] || &c2.attrKey[0] != &c1.attrKey[0] || !sameArray(c2.labelIdx, c1.labelIdx) {
		t.Fatalf("small burst: node columns not shared")
	}
	if sameArray(c2.outAdj, c1.outAdj) || f1.HasEdge(5, 9) || !f2.HasEdge(5, 9) {
		t.Fatalf("small burst: adjacency not private to the new snapshot")
	}
	if st := g.SnapshotStats(); st != (SnapshotStats{DirtyNodes: 83, SharedParts: 1}) {
		t.Fatalf("after the small burst: stats %+v", st)
	}

	s1 := Shard(g, 8) // other k: from scratch
	g.AddEdge(8, 16)  // both owned by shard 0
	s2 := Shard(g, 8)
	if !sameArray(s2.shards[1].outAdj, s1.shards[1].outAdj) || sameArray(s2.shards[0].outAdj, s1.shards[0].outAdj) {
		t.Fatalf("one dirty shard: clean shards not carried over, or the dirty one not rebuilt")
	}
	if !sameArray(s2.shards[0].labelIdx, s1.shards[0].labelIdx) {
		t.Fatalf("one dirty shard: its node columns not shared")
	}
	if st := g.SnapshotStats(); st != (SnapshotStats{DirtyNodes: 83 + 80 + 2, SharedParts: 1 + 7}) {
		t.Fatalf("after the sharded burst: stats %+v", st)
	}

	for v := NodeID(0); v < 60; v++ { // past |V|/4 dirty nodes
		g.AddEdge(v, (v+1)%80)
	}
	s3 := Shard(g, 8)
	if &s3.nodeLabel[0] != &s2.nodeLabel[0] || !sameArray(s3.shards[2].labelIdx, s2.shards[2].labelIdx) {
		t.Fatalf("past the threshold: node columns not shared")
	}
	if st := g.SnapshotStats(); st.DirtyNodes != 83+80+2+80 {
		t.Fatalf("past the threshold: stats %+v", st)
	}

	g.Interner().Intern("behind-the-back")
	if s4 := Shard(g, 8); !reflect.DeepEqual(s4, Shard(g.Clone(), 8)) {
		t.Fatalf("label universe grew without a node edit: stale label partition shared")
	}
}

// TestThawRemembersItsSource checks the restart path: a thawed graph is
// a faithful mutable copy (its clone, which remembers nothing, freezes
// back to the source), it starts from the source's columns, and edits
// after the thaw splice correctly against them.
func TestThawRemembersItsSource(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randomShardGraph(rng, 70, 210)
	f := Freeze(src.Clone())
	for _, base := range []*Sharded{f, Shard(src.Clone(), 8)} {
		g := base.Thaw()
		if got := Freeze(g.Clone()); !reflect.DeepEqual(got, f) {
			t.Fatalf("%v: thawed graph does not freeze back to its source", base)
		}
		c := &refreezeChecker{t: t, g: g}
		k := base.NumShards()
		if c.snapshot(k) != base {
			t.Fatalf("%v: untouched thawed graph did not return its source", base)
		}
		c.burst(rng, 5)
		c.snapshot(k)
		if st := g.SnapshotStats(); st.DirtyNodes >= g.NumNodes() {
			t.Fatalf("%v: first build after the thaw read all %d nodes", base, st.DirtyNodes)
		}
	}
}

// TestRefreezeConcurrentReaders takes snapshots of one graph with dirty
// nodes pending from many goroutines at once: Shard is a read-only
// operation and builds at different k may race each other (run under
// -race).
func TestRefreezeConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomShardGraph(rng, 90, 300)
	Freeze(g)
	c := &refreezeChecker{t: t, g: g}
	c.burst(rng, 6)
	wantF, wantS := Freeze(g.Clone()), Shard(g.Clone(), 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if (i+j)%2 == 0 {
					if !reflect.DeepEqual(Freeze(g), wantF) {
						t.Errorf("concurrent Freeze diverged")
					}
				} else if !reflect.DeepEqual(Shard(g, 4), wantS) {
					t.Errorf("concurrent Shard diverged")
				}
			}
		}(i)
	}
	wg.Wait()
}

// FuzzRefreeze decodes arbitrary bytes into a graph plus a program of
// edge edits and snapshots and holds every snapshot to its from-scratch
// twin, like TestRefreezeDifferential.
//
//	go test -run '^$' -fuzz '^FuzzRefreeze$' -fuzztime 15s ./internal/graph
func FuzzRefreeze(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte("\x05ABCDE\x00\x01\x01\x02"), []byte("\x06\x00\x00\x00\x01\x02\x06\x00\x00\x04\x01\x02\x06\x00\x00"))
	f.Add([]byte("\x1f0123456789abcdefghijklmnopqrstuv\x00\x10"), []byte("\x07\x02\x00\x00\x03\x04\x07\x02\x00\x01\x05\x05\x07\x08\x00\x06\x00\x00"))
	f.Fuzz(func(t *testing.T, graphBytes, program []byte) {
		c := &refreezeChecker{t: t, g: graphFromFuzzBytes(graphBytes)}
		n := c.g.NumNodes()
		if n == 0 {
			return
		}
		for ; len(program) >= 3 && len(c.got) < 16; program = program[3:] {
			u, v := NodeID(int(program[1])%n), NodeID(int(program[2])%n)
			switch program[0] % 8 {
			case 4, 5:
				c.g.RemoveEdge(u, v)
			case 6:
				c.snapshot(1)
			case 7:
				c.snapshot(1 + int(program[1])%8)
			default:
				c.g.AddEdge(u, v)
			}
		}
		c.snapshot(1)
	})
}
