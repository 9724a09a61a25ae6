package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodeAndLabels(t *testing.T) {
	g := New()
	a := g.AddNode("PM")
	b := g.AddNode("DBA")
	c := g.AddNode("PM")
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.LabelName(a) != "PM" || g.LabelName(b) != "DBA" || g.LabelName(c) != "PM" {
		t.Fatalf("labels wrong: %q %q %q", g.LabelName(a), g.LabelName(b), g.LabelName(c))
	}
	if g.Label(a) != g.Label(c) {
		t.Fatalf("same label should intern to same id")
	}
	if g.Label(a) == g.Label(b) {
		t.Fatalf("different labels must not share ids")
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	if !g.AddEdge(a, b) {
		t.Fatalf("AddEdge(a,b) = false, want true")
	}
	if g.AddEdge(a, b) {
		t.Fatalf("duplicate AddEdge should report false")
	}
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(a, c) || !g.HasEdge(b, c) {
		t.Fatalf("HasEdge missing edges")
	}
	if g.HasEdge(b, a) {
		t.Fatalf("HasEdge(b,a) should be false (directed)")
	}
	if got := g.Out(a); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("Out(a) = %v", got)
	}
	if got := g.In(c); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("In(c) = %v", got)
	}
	if !g.RemoveEdge(a, b) {
		t.Fatalf("RemoveEdge(a,b) = false")
	}
	if g.RemoveEdge(a, b) {
		t.Fatalf("second RemoveEdge should report false")
	}
	if g.HasEdge(a, b) || g.NumEdges() != 2 {
		t.Fatalf("edge (a,b) not removed")
	}
	if got := g.In(b); len(got) != 0 {
		t.Fatalf("In(b) = %v, want empty", got)
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	a := g.AddNode("A")
	if !g.AddEdge(a, a) {
		t.Fatalf("self loop insert failed")
	}
	if !g.HasEdge(a, a) {
		t.Fatalf("self loop missing")
	}
	b := NewBFS(g.NumNodes())
	if d := b.HopDistance(g, a, a, -1); d != 1 {
		t.Fatalf("HopDistance(a,a) = %d, want 1 (self loop)", d)
	}
}

func TestAttrs(t *testing.T) {
	g := New()
	v := g.AddNode("video")
	g.SetAttr(v, "age", 120)
	g.SetAttrString(v, "category", "Music")
	if got, ok := g.Attr(v, "age"); !ok || got != 120 {
		t.Fatalf("Attr(age) = %d,%v", got, ok)
	}
	cat, ok := g.Attr(v, "category")
	if !ok {
		t.Fatalf("category missing")
	}
	if LabelID(cat) != g.Interner().Lookup("Music") {
		t.Fatalf("categorical attr not interned consistently")
	}
	if _, ok := g.Attr(v, "rate"); ok {
		t.Fatalf("unset attribute should be absent")
	}
}

func TestNodesWithLabel(t *testing.T) {
	g := New()
	g.AddNode("A")
	g.AddNode("B")
	g.AddNode("A")
	as := g.NodesWithLabelName("A")
	if len(as) != 2 || as[0] != 0 || as[1] != 2 {
		t.Fatalf("NodesWithLabelName(A) = %v", as)
	}
	if got := g.NodesWithLabelName("missing"); got != nil {
		t.Fatalf("unknown label should yield nil, got %v", got)
	}
	// Index must refresh after adding nodes.
	g.AddNode("A")
	if got := g.NodesWithLabelName("A"); len(got) != 3 {
		t.Fatalf("label index stale after AddNode: %v", got)
	}
}

func TestClone(t *testing.T) {
	g := New()
	a, b := g.AddNode("A"), g.AddNode("B")
	g.AddEdge(a, b)
	g.SetAttr(a, "x", 7)
	c := g.Clone()
	c.AddEdge(b, a)
	c.SetAttr(a, "x", 9)
	if g.HasEdge(b, a) {
		t.Fatalf("clone mutation leaked into original (edges)")
	}
	if v, _ := g.Attr(a, "x"); v != 7 {
		t.Fatalf("clone mutation leaked into original (attrs): %d", v)
	}
	if !c.HasEdge(a, b) || !c.HasEdge(b, a) {
		t.Fatalf("clone missing edges")
	}
}

func TestBFSBounded(t *testing.T) {
	// path a -> b -> c -> d plus shortcut a -> c
	g := New()
	ids := make([]NodeID, 4)
	for i := range ids {
		ids[i] = g.AddNode("n")
	}
	g.AddEdge(ids[0], ids[1])
	g.AddEdge(ids[1], ids[2])
	g.AddEdge(ids[2], ids[3])
	g.AddEdge(ids[0], ids[2])

	b := NewBFS(g.NumNodes())
	dist := map[NodeID]int{}
	b.From(g, ids[0], Forward, -1, func(v NodeID, d int) bool {
		dist[v] = d
		return true
	})
	want := map[NodeID]int{ids[1]: 1, ids[2]: 1, ids[3]: 2}
	for v, d := range want {
		if dist[v] != d {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
	if _, ok := dist[ids[0]]; ok {
		t.Fatalf("source visited without a cycle")
	}

	// bounded: depth 1 must not reach d
	count := 0
	b.From(g, ids[0], Forward, 1, func(v NodeID, d int) bool {
		if d > 1 {
			t.Fatalf("visited at depth %d with bound 1", d)
		}
		count++
		return true
	})
	if count != 2 {
		t.Fatalf("bounded BFS visited %d nodes, want 2", count)
	}

	// backward from d
	got := map[NodeID]int{}
	b.From(g, ids[3], Backward, -1, func(v NodeID, d int) bool {
		got[v] = d
		return true
	})
	if got[ids[2]] != 1 || got[ids[1]] != 2 || got[ids[0]] != 2 {
		t.Fatalf("backward distances wrong: %v", got)
	}
}

func TestBFSCycleToSource(t *testing.T) {
	// a -> b -> c -> a
	g := New()
	a, b, c := g.AddNode("x"), g.AddNode("x"), g.AddNode("x")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a)
	bfs := NewBFS(g.NumNodes())
	if d := bfs.HopDistance(g, a, a, -1); d != 3 {
		t.Fatalf("cycle distance = %d, want 3", d)
	}
	if d := bfs.HopDistance(g, a, a, 2); d != -1 {
		t.Fatalf("bounded cycle distance = %d, want -1", d)
	}
}

func TestFromMulti(t *testing.T) {
	// two sources converging: s1 -> m, s2 -> m -> t
	g := New()
	s1, s2, m, tt := g.AddNode("n"), g.AddNode("n"), g.AddNode("n"), g.AddNode("n")
	g.AddEdge(s1, m)
	g.AddEdge(s2, m)
	g.AddEdge(m, tt)
	b := NewBFS(g.NumNodes())
	dist := map[NodeID]int{}
	b.FromMulti(g, []NodeID{s1, s2}, Forward, -1, func(v NodeID, d int) bool {
		dist[v] = d
		return true
	})
	if dist[s1] != 0 || dist[s2] != 0 || dist[m] != 1 || dist[tt] != 2 {
		t.Fatalf("multi-source distances: %v", dist)
	}
}

func TestHopDistanceUnreachable(t *testing.T) {
	g := New()
	a, b := g.AddNode("A"), g.AddNode("B")
	bfs := NewBFS(2)
	if d := bfs.HopDistance(g, a, b, -1); d != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d)
	}
	if bfs.Reachable(g, a, b) {
		t.Fatalf("Reachable = true for disconnected nodes")
	}
}

// reachBrute computes reachability by DFS for cross-checking.
func reachBrute(g *Graph, src NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{}
	var stack []NodeID
	push := func(v NodeID) {
		if !seen[v] {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	for _, w := range g.Out(src) {
		push(w)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Out(v) {
			push(w)
		}
	}
	return seen
}

func TestBFSAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		b := NewBFS(n)
		src := NodeID(rng.Intn(n))
		want := reachBrute(g, src)
		got := map[NodeID]bool{}
		b.From(g, src, Forward, -1, func(v NodeID, d int) bool {
			got[v] = true
			return true
		})
		for v := NodeID(0); int(v) < n; v++ {
			if want[v] != got[v] {
				t.Fatalf("trial %d: reachability of %d: brute=%v bfs=%v", trial, v, want[v], got[v])
			}
		}
	}
}

func TestSCCSimple(t *testing.T) {
	// Two 2-cycles joined by a bridge, plus an isolated node.
	g := New()
	a, b, c, d, e := g.AddNode("n"), g.AddNode("n"), g.AddNode("n"), g.AddNode("n"), g.AddNode("n")
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	g.AddEdge(d, c)
	res := SCC(g)
	if len(res.Comps) != 3 {
		t.Fatalf("got %d comps, want 3", len(res.Comps))
	}
	if res.CompOf[a] != res.CompOf[b] {
		t.Fatalf("a,b should share a component")
	}
	if res.CompOf[c] != res.CompOf[d] {
		t.Fatalf("c,d should share a component")
	}
	if res.CompOf[a] == res.CompOf[c] || res.CompOf[a] == res.CompOf[e] {
		t.Fatalf("distinct SCCs merged")
	}
	if !res.IsSingleton(g, res.CompOf[e]) {
		t.Fatalf("e should be a singleton")
	}
	if res.IsSingleton(g, res.CompOf[a]) {
		t.Fatalf("{a,b} is not a singleton")
	}
}

func TestSCCSelfLoopNotSingleton(t *testing.T) {
	g := New()
	a := g.AddNode("n")
	g.AddEdge(a, a)
	res := SCC(g)
	if res.IsSingleton(g, res.CompOf[a]) {
		t.Fatalf("self-loop node must not be a singleton SCC")
	}
}

// sccBrute computes "same SCC" via mutual reachability.
func sccBrute(g *Graph) [][]bool {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for i := 0; i < n; i++ {
		reach[i] = make([]bool, n)
		for v := range reachBrute(g, NodeID(i)) {
			reach[i][v] = true
		}
	}
	same := make([][]bool, n)
	for i := 0; i < n; i++ {
		same[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			same[i][j] = i == j || (reach[i][j] && reach[j][i])
		}
	}
	return same
}

func TestSCCAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(15)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		for i := 0; i < rng.Intn(3*n); i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		res := SCC(g)
		same := sccBrute(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := res.CompOf[i] == res.CompOf[j]
				if got != same[i][j] {
					t.Fatalf("trial %d: same-SCC(%d,%d) = %v, want %v", trial, i, j, got, same[i][j])
				}
			}
		}
	}
}

func TestRanks(t *testing.T) {
	// DAG: a -> b -> c, a -> c. Ranks: c=0, b=1, a=2.
	g := New()
	a, b, c := g.AddNode("n"), g.AddNode("n"), g.AddNode("n")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(a, c)
	r := Ranks(g)
	if r[c] != 0 || r[b] != 1 || r[a] != 2 {
		t.Fatalf("ranks = %v", r)
	}
}

func TestRanksCycle(t *testing.T) {
	// a -> {b <-> c} -> d : d rank 0, the SCC {b,c} rank 1, a rank 2.
	g := New()
	a, b, c, d := g.AddNode("n"), g.AddNode("n"), g.AddNode("n"), g.AddNode("n")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, b)
	g.AddEdge(c, d)
	r := Ranks(g)
	if r[d] != 0 || r[b] != 1 || r[c] != 1 || r[a] != 2 {
		t.Fatalf("ranks = %v", r)
	}
}

func TestMarkerEpochWrap(t *testing.T) {
	m := NewMarker(4)
	m.cur = ^uint32(0) - 1
	m.Reset()
	m.Mark(1)
	m.Reset() // wraps to 0 then forced to 1 with cleared stamps
	if m.Has(1) {
		t.Fatalf("mark survived epoch wrap")
	}
	m.Mark(2)
	if !m.Has(2) || m.Has(3) {
		t.Fatalf("marker broken after wrap")
	}
}

func TestIORoundTrip(t *testing.T) {
	g := New()
	a := g.AddNode("PM")
	b := g.AddNode("video label") // label with a space
	g.SetAttr(a, "age", 42)
	g.SetAttrString(b, "category", "Music")
	g.AddEdge(a, b)
	g.AddEdge(b, a)

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g2.NumNodes() != 2 || g2.NumEdges() != 2 {
		t.Fatalf("round trip size mismatch: %v", g2)
	}
	if g2.LabelName(0) != "PM" || g2.LabelName(1) != "video label" {
		t.Fatalf("labels: %q %q", g2.LabelName(0), g2.LabelName(1))
	}
	if v, ok := g2.Attr(0, "age"); !ok || v != 42 {
		t.Fatalf("attr age = %d,%v", v, ok)
	}
	if !g2.HasEdge(0, 1) || !g2.HasEdge(1, 0) {
		t.Fatalf("edges lost in round trip")
	}
	// Categorical attributes must survive semantically: the value maps to
	// "Music" under the *new* graph's interner.
	cat, ok := g2.Attr(1, "category")
	if !ok {
		t.Fatalf("category lost in round trip")
	}
	if LabelID(cat) != g2.Interner().Lookup("Music") {
		t.Fatalf("categorical attribute broken after round trip: %d", cat)
	}
	if !g2.IsCategorical("category") || g2.IsCategorical("age") {
		t.Fatalf("categorical key tracking lost in round trip")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"node",                // missing label
		"edge 0 1",            // out of range
		"node A\nedge 0",      // malformed edge
		"node A\nedge 0 x",    // non-numeric endpoint
		"frobnicate",          // unknown directive
		"node A key",          // attribute without '='
		"node A k=notanumber", // bad value
		"node A\nedge 0 5",    // endpoint out of range
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
}

func TestDOT(t *testing.T) {
	g := New()
	a, b := g.AddNode("A"), g.AddNode("B")
	g.AddEdge(a, b)
	var buf bytes.Buffer
	if err := DOT(&buf, g, "t"); err != nil {
		t.Fatalf("DOT: %v", err)
	}
	s := buf.String()
	for _, frag := range []string{"digraph", `label="A"`, "n0 -> n1"} {
		if !bytes.Contains([]byte(s), []byte(frag)) {
			t.Fatalf("DOT output missing %q:\n%s", frag, s)
		}
	}
}

func TestBuildFromLabeledEdges(t *testing.T) {
	g := BuildFromLabeledEdges(
		[]string{"person", "person"},
		[]LabeledEdge{
			{From: 0, To: 1, Label: "knows"},
			{From: 1, To: 0, Label: ""},
		},
	)
	// 2 original + 1 dummy node; edges 0->2, 2->1, 1->0.
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("expanded graph wrong size: %v", g)
	}
	if g.LabelName(2) != "knows" {
		t.Fatalf("dummy label = %q", g.LabelName(2))
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("expanded edges wrong")
	}
}

func TestComputeStats(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("A")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	s := g.ComputeStats()
	if s.Nodes != 3 || s.Edges != 3 || s.Labels != 2 || s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDeg != 1.0 {
		t.Fatalf("avg degree = %v", s.AvgDeg)
	}
}

func TestInsertRemoveSortedQuick(t *testing.T) {
	f := func(xs []int16) bool {
		var s []NodeID
		present := map[NodeID]bool{}
		for _, x := range xs {
			v := NodeID(x)
			var ins bool
			s, ins = insertSorted(s, v)
			if ins == present[v] {
				return false
			}
			present[v] = true
		}
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				return false
			}
		}
		return len(s) == len(present)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphLabelIndexInvalidation: AddNode must invalidate the lazily
// built index (under labelMu) so a later read sees the new node.
func TestGraphLabelIndexInvalidation(t *testing.T) {
	g := New()
	g.AddNode("A")
	if got := len(g.NodesWithLabelName("A")); got != 1 {
		t.Fatalf("initial index: %d nodes", got)
	}
	g.AddNode("A")
	if got := len(g.NodesWithLabelName("A")); got != 2 {
		t.Fatalf("index not invalidated by AddNode: %d nodes", got)
	}
}
