package main

import (
	"reflect"
	"testing"

	gv "graphviews"
)

// small shrinks a workload to smoke-test size.
func small(w Workload) Workload {
	w.Nodes, w.Edges = 2000, 8000
	return w
}

// checkEmitted asserts that got holds every metric of want exactly once,
// with the unit BENCHMARK.json gives it and a finite value.
func checkEmitted(t *testing.T, got []Metric, want []specMetric) {
	t.Helper()
	seen := make(map[string]int)
	for _, m := range got {
		seen[m.Name]++
	}
	for _, sm := range want {
		if seen[sm.Name] != 1 {
			t.Errorf("metric %s emitted %d times, want once", sm.Name, seen[sm.Name])
			continue
		}
		for _, m := range got {
			if m.Name != sm.Name {
				continue
			}
			if m.Unit != sm.Unit {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, m.Unit, sm.Unit)
			}
			if !finite(m.Value) {
				t.Errorf("metric %s = %v, want a finite value", m.Name, m.Value)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(got), len(want))
	}
}

// TestSmoke runs every workload once at 2k/8k for a second, untraced
// against an in-process server and traced, and checks that each metric
// BENCHMARK.json names comes out and that no operation fails.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.Name || sp.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the harness",
				i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.Name, w.Why)
		}
		w := small(w)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := runUntraced(w, 1, 1, inprocLauncher{}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: %d of %d ops failed: %v", res.Failed, res.Attempted, res.Problems)
			}
			checkEmitted(t, res.Metrics, sp.EndToEnd)

			tr, _, err := runTraced(w, 1, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if tr.Failed != 0 || tr.Attempted == 0 {
				t.Errorf("traced: %d of %d ops failed: %v", tr.Failed, tr.Attempted, tr.Problems)
			}
			checkEmitted(t, tr.Metrics, sp.PerLayer)
		})
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g (beyond p99: %d)", c.n, got, c.want, beyond(c.n, 99))
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{Name: "serve.query_handler", Start: 0, End: 10}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 10},
		{"sequential children after the parent", []span{{Start: 10, End: 13}, {Start: 13, End: 17}}, 3},
		{"overlapping children count once", []span{{Start: 20, End: 24}, {Start: 22, End: 26}}, 4},
		{"a child inside another", []span{{Start: 20, End: 28}, {Start: 22, End: 24}}, 2},
		{"children longer than the parent", []span{{Start: 10, End: 30}}, 0},
	} {
		if got := selfNs(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}

	tr := newTracer()
	root := tr.timed("root", -1, 1, func() {})
	tr.timed("child", root, 1, func() {})
	tr.spans[root].Start, tr.spans[root].End = 0, 100
	tr.spans[1].Start, tr.spans[1].End = 100, 130
	if got := tr.selfTimes("root"); len(got) != 1 || got[0] != 70 {
		t.Errorf("selfTimes = %v, want [70]", got)
	}
}

// TestUpdatePartition checks that the two clients' updates never touch
// the same edge, that deletes hit edges that exist, and that therefore
// the final graph does not depend on the interleaving.
func TestUpdatePartition(t *testing.T) {
	w := small(workloads[3])
	in, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newSchedule(in, 0), newSchedule(in, 1)
	var batches [numClients][][]gv.EdgeUpdate
	for i := 0; i < 300; i++ {
		batches[0] = append(batches[0], a.batch())
		batches[1] = append(batches[1], b.batch())
	}
	for id, bs := range batches {
		g := in.Graph.Clone()
		for _, batch := range bs {
			if len(batch) != w.Batch {
				t.Fatalf("batch of %d, want %d", len(batch), w.Batch)
			}
			for _, up := range batch {
				if owner(up.From) != id {
					t.Fatalf("client %d drew edge %d->%d of client %d's partition", id, up.From, up.To, owner(up.From))
				}
				if up.Delete && !g.RemoveEdge(up.From, up.To) {
					t.Fatalf("client %d deletes %d->%d, which does not exist", id, up.From, up.To)
				}
				if !up.Delete {
					g.AddEdge(up.From, up.To)
				}
			}
		}
	}
	// Two interleavings, one final graph.
	g1, g2 := in.Graph.Clone(), in.Graph.Clone()
	one, two := &Inputs{Graph: g1}, &Inputs{Graph: g2}
	one.applyToModel(batches[0])
	one.applyToModel(batches[1])
	for i := range batches[0] {
		two.applyToModel(batches[1][i : i+1])
		two.applyToModel(batches[0][i : i+1])
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("interleavings end with %d and %d edges", g1.NumEdges(), g2.NumEdges())
	}
	g1.Edges(func(u, v gv.NodeID) bool {
		if !g2.HasEdge(u, v) {
			t.Errorf("edge %d->%d only in one interleaving", u, v)
			return false
		}
		return true
	})
}

func TestScheduleDeterminism(t *testing.T) {
	w := small(workloads[2])
	draw := func(seed int64) []op {
		in, err := generate(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := newSchedule(in, 1)
		var ops []op
		for i := 0; i < 200; i++ {
			ops = append(ops, s.next(w.Mix))
		}
		return ops
	}
	first, again, other := draw(5), draw(5), draw(6)
	if !reflect.DeepEqual(first, again) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(first, other) {
		t.Error("two seeds gave the same schedule")
	}
	publishes := 0
	for _, o := range first {
		if o.Kind == opPublish {
			publishes++
		}
	}
	if want := 100 / w.PublishEvery; publishes != want {
		t.Errorf("%d publishes in 100 updates, want %d", publishes, want)
	}

	a, _ := generate(w, 5)
	b, _ := generate(w, 6)
	if !reflect.DeepEqual(a.Bodies, b.Bodies) {
		t.Error("the query shapes depend on the seed; they are meant to be fixed per workload")
	}
	if a.Graph.NumEdges() == 0 || reflect.DeepEqual(a.Graph.Out(0), b.Graph.Out(0)) && reflect.DeepEqual(a.Graph.Out(1), b.Graph.Out(1)) {
		t.Error("two seeds gave the same data graph")
	}
}
