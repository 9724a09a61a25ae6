package simulation

// Graph simulation engine (Section II-A; algorithms after Henzinger,
// Henzinger & Kopke [21] and Fan et al. [16]). Candidate sets are seeded
// from the graph's label index and the node predicates, then refined with
// per-(edge, node) support counters and a removal worklist, giving the
// O(|Qs|²+|Qs||G|+|G|²)-class behaviour the paper quotes for Match.
//
// The working state is dense: membership is one bitset row per pattern
// node (internal/bitset), support counters are one flat int32 array
// indexed [edge·n + node], and everything is carved from the query's
// Scratch arenas so pooled callers allocate nothing but the Result.

import (
	"context"

	"graphviews/internal/graph"
	"graphviews/internal/par"
	"graphviews/internal/pattern"
)

// candidates seeds the match sets: nodes with the right label that satisfy
// the node's predicates. When requireOut is true, nodes whose pattern node
// has out-edges must themselves have out-edges (a cheap prune that is only
// valid for plain simulation, where every pattern edge maps to one graph
// edge). Each set is preallocated at the label partition's size — the
// upper bound on its population — so the filter loop never reallocates.
func candidates(g graph.Reader, p *pattern.Pattern, requireOut bool) [][]graph.NodeID {
	cands := make([][]graph.NodeID, len(p.Nodes))
	for u := range p.Nodes {
		cn := pattern.CompileNode(&p.Nodes[u], g)
		needOut := requireOut && len(p.OutEdges(u)) > 0
		cands[u] = filterCandidates(g, g.NodesWithLabel(cn.Label), &cn, needOut)
	}
	return cands
}

// filterCandidates applies a compiled node condition to one slice of a
// label partition: the whole partition, or one shard's (scanned with no
// lock and no merged index; CandidateSeeds merges the per-shard lists
// back together). It is the single filter both seeding paths share, so
// the two can never diverge.
func filterCandidates(g graph.Reader, labeled []graph.NodeID, cn *pattern.CompiledNode, needOut bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(labeled))
	if !cn.HasPreds() {
		// Label-only node condition: the partition itself is the
		// candidate set (modulo the out-degree prune).
		if !needOut {
			return append(out, labeled...)
		}
		for _, v := range labeled {
			if g.OutDegree(v) != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	for _, v := range labeled {
		if needOut && g.OutDegree(v) == 0 {
			continue
		}
		if cn.Matches(g, v) {
			out = append(out, v)
		}
	}
	return out
}

// Options carries what an evaluation may be given besides the graph and
// the pattern. The zero value is the sequential setting: background
// context, one worker, a transient scratch, candidates computed from the
// label index. Only the Engine facade and code forwarding an Options it
// was handed fill the fields.
type Options struct {
	// Ctx is observed between the enumeration chunks of a bounded
	// pattern; nil means context.Background(). A cancelled Ctx may leave
	// the result partial: callers must discard it when their own context
	// reports cancellation (view.Materialize does).
	Ctx context.Context
	// Workers bounds the match-set enumeration of bounded patterns — one
	// forward BFS per matched source node, the step that records the
	// path lengths reused as the distance index I(V). The refinement
	// fixpoints are sequential, so results are identical at any count.
	// 0 means one worker, a negative value GOMAXPROCS.
	Workers int
	// Pool supplies the working state (bitset rows, counters, worklists)
	// and takes it back when the call completes, so steady-state callers
	// stop allocating per query; nil uses a transient Scratch. The Result
	// never aliases scratch memory.
	Pool *ScratchPool
	// Seeds are per-node candidate sets (sorted, duplicate free) that
	// must be supersets of the true match sets: CandidateSeeds computes
	// them once per view family, and incremental view maintenance
	// restarts refinement from a previous result's Sim. They are read,
	// never written or retained. nil computes them from the label index.
	Seeds [][]graph.NodeID
}

// Simulate computes Qs(G): graph simulation for plain patterns, bounded
// simulation (Qb(G), bounded.go) otherwise.
func Simulate(g graph.Reader, p *pattern.Pattern, o Options) *Result {
	sc := o.Pool.Get()
	defer o.Pool.Put(sc)
	plain := p.IsPlain()
	cands := o.Seeds
	if cands == nil {
		cands = candidates(g, p, plain)
	}
	if !plain {
		return simulateBoundedSeeded(o.Ctx, g, p, cands, par.OptionWorkers(o.Workers), sc)
	}
	return simulateSeeded(g, p, cands, sc)
}

// simulateSeeded is the plain fixpoint over scratch-backed dense state.
func simulateSeeded(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, sc *Scratch) *Result {
	n := g.NumNodes()
	inSim := sc.seedRows(cands, n)
	if inSim == nil {
		return emptyResult(p)
	}

	// supp[ei·n + v]: for edge ei=(u,u'), the number of successors of v
	// that are currently in sim(u'). Only meaningful for v ∈ sim(u).
	supp := sc.counters(len(p.Edges) * n)
	work := sc.takeWork()

	// Phase 1: compute all supports against the full candidate sets.
	// Removals must not start before every counter is in place, or the
	// worklist decrements would double-count.
	for u := range p.Nodes {
		for _, ei := range p.OutEdges(u) {
			tgt := inSim.Row(p.Edges[ei].To)
			row := supp[ei*n : (ei+1)*n]
			for _, v := range cands[u] {
				var c int32
				for _, w := range g.Out(v) {
					if tgt.Get(int(w)) {
						c++
					}
				}
				row[v] = c
			}
		}
	}
	// Phase 2: seed the worklist with unsupported candidates.
	for u := range p.Nodes {
		outs := p.OutEdges(u)
		for _, v := range cands[u] {
			for _, ei := range outs {
				if supp[ei*n+int(v)] == 0 {
					inSim.Row(u).Clear(int(v))
					work = append(work, removal{u, v})
					break
				}
			}
		}
	}

	// Worklist: when v leaves sim(u), any x ∈ pre(v) in sim(w) for an edge
	// (w,u) loses one unit of support.
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range p.InEdges(r.u) {
			src := p.Edges[ei].From
			srcRow := inSim.Row(src)
			row := supp[ei*n : (ei+1)*n]
			for _, x := range g.In(r.v) {
				if !srcRow.Get(int(x)) {
					continue
				}
				row[x]--
				if row[x] == 0 {
					srcRow.Clear(int(x))
					work = append(work, removal{src, x})
				}
			}
		}
	}
	sc.giveWork(work)

	return sc.assemble(g, p, inSim)
}
