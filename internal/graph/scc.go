package graph

// Strongly connected components via an iterative Tarjan algorithm, plus the
// condensation DAG. The MatchJoin optimization of Section III computes node
// ranks over the SCC graph of the *pattern*, but patterns convert to data
// graphs (pattern.AsGraph), so the implementation lives here and is reused.

// SCCResult holds the strongly connected components of a graph.
type SCCResult struct {
	// Comps lists the components; each is a non-empty slice of nodes.
	Comps [][]NodeID
	// CompOf maps each node to the index of its component in Comps.
	CompOf []int32
}

// SCC computes strongly connected components with an iterative Tarjan
// traversal (no recursion, safe for deep graphs).
func SCC(g Reader) *SCCResult {
	n := g.NumNodes()
	res := &SCCResult{CompOf: make([]int32, n)}
	for i := range res.CompOf {
		res.CompOf[i] = -1
	}

	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}

	var stack []NodeID // Tarjan stack
	var next int32     // next DFS index

	// Explicit DFS frames: node + position in its adjacency list.
	type frame struct {
		v  NodeID
		ei int
	}
	var frames []frame

	for root := NodeID(0); int(root) < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			out := g.Out(v)
			for f.ei < len(out) {
				w := out[f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if lowlink[v] == index[v] {
				comp := make([]NodeID, 0, 2)
				ci := int32(len(res.Comps))
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					res.CompOf[w] = ci
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				res.Comps = append(res.Comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
		}
	}
	return res
}

// dag returns the condensation DAG: one node per component, an edge
// (i, j) when some edge of g crosses from component i to component j.
// Edges are deduplicated.
func (r *SCCResult) dag(g Reader) [][]int32 {
	adj := make([][]int32, len(r.Comps))
	seen := make(map[int64]struct{})
	g.Edges(func(u, v NodeID) bool {
		cu, cv := r.CompOf[u], r.CompOf[v]
		if cu == cv {
			return true
		}
		key := int64(cu)<<32 | int64(uint32(cv))
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			adj[cu] = append(adj[cu], cv)
		}
		return true
	})
	return adj
}

// IsSingleton reports whether component ci is a single node with no
// self-loop (a "singleton SCC" in the paper's Lemma 2 terminology).
func (r *SCCResult) IsSingleton(g Reader, ci int32) bool {
	comp := r.Comps[ci]
	if len(comp) != 1 {
		return false
	}
	v := comp[0]
	return !g.HasEdge(v, v)
}

// heights computes the height of every component over the condensation
// DAG cond (as returned by dag): 0 for components with no successors,
// otherwise max{1 + height of successor}. This is the rank of Section
// III at component granularity; Ranks projects it onto nodes.
func (r *SCCResult) heights(cond [][]int32) []int {
	nc := len(r.Comps)
	height := make([]int, nc)
	done := make([]bool, nc)

	var visit func(c int32) int
	visit = func(c int32) int {
		if done[c] {
			return height[c]
		}
		h := 0
		for _, d := range cond[c] {
			if dh := visit(d) + 1; dh > h {
				h = dh
			}
		}
		height[c] = h
		done[c] = true
		return h
	}
	for c := int32(0); int(c) < nc; c++ {
		visit(c)
	}
	return height
}

// Ranks computes the rank of every node per Section III of the paper:
// r(u) = 0 if u's SCC is a leaf of the condensation DAG, and otherwise
// r(u) = max{1 + r(u')} over condensation successors. All nodes of one SCC
// share a rank.
func Ranks(g Reader) []int {
	scc := SCC(g)
	rank := scc.heights(scc.dag(g))
	out := make([]int, g.NumNodes())
	for v := range out {
		out[v] = rank[scc.CompOf[v]]
	}
	return out
}
