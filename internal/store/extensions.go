package store

// Persisting materialized view extensions alongside the graph. A
// checkpoint that includes an extensions part captures V(G) at exactly
// the manifest's write clock, so a restart thaws graph + extensions
// together and recovery replays only the WAL tail through delta
// propagation — no rematerialization (the paper's cache stays warm
// across crashes). The serialization is definition-independent: each
// view is stored under its name plus the canonical fingerprint of its
// pattern (the DSL rendering, pattern.Pattern.String), and at boot the
// data binds against the serving view set only when both agree —
// a renamed, edited or reordered view set falls back cleanly to
// rematerialization.

import (
	"fmt"

	"graphviews/internal/graph"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// maxExtCount bounds the serialized view count against corruption.
const maxExtCount = 1 << 16

// ExtensionData is one view extension in storage-neutral form: the
// match relation of simulation.Result keyed by the view's name and its
// pattern's canonical fingerprint.
type ExtensionData struct {
	Name        string
	Fingerprint string
	Matched     bool
	Sim         [][]graph.NodeID
	Edges       []simulation.EdgeMatches
}

// snapshotExtensionData projects a published extension family into its
// storage form. The slices alias x (published extensions are immutable).
func snapshotExtensionData(x *view.Extensions) []ExtensionData {
	out := make([]ExtensionData, len(x.Exts))
	for i, e := range x.Exts {
		out[i] = ExtensionData{
			Name:        e.Def.Name,
			Fingerprint: e.Def.Pattern.String(),
			Matched:     e.Result.Matched,
			Sim:         e.Result.Sim,
			Edges:       e.Result.Edges,
		}
	}
	return out
}

// writeExtsPart emits one extensions part. Per view: meta (name and
// fingerprint), the matched bit, sim sets as a length table plus one
// concatenated column, and the edge match sets as length tables plus
// concatenated pair and distance columns. Length -1 marks a nil slice,
// so a round trip is exact (reflect.DeepEqual) on the match relation.
func writeExtsPart(pw *partWriter, seq uint64, exts []ExtensionData) {
	pw.header(roleExts, seq)
	pw.pu64(ptagExtCount, uint64(len(exts)))
	for i := range exts {
		e := &exts[i]
		pw.pstrings(ptagExtMeta, []string{e.Name, e.Fingerprint})
		matched := uint64(0)
		if e.Matched {
			matched = 1
		}
		pw.pu64(ptagExtMatched, matched)

		simLens := make([]int32, len(e.Sim))
		var simAll []graph.NodeID
		for j, row := range e.Sim {
			if row == nil {
				simLens[j] = -1
				continue
			}
			simLens[j] = int32(len(row))
			simAll = append(simAll, row...)
		}
		putPI32s(pw, ptagExtSimLens, simLens)
		putPI32s(pw, ptagExtSim, simAll)

		pairLens := make([]int32, len(e.Edges))
		distLens := make([]int32, len(e.Edges))
		var pairsAll []graph.NodeID
		var distsAll []int32
		for j := range e.Edges {
			em := &e.Edges[j]
			if em.Pairs == nil {
				pairLens[j] = -1
			} else {
				pairLens[j] = int32(len(em.Pairs))
				for _, p := range em.Pairs {
					pairsAll = append(pairsAll, p.Src, p.Dst)
				}
			}
			if em.Dists == nil {
				distLens[j] = -1
			} else {
				distLens[j] = int32(len(em.Dists))
				distsAll = append(distsAll, em.Dists...)
			}
		}
		putPI32s(pw, ptagExtPairLens, pairLens)
		putPI32s(pw, ptagExtPairs, pairsAll)
		putPI32s(pw, ptagExtDistLens, distLens)
		putPI32s(pw, ptagExtDists, distsAll)
	}
}

// readExtsPart decodes an extensions part. Concatenated columns are
// re-sliced with capped capacity, so a later append through a decoded
// row reallocates instead of writing into its neighbour.
func readExtsPart(pr *partReader) ([]ExtensionData, error) {
	count := pr.ru64(ptagExtCount)
	if pr.err == nil && count > maxExtCount {
		pr.err = fmt.Errorf("store: %d serialized extensions exceeds the %d cap", count, maxExtCount)
	}
	if pr.err != nil {
		return nil, pr.err
	}
	exts := make([]ExtensionData, 0, count)
	for v := uint64(0); v < count; v++ {
		meta := pr.rstrings(ptagExtMeta)
		if pr.err == nil && len(meta) != 2 {
			pr.err = fmt.Errorf("store: extension %d meta has %d fields, want 2", v, len(meta))
		}
		if pr.err != nil {
			return nil, pr.err
		}
		e := ExtensionData{Name: meta[0], Fingerprint: meta[1], Matched: pr.ru64(ptagExtMatched) == 1}

		simLens := readPI32s[int32](pr, ptagExtSimLens)
		simAll := readPI32s[graph.NodeID](pr, ptagExtSim)
		e.Sim = make([][]graph.NodeID, len(simLens))
		off := 0
		for j, l := range simLens {
			if pr.err != nil {
				return nil, pr.err
			}
			if l < 0 {
				continue
			}
			if off+int(l) > len(simAll) {
				return nil, fmt.Errorf("store: extension %d sim sets overrun their column", v)
			}
			e.Sim[j] = simAll[off : off+int(l) : off+int(l)]
			off += int(l)
		}
		if pr.err == nil && off != len(simAll) {
			return nil, fmt.Errorf("store: extension %d sim column has %d unclaimed entries", v, len(simAll)-off)
		}

		pairLens := readPI32s[int32](pr, ptagExtPairLens)
		pairsAll := readPI32s[graph.NodeID](pr, ptagExtPairs)
		distLens := readPI32s[int32](pr, ptagExtDistLens)
		distsAll := readPI32s[int32](pr, ptagExtDists)
		if pr.err != nil {
			return nil, pr.err
		}
		if len(pairLens) != len(distLens) {
			return nil, fmt.Errorf("store: extension %d has %d pair tables but %d dist tables", v, len(pairLens), len(distLens))
		}
		if len(pairsAll)%2 != 0 {
			return nil, fmt.Errorf("store: extension %d pair column has odd length", v)
		}
		e.Edges = make([]simulation.EdgeMatches, len(pairLens))
		poff, doff := 0, 0
		for j := range e.Edges {
			if l := pairLens[j]; l >= 0 {
				if poff+int(l)*2 > len(pairsAll) {
					return nil, fmt.Errorf("store: extension %d match pairs overrun their column", v)
				}
				pairs := make([]simulation.Pair, l)
				for i := range pairs {
					pairs[i] = simulation.Pair{Src: pairsAll[poff+i*2], Dst: pairsAll[poff+i*2+1]}
				}
				e.Edges[j].Pairs = pairs
				poff += int(l) * 2
			}
			if l := distLens[j]; l >= 0 {
				if doff+int(l) > len(distsAll) {
					return nil, fmt.Errorf("store: extension %d distances overrun their column", v)
				}
				e.Edges[j].Dists = distsAll[doff : doff+int(l) : doff+int(l)]
				doff += int(l)
			}
		}
		if poff != len(pairsAll) || doff != len(distsAll) {
			return nil, fmt.Errorf("store: extension %d edge columns have unclaimed entries", v)
		}
		exts = append(exts, e)
	}
	if err := pr.done(); err != nil {
		return nil, err
	}
	return exts, nil
}

// BaseExtensions binds the checkpoint's serialized extensions to the
// serving view set: every definition must be matched by name, its
// pattern by canonical fingerprint, and the stored match relation by
// shape. It returns ok=false — recover by rematerializing — when the
// checkpoint carried no extensions or the view set changed since they
// were written. The returned extensions are consistent with Base() at
// BaseVersion(); the caller must thaw Base() into the graph it
// maintains, then replay Tail() through delta propagation.
func (s *Store) BaseExtensions(vs *view.Set) (*view.Extensions, bool) {
	if vs == nil || len(s.baseExts) == 0 || len(s.baseExts) != len(vs.Defs) {
		return nil, false
	}
	byName := make(map[string]*ExtensionData, len(s.baseExts))
	for i := range s.baseExts {
		byName[s.baseExts[i].Name] = &s.baseExts[i]
	}
	exts := make([]*view.Extension, len(vs.Defs))
	for i, d := range vs.Defs {
		ed := byName[d.Name]
		if ed == nil || ed.Fingerprint != d.Pattern.String() {
			return nil, false
		}
		if len(ed.Sim) != len(d.Pattern.Nodes) || len(ed.Edges) != len(d.Pattern.Edges) {
			return nil, false
		}
		exts[i] = &view.Extension{
			Def: d,
			Result: &simulation.Result{
				Pattern: d.Pattern,
				Matched: ed.Matched,
				Sim:     ed.Sim,
				Edges:   ed.Edges,
			},
		}
	}
	return &view.Extensions{Set: vs, Exts: exts}, true
}
