package view

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"graphviews/internal/pattern"
)

func TestExtensionsRoundTrip(t *testing.T) {
	g, vs := fig1()
	x := seqMaterialize(g, vs)
	var buf bytes.Buffer
	if err := WriteExtensions(&buf, x); err != nil {
		t.Fatalf("WriteExtensions: %v", err)
	}
	x2, err := ReadExtensions(&buf, vs)
	if err != nil {
		t.Fatalf("ReadExtensions: %v", err)
	}
	if len(x2.Exts) != len(x.Exts) {
		t.Fatalf("view count mismatch")
	}
	for i := range x.Exts {
		if !x.Exts[i].Result.Equal(x2.Exts[i].Result) {
			t.Fatalf("view %d diverged after round trip:\n%v\nvs\n%v",
				i, x.Exts[i].Result, x2.Exts[i].Result)
		}
		// Sim sets preserved too.
		for u := range x.Exts[i].Result.Sim {
			a, b := x.Exts[i].Result.Sim[u], x2.Exts[i].Result.Sim[u]
			if len(a) != len(b) {
				t.Fatalf("sim sets differ for view %d node %d", i, u)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("sim sets differ for view %d node %d", i, u)
				}
			}
		}
	}
	if x2.TotalEdges() != x.TotalEdges() {
		t.Fatalf("TotalEdges mismatch: %d vs %d", x.TotalEdges(), x2.TotalEdges())
	}
}

func TestExtensionsUnmatchedRoundTrip(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 5, []string{"A"}) // only A labels
	_, vs := fig1()                                                 // PM/DBA/PRG views: no matches
	x := seqMaterialize(g, vs)
	var buf bytes.Buffer
	if err := WriteExtensions(&buf, x); err != nil {
		t.Fatalf("WriteExtensions: %v", err)
	}
	x2, err := ReadExtensions(&buf, vs)
	if err != nil {
		t.Fatalf("ReadExtensions: %v", err)
	}
	for i := range x2.Exts {
		if x2.Exts[i].Result.Matched {
			t.Fatalf("unmatched view became matched")
		}
	}
}

func TestReadExtensionsErrors(t *testing.T) {
	_, vs := fig1()
	cases := []string{
		"view WRONG matched=1",          // name mismatch
		"sim 0 1",                       // sim before view
		"view V1 matched=1\nsim 99 0",   // bad node index
		"view V1 matched=1\nematch 0 1", // short ematch
		"view V1 matched=1\nwhat 0",     // unknown directive
		"view V1 matched=1",             // missing V2
		"view V1 matched=1\nview V2 matched=1\nview V2 matched=1", // too many
		"view V1 matched=1\nsim 0 xyz\nview V2 matched=1",         // bad id
	}
	for _, c := range cases {
		if _, err := ReadExtensions(strings.NewReader(c), vs); err == nil {
			t.Errorf("ReadExtensions(%q) succeeded, want error", c)
		}
	}
}

// TestReadExtensionsUnsortedPairs: hand-written files with out-of-order
// pairs are re-sorted on load so Has/Dist lookups work.
func TestReadExtensionsUnsortedPairs(t *testing.T) {
	p := pattern.New("V")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	vs := NewSet(Define("V", p))
	src := `
view V matched=1
sim 0 5 3
sim 1 9
ematch 0 5 9 1
ematch 0 3 9 1
`
	x, err := ReadExtensions(strings.NewReader(src), vs)
	if err != nil {
		t.Fatalf("ReadExtensions: %v", err)
	}
	em := &x.Exts[0].Result.Edges[0]
	if !em.Has(3, 9) || !em.Has(5, 9) {
		t.Fatalf("lookups broken on unsorted input: %v", em.Pairs)
	}
	if em.Pairs[0].Src != 3 {
		t.Fatalf("pairs not re-sorted: %v", em.Pairs)
	}
}
