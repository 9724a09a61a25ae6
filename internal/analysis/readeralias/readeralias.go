// Package readeralias enforces the graph.Reader aliasing contract
// (internal/graph/reader.go): the slices returned by Out, In,
// NodesWithLabel and NodesWithLabelName and the map returned by Attrs
// alias backend storage. Callers must treat them as immutable — one
// append or in-place sort through such a slice corrupts the backend (or
// a neighbour's adjacency list on *Sharded, whose lists share one flat
// array) and silently breaks the byte-identical-across-backends
// guarantee the view-answering correctness rests on.
//
// Flagged, for any value v obtained (directly or through local
// variables) from a Reader accessor:
//
//   - append(v, ...) — may write into the backend's spare capacity;
//   - passing v to a mutating sort/slices function (Sort, SortFunc,
//     Slice, Reverse, Compact, Delete, Insert, ...);
//   - writing through it: v[i] = x, v[i]++, delete(v, k), clear(v);
//   - retaining it in a struct field (assignment or composite literal)
//     — the alias outlives the call and breaks when the graph mutates.
//
// The taint tracking is source-ordered, so the copy idiom clears a
// variable (`xs = append([]graph.NodeID(nil), xs...)` rebinds xs to
// owned storage) while `xs = append(xs, w)` is caught before the
// rebinding. Remedies: copy first (or graph.AttrsCopy for attribute
// maps), or — when ownership is genuinely transferred — annotate the
// binding //gvcheck:owns <why>.
package readeralias

import (
	"go/ast"
	"go/types"
	"strings"

	"graphviews/internal/analysis"
)

// Analyzer is the readeralias analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "readeralias",
	Doc: "flags mutation, append, sorting or field-retention of slices/maps " +
		"returned by graph.Reader accessors (Out/In/NodesWithLabel/Attrs), " +
		"which alias backend storage",
	Run: run,
}

// accessors are the Reader methods whose results alias backend storage.
var accessors = map[string]bool{
	"Out":                true,
	"In":                 true,
	"NodesWithLabel":     true,
	"NodesWithLabelName": true,
	"Attrs":              true,
}

// sortMutators are the functions of package sort and package slices
// that reorder or rewrite their first argument in place.
var sortMutators = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Reverse": true,
	"Compact": true, "CompactFunc": true, "Delete": true, "DeleteFunc": true,
	"Insert": true, "Replace": true,
}

// graphPackage reports whether path is the graph package (the real
// graphviews/internal/graph, or any .../graph fixture in testdata).
func graphPackage(path string) bool {
	return path == "graph" || strings.HasSuffix(path, "/graph")
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
}

// readerCall reports whether e is a direct Reader accessor call,
// returning the method name.
func readerCall(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn, _, ok := pass.MethodCall(call)
	if !ok || !accessors[fn.Name()] || fn.Pkg() == nil || !graphPackage(fn.Pkg().Path()) {
		return "", false
	}
	// Defensive: only the alias-returning signatures count.
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 || !analysis.IsSliceOrMap(sig.Results().At(0).Type()) {
		return "", false
	}
	return fn.Name(), true
}

// checkFunc runs the ordered taint analysis over one function body
// (closures included — they share the enclosing bindings).
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	tainted := make(map[types.Object]string) // object → accessor method

	// taintOf resolves an expression to the accessor it aliases under
	// the current state: a direct accessor call, a tainted variable, or
	// a re-slice of either.
	var taintOf func(e ast.Expr) (string, bool)
	taintOf = func(e ast.Expr) (string, bool) {
		e = analysis.Unparen(e)
		if m, ok := readerCall(pass, e); ok {
			return m, true
		}
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				if m, ok := tainted[obj]; ok {
					return m, true
				}
			}
		case *ast.SliceExpr:
			return taintOf(x.X) // v[a:b] still aliases the backend
		}
		return "", false
	}

	remedy := func(method string) string {
		if method == "Attrs" {
			return "use graph.AttrsCopy or annotate //gvcheck:owns"
		}
		return "copy it first (append([]T(nil), s...)) or annotate //gvcheck:owns"
	}

	objOf := func(id *ast.Ident) types.Object {
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}

	w := &analysis.OrderedWalker{
		Expr: func(e ast.Expr) {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				if lit, isLit := e.(*ast.CompositeLit); isLit {
					if _, isStruct := pass.StructLit(lit); isStruct {
						for _, el := range lit.Elts {
							v := el
							if kv, isKV := el.(*ast.KeyValueExpr); isKV {
								v = kv.Value
							}
							if m, bad := taintOf(v); bad && !pass.HasDirective(v.Pos(), "owns", "") {
								pass.Reportf(v.Pos(),
									"struct literal retains the result of Reader.%s, which aliases backend storage; %s",
									m, remedy(m))
							}
						}
					}
				}
				return
			}
			if name, ok := pass.BuiltinCall(call); ok && len(call.Args) > 0 {
				switch name {
				case "append", "delete", "clear":
					if m, bad := taintOf(call.Args[0]); bad {
						pass.Reportf(call.Pos(),
							"%s on the result of Reader.%s, which aliases backend storage; %s",
							name, m, remedy(m))
					}
				}
				return
			}
			if pkgPath, name, ok := pass.PkgFuncCall(call); ok &&
				(pkgPath == "sort" || pkgPath == "slices") && sortMutators[name] && len(call.Args) > 0 {
				if m, bad := taintOf(call.Args[0]); bad {
					pass.Reportf(call.Pos(),
						"%s.%s mutates the result of Reader.%s in place, which aliases backend storage; %s",
						pkgPath, name, m, remedy(m))
				}
			}
		},
		Bind: func(lhs *ast.Ident, rhs ast.Expr) {
			obj := objOf(lhs)
			if obj == nil || lhs.Name == "_" {
				return
			}
			if rhs != nil && !pass.HasDirective(rhs.Pos(), "owns", "") {
				if m, ok := taintOf(rhs); ok {
					tainted[obj] = m
					return
				}
			}
			delete(tainted, obj)
		},
		Store: func(lhs ast.Expr, rhs ast.Expr) {
			if ix, ok := analysis.Unparen(lhs).(*ast.IndexExpr); ok {
				if m, bad := taintOf(ix.X); bad {
					pass.Reportf(lhs.Pos(),
						"write through the result of Reader.%s, which aliases backend storage; %s",
						m, remedy(m))
				}
			}
			if _, ok := analysis.Unparen(lhs).(*ast.SelectorExpr); ok && rhs != nil {
				if m, bad := taintOf(rhs); bad && !pass.HasDirective(rhs.Pos(), "owns", "") {
					pass.Reportf(rhs.Pos(),
						"struct field retains the result of Reader.%s, which aliases backend storage; %s",
						m, remedy(m))
				}
			}
		},
		IncDec: func(st *ast.IncDecStmt) {
			if ix, ok := analysis.Unparen(st.X).(*ast.IndexExpr); ok {
				if m, bad := taintOf(ix.X); bad {
					pass.Reportf(st.Pos(),
						"write through the result of Reader.%s, which aliases backend storage; %s",
						m, remedy(m))
				}
			}
		},
	}
	w.Walk(fn.Body)
}
