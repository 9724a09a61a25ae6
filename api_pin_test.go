package graphviews_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// exportedDecls parses the non-test files of the package in dir and
// returns its exported top-level declarations, one string each: "func
// F", "type T", "const C", "var V", and "method T.M" for methods
// declared in the package itself (not those reached through an alias).
func exportedDecls(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, kind+" "+id.Name)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add("func", d.Name)
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() && d.Name.IsExported() {
						out = append(out, "method "+id.Name+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add("type", spec.Name)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(strings.ToLower(d.Tok.String()), id)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestOneCallPathPerOperation keeps the engine packages at one exported
// function per operation: the sequential/parallel/pooled/seeded forms
// are one function taking an Options struct, so a new X / XWith /
// XPooled ladder — or a second body for an operation — fails here.
func TestOneCallPathPerOperation(t *testing.T) {
	once := map[string]int{
		"Simulate": 0, "SimulateDual": 0, "Materialize": 0, "MaterializeDual": 0,
		"Contain": 0, "MatchJoin": 0, "Answer": 0, "BuildDistIndex": 0, "NewMaintained": 0,
	}
	for _, dir := range []string{"internal/simulation", "internal/core", "internal/view"} {
		for _, decl := range exportedDecls(t, dir) {
			name, isFunc := strings.CutPrefix(decl, "func ")
			if !isFunc {
				continue
			}
			for _, suffix := range []string{"With", "Pooled", "Par", "Seeded", "FromSeeds"} {
				if strings.HasSuffix(name, suffix) {
					t.Errorf("%s exports %s: a variant of an existing operation belongs in its Options, not in a new name", dir, name)
				}
			}
			if _, ok := once[name]; ok {
				once[name]++
			}
		}
	}
	for name, n := range once {
		if n != 1 {
			t.Errorf("%s is declared %d times across the engine packages, want exactly once", name, n)
		}
	}
}

// TestFacadeExportsPinned compares the exported identifiers of package
// graphviews with testdata/facade_api.txt, so a change to the public
// surface is a reviewed diff of that file rather than a side effect.
func TestFacadeExportsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/facade_api.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(exportedDecls(t, "."), "\n") + "\n"
	if got != string(want) {
		t.Fatalf("package graphviews exports differ from testdata/facade_api.txt; if intended, make the file read:\n%s", got)
	}
}
