// Command doccheck lints the repo's documentation layer with no
// dependencies beyond the standard library. Three checks:
//
//  1. Markdown links: every relative link target in the given markdown
//     files must resolve to an existing file, and every fragment
//     (#anchor, in-file or cross-file) must match a heading in the
//     target document, using GitHub's heading-slug rules. Absolute
//     http(s)/mailto links are not fetched.
//  2. Doc comments: every exported top-level symbol (funcs, methods,
//     types, vars, consts) in the packages named by -pkgs must carry a
//     doc comment — the facade and contract packages stay godoc-clean.
//  3. Flag drift, both ways: every flag registered by the commands named
//     by -flags (flag.String/Int/Bool/... with a literal name) must be
//     mentioned as -<name> in the -flagsdoc operations document, and
//     every flag-table row | `-<name>` | of that document must name a
//     flag one of those commands registers, so OPERATIONS.md can
//     neither fall behind the CLI surface nor keep a deleted flag.
//
// Usage:
//
//	doccheck [-pkgs dir,...] [-flags cmddir,...] [-flagsdoc ops.md] file.md [file.md ...]
//
// Exits non-zero listing every violation; silent on success.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var violations int

func report(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	violations++
}

// --- markdown link checking ---

// linkRE matches inline markdown links/images: [text](target) with an
// optional "title". Reference-style links are not used in this repo.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)(?:\s+"[^"]*")?\)`)

// stripCode removes fenced code blocks and inline code spans so code
// that happens to look like a link is not checked as one.
func stripCode(src string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			out = append(out, "")
			continue
		}
		if fenced {
			out = append(out, "")
			continue
		}
		out = append(out, inlineCodeRE.ReplaceAllString(line, ""))
	}
	return strings.Join(out, "\n")
}

var inlineCodeRE = regexp.MustCompile("`[^`]*`")

// slug converts a heading to its GitHub anchor id: lowercase, spaces to
// hyphens, punctuation (except hyphens/underscores) dropped.
func slug(heading string) string {
	heading = strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// headingRE matches ATX headings; the capture is the heading text.
var headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*#*\s*$`)

// anchorsOf returns the set of heading slugs of a markdown document.
func anchorsOf(src string) map[string]bool {
	anchors := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(stripCode(src), -1) {
		// Headings may contain inline code/links; slug their plain text.
		text := inlineCodeRE.ReplaceAllString(m[1], "")
		text = linkRE.ReplaceAllString(text, "")
		anchors[slug(text)] = true
	}
	return anchors
}

// checkMarkdown validates every relative link in one file. Documents
// are read at most once each via the cache.
func checkMarkdown(path string, cache map[string]string) {
	src, ok := readCached(path, cache)
	if !ok {
		report("%s: unreadable", path)
		return
	}
	for _, m := range linkRE.FindAllStringSubmatch(stripCode(src), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") {
			continue
		}
		file, frag, _ := strings.Cut(target, "#")
		resolved := path
		if file != "" {
			resolved = filepath.Join(filepath.Dir(path), file)
			if _, err := os.Stat(resolved); err != nil {
				report("%s: broken link %q: %s does not exist", path, target, resolved)
				continue
			}
		}
		if frag == "" {
			continue
		}
		dst, ok := readCached(resolved, cache)
		if !ok {
			report("%s: broken link %q: cannot read %s", path, target, resolved)
			continue
		}
		if !anchorsOf(dst)[frag] {
			report("%s: broken link %q: no heading with anchor #%s in %s", path, target, frag, resolved)
		}
	}
}

func readCached(path string, cache map[string]string) (string, bool) {
	if src, ok := cache[path]; ok {
		return src, true
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	cache[path] = string(b)
	return string(b), true
}

// --- exported-symbol doc comments ---

// checkPackageDocs parses every non-test .go file in dir and reports
// exported top-level symbols without a doc comment. A grouped
// declaration (`var (...)`, `const (...)`, `type (...)`) passes if the
// group or the individual spec is documented; later consts of an
// enumeration ride on the first one's comment (iota style) only when
// they share its spec group and the group is documented.
func checkPackageDocs(dir string) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		report("%s: %v", dir, err)
		return
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				checkDecl(fset, decl)
			}
		}
	}
}

func checkDecl(fset *token.FileSet, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc.Text() == "" && exportedRecv(d) {
			report("%s: exported %s lacks a doc comment", fset.Position(d.Pos()), funcName(d))
		}
	case *ast.GenDecl:
		groupDoc := d.Doc.Text() != ""
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !groupDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
					report("%s: exported type %s lacks a doc comment", fset.Position(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && !groupDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
						report("%s: exported %s lacks a doc comment", fset.Position(s.Pos()), name.Name)
					}
				}
			}
		}
	}
}

// --- flag drift ---

// flagCtors are the flag-package constructors whose first argument is
// the flag name; the *Var forms share the name position one later, but
// this repo registers flags only through the value-returning forms.
var flagCtors = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Int": true,
	"Int64": true, "String": true, "Uint": true, "Uint64": true,
}

// checkCmdFlags parses one command directory, adds every flag it
// registers to registered, and reports each whose -name does not appear
// in the operations document. The scan is syntactic: calls of the form
// flag.String("name", ...) with a literal first argument.
func checkCmdFlags(dir, docPath string, cache map[string]string, registered map[string]bool) {
	doc, ok := readCached(docPath, cache)
	if !ok {
		report("%s: unreadable (needed for -flags %s)", docPath, dir)
		return
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		report("%s: %v", dir, err)
		return
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagCtors[sel.Sel.Name] || len(call.Args) < 1 {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil || name == "" {
					return true
				}
				registered[name] = true
				if !strings.Contains(doc, "-"+name) {
					report("%s: flag -%s of %s is not documented in %s",
						fset.Position(lit.Pos()), name, dir, docPath)
				}
				return true
			})
		}
	}
}

// flagRowRE matches a flag-table row of the operations document; the
// capture is the flag name.
var flagRowRE = regexp.MustCompile("^\\|\\s*`-([A-Za-z0-9][A-Za-z0-9_-]*)`\\s*\\|")

// checkFlagRows reports every flag-table row of the operations document
// that names a flag no -flags command registers.
func checkFlagRows(docPath string, cache map[string]string, registered map[string]bool) {
	doc, ok := readCached(docPath, cache)
	if !ok {
		return // already reported by checkCmdFlags
	}
	for i, line := range strings.Split(doc, "\n") {
		if m := flagRowRE.FindStringSubmatch(line); m != nil && !registered[m[1]] {
			report("%s:%d: documented flag -%s is registered by none of the -flags commands", docPath, i+1, m[1])
		}
	}
}

// exportedRecv reports whether a func is package-level or a method on
// an exported receiver type — methods on unexported types are not part
// of the godoc surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	return "method " + d.Name.Name
}

func main() {
	pkgs := flag.String("pkgs", "", "comma-separated package dirs whose exported symbols must have doc comments")
	flagDirs := flag.String("flags", "", "comma-separated command dirs whose registered flags must appear in -flagsdoc")
	flagsDoc := flag.String("flagsdoc", "OPERATIONS.md", "operations document that must mention every -flags command flag")
	flag.Parse()

	cache := map[string]string{}
	for _, md := range flag.Args() {
		checkMarkdown(md, cache)
	}
	if *pkgs != "" {
		for _, dir := range strings.Split(*pkgs, ",") {
			checkPackageDocs(strings.TrimSpace(dir))
		}
	}
	if *flagDirs != "" {
		registered := map[string]bool{}
		for _, dir := range strings.Split(*flagDirs, ",") {
			checkCmdFlags(strings.TrimSpace(dir), *flagsDoc, cache, registered)
		}
		checkFlagRows(*flagsDoc, cache, registered)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d violation(s)\n", violations)
		os.Exit(1)
	}
}
