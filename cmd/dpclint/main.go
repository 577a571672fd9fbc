// Command dpclint enforces the repo's metric-naming discipline: every
// Counter/Gauge/Histogram registration, and every Publish of a
// component-owned counter, must use a constant name, so the
// metric namespace is greppable and the telemetry sampler's column set is
// closed. The sanctioned dynamic forms are the per-queue and per-tenant
// conventions — fmt.Sprintf with a format whose only verbs are a "q%d"
// queue index (e.g. "nvmefs.q%d.sq_depth") or a "t%d" tenant index (e.g.
// "t%d.client.read.latency", "nvmefs.t%d.shed") — plus the what-if
// sensitivity namespace: formats starting "whatif." whose verbs are "%s"
// each filling a whole dotted component (e.g.
// "whatif.%s.%s.halving_gain", workload and parameter names drawn from the
// closed whatif registries). Anything else dynamic is rejected.
//
// A call site that must re-resolve names the registry itself enumerated
// (the telemetry sampler does this) carries a `//dpclint:ok` suppression on
// the call's line or the line above it.
//
// A second rule keeps configuration surfaces closed: every exported field of
// an exported Options or *Config struct must be written by some non-test file
// outside the struct's own package, as a selector assignment (`a.B.C = v`
// writes C and B) or as a composite-literal key. A field only its package's
// defaults or tests set is a constant in disguise. Structs whose doc comment
// carries `//dpclint:params` (the modelled testbed's calibration parameters)
// are exempt. Fields match by name alone, so a collision can hide a finding
// but never create one.
//
// Usage: dpclint [dir ...]   (default ".", always recursive; _test.go,
// testdata and vendor are skipped). Exits non-zero on any finding.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// metricFuncs are the registration entry points the lint guards. Lookup
// helpers are exempt: they cannot create a metric.
var metricFuncs = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Publish":   true,
}

// verbRE matches a printf verb (with flags/width), for validating the
// sanctioned q%d / t%d forms.
var verbRE = regexp.MustCompile(`%[#+\- 0-9.]*[a-zA-Z]`)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	names, knobs, err := lintTree(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpclint:", err)
		os.Exit(2)
	}
	if names > 0 {
		fmt.Fprintf(os.Stderr, "dpclint: %d dynamic metric name(s); use a constant name, the q%%d/t%%d conventions, or //dpclint:ok\n", names)
	}
	if knobs > 0 {
		fmt.Fprintf(os.Stderr, "dpclint: %d config field(s) no caller sets; make each a constant, or mark a testbed struct //dpclint:params\n", knobs)
	}
	if names+knobs > 0 {
		os.Exit(1)
	}
}

// source is one parsed non-test file.
type source struct {
	path string
	f    *ast.File
}

// lintTree parses every non-test Go file under roots, checks each for
// dynamic metric names, then checks the whole tree for unset config fields.
func lintTree(roots []string) (names, knobs int, err error) {
	fset := token.NewFileSet()
	var files []source
	for _, root := range roots {
		// Accept go-style "./..." patterns; the walk is recursive anyway.
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			names += lintNames(fset, path, f)
			files = append(files, source{path, f})
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return names, lintKnobs(fset, files), nil
}

// lintNames reports the file's metric registrations and Publish calls whose
// name is neither constant nor a sanctioned convention.
func lintNames(fset *token.FileSet, path string, f *ast.File) int {
	// Lines carrying a `//dpclint:ok` suppression.
	suppressed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "dpclint:ok") {
				suppressed[fset.Position(c.Pos()).Line] = true
			}
		}
	}

	findings := 0
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !metricFuncs[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		if nameOK(call.Args[0]) {
			return true
		}
		pos := fset.Position(call.Pos())
		if suppressed[pos.Line] || suppressed[pos.Line-1] {
			return true
		}
		fmt.Fprintf(os.Stderr, "%s:%d: dynamic metric name in %s(...)\n", path, pos.Line, sel.Sel.Name)
		findings++
		return true
	})
	return findings
}

// nameOK reports whether the metric-name argument is acceptable: a constant
// string expression, or a fmt.Sprintf whose format's only verbs are the
// per-queue "q%d" / per-tenant "t%d" conventions, or a "whatif."-rooted
// format whose verbs are whole-component "%s" fills.
func nameOK(e ast.Expr) bool {
	if _, ok := constString(e); ok {
		return true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" || len(call.Args) == 0 {
		return false
	}
	format, ok := constString(call.Args[0])
	if !ok {
		return false
	}
	verbs := verbRE.FindAllStringIndex(format, -1)
	if len(verbs) == 0 {
		return false
	}
	if strings.HasPrefix(format, "whatif.") {
		return whatifFormatOK(format, verbs)
	}
	for _, v := range verbs {
		if format[v[0]:v[1]] != "%d" || v[0] == 0 {
			return false
		}
		// The q/t must begin a dotted name component: "q%d"/"t%d" at the
		// start or after a '.', so "tenant%d" or "freq%d" stay rejected.
		if c := format[v[0]-1]; c != 'q' && c != 't' {
			return false
		}
		if v[0] >= 2 && format[v[0]-2] != '.' {
			return false
		}
	}
	return true
}

// whatifFormatOK validates the what-if sensitivity convention: the format
// is rooted at "whatif." and every verb is a bare "%s" occupying one whole
// dotted component — preceded by a '.' and followed by '.' or end of the
// name. The fills come from the whatif parameter/workload registries, which
// are closed sets, so the namespace stays enumerable:
// "whatif.%s.%s.halving_gain" passes, "whatif.x%s.gain" and %d/%v verbs do
// not.
func whatifFormatOK(format string, verbs [][]int) bool {
	for _, v := range verbs {
		if format[v[0]:v[1]] != "%s" {
			return false
		}
		if v[0] == 0 || format[v[0]-1] != '.' {
			return false
		}
		if v[1] < len(format) && format[v[1]] != '.' {
			return false
		}
	}
	return true
}

// constString evaluates string literals and concatenations of them.
func constString(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if x.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(x.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false
		}
		l, lok := constString(x.X)
		r, rok := constString(x.Y)
		return l + r, lok && rok
	}
	return "", false
}

// lintKnobs reports every exported field of an exported Options or *Config
// struct that no non-test file outside the struct's directory writes.
func lintKnobs(fset *token.FileSet, files []source) int {
	// writers maps a field name to the directories whose files write it.
	writers := map[string]map[string]bool{}
	wrote := func(name, dir string) {
		if writers[name] == nil {
			writers[name] = map[string]bool{}
		}
		writers[name][dir] = true
	}
	for _, s := range files {
		dir := filepath.Dir(s.path)
		ast.Inspect(s.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					// a.B[i].C = v writes C and B.
					for e := lhs; e != nil; {
						switch y := e.(type) {
						case *ast.SelectorExpr:
							wrote(y.Sel.Name, dir)
							e = y.X
						case *ast.IndexExpr:
							e = y.X
						case *ast.StarExpr:
							e = y.X
						case *ast.ParenExpr:
							e = y.X
						default:
							e = nil
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					wrote(id.Name, dir)
				}
			}
			return true
		})
	}

	findings := 0
	for _, s := range files {
		dir := filepath.Dir(s.path)
		for _, decl := range s.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || name != "Options" && !strings.HasSuffix(name, "Config") ||
					isParams(gd.Doc) || isParams(ts.Doc) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if !id.IsExported() || writtenOutside(writers[id.Name], dir) {
							continue
						}
						pos := fset.Position(id.Pos())
						fmt.Fprintf(os.Stderr, "%s:%d: %s.%s.%s is set by no non-test file outside its package\n",
							s.path, pos.Line, s.f.Name.Name, name, id.Name)
						findings++
					}
				}
			}
		}
	}
	return findings
}

// isParams reports whether a doc comment marks its struct //dpclint:params.
func isParams(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, "dpclint:params") {
			return true
		}
	}
	return false
}

func writtenOutside(dirs map[string]bool, own string) bool {
	for d := range dirs {
		if d != own {
			return true
		}
	}
	return false
}
