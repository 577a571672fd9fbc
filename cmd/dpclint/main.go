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
// the call's line or the line above it. A suppression states its reason in
// the same comment (`// forwarder //dpclint:ok`, `//dpclint:ok closed enum`);
// a bare `//dpclint:ok` is itself a finding and suppresses nothing.
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
// A third rule keeps the API the surface the layers call: an exported func or
// method declared in a non-test file fails unless some non-test file in the
// tree (bench/, cmd/ and examples/ included) mentions its name other than at
// a declaration. Names match by name alone, like fields. A method is exempt
// when an interface requires its name: one declared in the tree's non-test
// code, or one of the standard library's in stdMethods (fmt, encoding/json,
// sort, container/heap, io and errors call those). Anything else carries
// `//dpclint:ok <reason>` on its declaration's line or the line above it. A
// helper only tests call belongs in a _test.go file of its package. A
// struct field's declared name and a composite-literal key are never
// mentions: a field name never names a func, and a func, not being
// comparable, cannot be a map key. The blind spot that remains is the
// selector: x.Name counts as a mention of every method called Name, whatever
// x is; telling them apart needs go/types.
//
// A fourth rule keeps state that nothing reads out: an unexported struct
// field fails unless some non-test file of its package reads it. A read is a
// selector x.f that is not itself the target of an assignment, an
// op-assignment or ++/--; a composite-literal key is a write. Names match by
// name alone, so a read of another field called f hides a finding but never
// creates one. A field that is never read by name but still matters, such as
// one of a struct that is built positionally and only compared with == or
// used as a map key, carries `//dpclint:ok <reason>` on its line or the line
// above it; deleting it would merge values the struct tells apart.
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
	n, err := lintTree(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpclint:", err)
		os.Exit(2)
	}
	if n.names > 0 {
		fmt.Fprintf(os.Stderr, "dpclint: %d dynamic metric name(s); use a constant name, the q%%d/t%%d conventions, or //dpclint:ok\n", n.names)
	}
	if n.knobs > 0 {
		fmt.Fprintf(os.Stderr, "dpclint: %d config field(s) no caller sets; make each a constant, or mark a testbed struct //dpclint:params\n", n.knobs)
	}
	if n.callers > 0 {
		fmt.Fprintf(os.Stderr, "dpclint: %d exported func(s) with no non-test caller; delete each, or move it into a _test.go file\n", n.callers)
	}
	if n.fields > 0 {
		fmt.Fprintf(os.Stderr, "dpclint: %d unexported field(s) nothing reads; delete each, or, if it only serves equality or a map key, mark it //dpclint:ok with that reason\n", n.fields)
	}
	if n.bare > 0 {
		fmt.Fprintf(os.Stderr, "dpclint: %d //dpclint:ok without a reason\n", n.bare)
	}
	if n.names+n.knobs+n.callers+n.fields+n.bare > 0 {
		os.Exit(1)
	}
}

// source is one parsed non-test file.
type source struct {
	path string
	f    *ast.File
	ok   map[int]bool // lines carrying a reasoned //dpclint:ok
}

// findings counts each rule's findings.
type findings struct {
	names, knobs, callers, fields, bare int
}

// lintTree parses every non-test Go file under roots, checks each for
// dynamic metric names and bare suppressions, then checks the whole tree for
// unset config fields, uncalled exported funcs and unread unexported fields.
func lintTree(roots []string) (n findings, err error) {
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
			s := source{path: path, f: f}
			var bare int
			s.ok, bare = suppressions(fset, s)
			n.bare += bare
			n.names += lintNames(fset, s)
			files = append(files, s)
			return nil
		})
		if err != nil {
			return findings{}, err
		}
	}
	n.knobs = lintKnobs(fset, files)
	n.callers = lintCallers(fset, files)
	n.fields = lintFields(fset, files)
	return n, nil
}

// suppressions returns the lines of the file's `//dpclint:ok` comments that
// give a reason, and reports and counts the bare ones.
func suppressions(fset *token.FileSet, s source) (ok map[int]bool, bare int) {
	const mark = "dpclint:ok"
	ok = map[int]bool{}
	for _, cg := range s.f.Comments {
		for _, c := range cg.List {
			before, after, found := strings.Cut(c.Text, mark)
			if !found {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if strings.Trim(before+after, "/* \t") == "" {
				fmt.Fprintf(os.Stderr, "%s:%d: //%s without a reason\n", s.path, line, mark)
				bare++
				continue
			}
			ok[line] = true
		}
	}
	return ok, bare
}

// lintNames reports the file's metric registrations and Publish calls whose
// name is neither constant nor a sanctioned convention.
func lintNames(fset *token.FileSet, s source) int {
	findings := 0
	ast.Inspect(s.f, func(n ast.Node) bool {
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
		if s.ok[pos.Line] || s.ok[pos.Line-1] {
			return true
		}
		fmt.Fprintf(os.Stderr, "%s:%d: dynamic metric name in %s(...)\n", s.path, pos.Line, sel.Sel.Name)
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

// stdMethods are the method names a standard-library interface requires; the
// callers (fmt, encoding/json, encoding, sort, container/heap, io, errors)
// are outside the tree.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Unwrap": true,
}

// lintCallers reports every exported func or method whose name no non-test
// file mentions other than at a declaration, unless an interface requires
// the method's name or its declaration carries a reasoned //dpclint:ok.
func lintCallers(fset *token.FileSet, files []source) int {
	mentioned := map[string]bool{}
	required := map[string]bool{} // method names of the tree's interfaces
	for _, s := range files {
		decl := map[*ast.Ident]bool{}
		ast.Inspect(s.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				decl[x.Name] = true
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						decl[id] = true
						required[id.Name] = true
					}
				}
			case *ast.StructType:
				for _, fl := range x.Fields.List {
					for _, id := range fl.Names {
						decl[id] = true
					}
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							decl[id] = true
						}
					}
				}
			case *ast.Ident:
				if !decl[x] {
					mentioned[x.Name] = true
				}
			}
			return true
		})
	}

	findings := 0
	for _, s := range files {
		for _, d := range s.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || mentioned[fd.Name.Name] {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				if required[name] || stdMethods[name] {
					continue
				}
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			line := fset.Position(fd.Pos()).Line
			if s.ok[line] || s.ok[line-1] {
				continue
			}
			fmt.Fprintf(os.Stderr, "%s:%d: %s.%s has no non-test caller\n", s.path, line, s.f.Name.Name, name)
			findings++
		}
	}
	return findings
}

// recvName returns the type name of a method receiver: T for T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// lintFields reports every unexported struct field whose name no non-test
// file of its package reads.
func lintFields(fset *token.FileSet, files []source) int {
	// reads maps a directory to the field names its files read.
	reads := map[string]map[string]bool{}
	for _, s := range files {
		dir := filepath.Dir(s.path)
		if reads[dir] == nil {
			reads[dir] = map[string]bool{}
		}
		targets := map[ast.Expr]bool{}
		ast.Inspect(s.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					targets[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				targets[ast.Unparen(x.X)] = true
			case *ast.SelectorExpr:
				if !targets[x] {
					reads[dir][x.Sel.Name] = true
				}
			}
			return true
		})
	}

	findings := 0
	for _, s := range files {
		read := reads[filepath.Dir(s.path)]
		ast.Inspect(s.f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if id.IsExported() || id.Name == "_" || read[id.Name] {
						continue
					}
					line := fset.Position(id.Pos()).Line
					if s.ok[line] || s.ok[line-1] {
						continue
					}
					fmt.Fprintf(os.Stderr, "%s:%d: %s field %s is read by no non-test file of its package\n",
						s.path, line, s.f.Name.Name, id.Name)
					findings++
				}
			}
			return true
		})
	}
	return findings
}
